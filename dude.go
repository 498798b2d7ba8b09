// Package dudetm is a Go reproduction of DudeTM (Liu et al., ASPLOS
// 2017): durable transactions for persistent memory built by decoupling
// each transaction into three asynchronous steps — Perform on a shadow
// DRAM mirror under an out-of-the-box transactional memory, Persist of
// the redo log to (simulated) NVM with a single fence per transaction
// group, and Reproduce of the logged updates into the persistent data.
//
// This package is the public facade. A Pool is a mounted persistent
// memory region; transactions read and write 8-byte words at pool
// addresses through a Tx:
//
//	pool, _ := dudetm.Create(dudetm.Options{})
//	tid, _ := pool.Update(0, func(tx *dudetm.Tx) error {
//	    tx.Store(pool.Root(0), 42)
//	    return nil
//	})
//	pool.WaitDurable(tid)
//
// Higher-level building blocks live in the internal packages and are
// re-exported where useful: a transactional heap allocator, hash table,
// and B+-tree (internal/memdb) run directly over *Tx.
//
// The NVM itself is simulated (internal/pmem): stores become durable
// only after explicit write-back and fencing, a crash discards
// everything else, and persist barriers stall for a configurable
// latency/bandwidth model — the same emulation methodology as the
// paper's evaluation.
package dudetm

import (
	"fmt"
	"os"
	"time"

	idudetm "dudetm/internal/dudetm"
	"dudetm/internal/memdb"
	"dudetm/internal/obs"
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// Tx is a durable transaction handle: transactional Load/Store of
// 8-byte words at pool addresses, plus Abort. It satisfies the
// transaction context of the bundled data structures.
type Tx = idudetm.Tx

// TraceRecord is one lifecycle trace stamp (see Pool.TraceOf).
type TraceRecord = obs.Record

// StallReport is the watchdog's diagnostic dump for one pipeline stall
// episode (see Options.Watchdog).
type StallReport = idudetm.StallReport

// CrashReport is the post-crash forensic summary of a pool image: the
// durable frontier provable from the log region plus what the
// persistent flight recorder says the pipeline was doing when power
// failed (see Forensics and Stats().Recovery.Report).
type CrashReport = idudetm.CrashReport

// RecoveryStats instruments a recovery mount: per-phase wall times,
// replay volume, and the forensic report (see Stats().Recovery).
type RecoveryStats = idudetm.RecoveryStats

// Heap is the transactional allocator type usable inside transactions.
type Heap = memdb.Heap

// ReplSink receives every sealed persist group from the Persist
// coordinator when replication is enabled (implemented by the
// log-shipping sender in internal/repl).
type ReplSink = idudetm.ReplSink

// ReplQuorumStats is a snapshot of the replication quorum gate (see
// Stats().Repl).
type ReplQuorumStats = idudetm.ReplQuorumStats

// NotifierStats counts the durability notifier's group-commit releases
// (see Pool.NotifierStats).
type NotifierStats = idudetm.NotifierStats

// Entry is one redo-log entry (an 8-byte store at a pool address), the
// unit shipped groups are made of.
type Entry = redolog.Entry

// rootWords reserves the first page of the pool for application roots.
const rootWords = 512

// Options configures a Pool.
type Options struct {
	// DataSize is the persistent data region size (default 64 MiB).
	DataSize uint64
	// Threads is the number of concurrent Update/View callers; each
	// must pass a distinct slot in [0, Threads). Default 4.
	Threads int
	// Sync makes every transaction flush its own log and wait for
	// durability before returning (the DUDETM-Sync configuration).
	Sync bool
	// GroupSize combines this many consecutive transactions into one
	// persist group (cross-transaction write combination).
	GroupSize int
	// TraceSampleEvery enables lifecycle tracing for every N-th
	// transaction: sampled transactions are stamped at commit,
	// group-seal, persist-fence and reproduce-apply (TraceOf
	// reconstructs the timeline) and feed the commit→durable /
	// commit→reproduced latency histograms in Stats().Obs. 1 traces
	// everything; 0 (default) traces every N-th when the
	// DUDETM_TRACE_SAMPLE environment variable sets N and nothing
	// otherwise; a negative value disables per-transaction tracing
	// whatever the environment says. Per-group metrics are always
	// recorded.
	TraceSampleEvery int
	// Watchdog, when non-zero, runs a stall watchdog sampling the
	// pipeline at this interval: a frontier with work queued behind it
	// that stops advancing (outside PausePersist/PauseReproduce) is
	// logged, counted in Stats().Stalls and kept as LastStall.
	Watchdog time.Duration
	// ReplFactor is the number of peer replicas sealed persist groups
	// are shipped to (0 = replication off). The pool only gates on
	// acknowledgments; attach the transport with EnableReplication.
	ReplFactor int
	// ReplQuorum is how many replica acknowledgments a transaction
	// needs, beyond local durability, before WaitDurable releases it
	// (default: ReplFactor, i.e. wait for all replicas).
	ReplQuorum int
	// ReplDegradeLocal falls back to local-only durability (flagged in
	// metrics, never silent) when fewer than ReplQuorum replicas are
	// live, instead of failing waiters with ErrQuorumLost.
	ReplDegradeLocal bool
	// Timing enables the NVM delay model.
	Timing bool
	// Latency and Bandwidth parameterize the delay model (defaults:
	// 1000 cycles at 3.4 GHz and 1 GB/s, the paper's baseline).
	Latency   time.Duration
	Bandwidth float64
}

func (o Options) config() idudetm.Config {
	cfg := idudetm.Config{
		DataSize:         o.DataSize,
		Threads:          o.Threads,
		GroupSize:        o.GroupSize,
		TraceSampleEvery: o.TraceSampleEvery,
		Watchdog:         o.Watchdog,
		ReplFactor:       o.ReplFactor,
		ReplQuorum:       o.ReplQuorum,
		ReplDegradeLocal: o.ReplDegradeLocal,
	}
	if cfg.Threads == 0 {
		cfg.Threads = 4
	}
	if o.Sync {
		cfg.Mode = idudetm.ModeSync
	}
	cfg.Pmem = pmem.Config{
		WriteLatency: o.Latency,
		Bandwidth:    o.Bandwidth,
		DelayEnabled: o.Timing,
	}
	if cfg.Pmem.WriteLatency == 0 {
		cfg.Pmem.WriteLatency = pmem.Latency1000
	}
	if cfg.Pmem.Bandwidth == 0 {
		cfg.Pmem.Bandwidth = pmem.GB
	}
	return cfg
}

// Pool is a mounted persistent memory pool.
type Pool struct {
	sys  *idudetm.System
	heap Heap
}

// Create initializes a fresh pool (simulated NVM included) and formats
// its heap.
func Create(o Options) (*Pool, error) {
	sys, err := idudetm.Create(o.config())
	if err != nil {
		return nil, err
	}
	p := newPool(sys)
	if _, err := p.Update(0, func(tx *Tx) error {
		p.heap.Format(tx)
		return nil
	}); err != nil {
		sys.Close()
		return nil, err
	}
	return p, nil
}

func newPool(sys *idudetm.System) *Pool {
	return &Pool{
		sys: sys,
		heap: Heap{
			Base: rootWords * 8,
			Size: sys.DataSize() - rootWords*8,
		},
	}
}

// OpenSnapshot mounts a pool from a snapshot taken by Snapshot or
// SaveImage, running crash recovery: the durable prefix of the redo logs
// is replayed and unacknowledged transactions are discarded.
func OpenSnapshot(img []byte, o Options) (*Pool, error) {
	dev := pmem.New(pmem.Config{
		Size:         uint64(len(img)),
		WriteLatency: o.Latency,
		Bandwidth:    o.Bandwidth,
		DelayEnabled: o.Timing,
	})
	dev.Restore(img)
	sys, err := idudetm.Recover(dev, o.config())
	if err != nil {
		return nil, err
	}
	return newPool(sys), nil
}

// OpenImage mounts a pool image file written by SaveImage.
func OpenImage(path string, o Options) (*Pool, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return OpenSnapshot(img, o)
}

// Update runs fn as a read-write durable transaction on behalf of
// caller slot and returns its transaction ID. The transaction is
// guaranteed durable once WaitDurable(tid) returns (immediately at
// return in Sync mode). Conflicts retry transparently; returning an
// error or calling Abort rolls back.
func (p *Pool) Update(slot int, fn func(tx *Tx) error) (uint64, error) {
	return p.sys.Run(slot, fn)
}

// View runs fn as a transaction intended for reading. (Writes are not
// prevented — the underlying TM treats transactions uniformly — but a
// read-only fn commits without consuming a transaction ID.)
func (p *Pool) View(slot int, fn func(tx *Tx) error) error {
	_, err := p.sys.Run(slot, fn)
	return err
}

// Root returns the pool address of application root word i (512 words
// are reserved for roots, e.g. heads of application data structures).
func (p *Pool) Root(i int) uint64 {
	if i < 0 || i >= rootWords {
		panic(fmt.Sprintf("dudetm: root index %d out of range", i))
	}
	return uint64(i) * 8
}

// Heap returns the pool's transactional allocator.
func (p *Pool) Heap() Heap { return p.heap }

// Threads returns the pool's configured concurrency: valid Update/View
// slots are [0, Threads). Servers multiplexing many clients over the
// pool size their slot pool with this.
func (p *Pool) Threads() int { return p.sys.Threads() }

// Alloc allocates n bytes from the pool heap within tx.
func (p *Pool) Alloc(tx *Tx, n uint64) (uint64, error) { return p.heap.Alloc(tx, n) }

// Free releases an allocation within tx.
func (p *Pool) Free(tx *Tx, addr uint64) { p.heap.Free(tx, addr) }

// Errors returned by durability waiters when the pool dies before the
// waited-for transaction becomes durable.
var (
	// ErrCrashed: a simulated power failure (Crash) discarded the
	// transaction before its log group was persisted.
	ErrCrashed = idudetm.ErrCrashed
	// ErrClosed: the pool was closed while the waiter was subscribed
	// for an ID the pipeline will never reach.
	ErrClosed = idudetm.ErrClosed
	// ErrQuorumLost: fewer than ReplQuorum replicas were live while the
	// waited-for transaction was beyond the quorum-acked frontier (the
	// transaction IS locally durable; the replication guarantee is what
	// failed). Only returned when ReplDegradeLocal is false.
	ErrQuorumLost = idudetm.ErrQuorumLost
	// ErrReplGap: a group offered to IngestGroup does not extend the
	// replica's dense transaction-ID stream.
	ErrReplGap = idudetm.ErrReplGap
	// ErrTxTooLarge: Update's transaction wrote more words than one
	// persistent log record (or the volatile log, or on a replicated
	// pool one REPL frame) holds; it was rolled back and logged nothing.
	// At the default volatile log of 16 Ki entries the cap is 16 383
	// writes.
	ErrTxTooLarge = idudetm.ErrTxTooLarge
)

// WaitDurable blocks until the transaction with the given ID is durable
// and returns nil. If the pool crashes or closes first, it returns
// ErrCrashed or ErrClosed instead of hanging — a waiter can never be
// stranded on an ID the durable frontier will not reach.
func (p *Pool) WaitDurable(tid uint64) error { return p.sys.WaitDurable(tid) }

// WaitDurableChan subscribes to the durability of one transaction: the
// returned channel receives nil once the durable ID reaches tid, or
// ErrCrashed/ErrClosed if the pool dies first. The channel is buffered
// and receives exactly one value; callers may select on it or abandon
// it freely.
func (p *Pool) WaitDurableChan(tid uint64) <-chan error {
	return p.sys.WaitDurableChan(tid)
}

// NotifierStats returns the group-commit release counters of the
// pool's durability notifier — the one every WaitDurable, WaitDurableChan
// and dudesrv connection parks on: frontier advances that woke waiters,
// waiters released, and the largest single release. Cheap enough to poll.
func (p *Pool) NotifierStats() NotifierStats { return p.sys.NotifierStats() }

// Crash simulates a power failure and tears the pool down: the pipeline
// halts where it is, unpersisted cache lines are discarded, and the
// durable device image is returned for remounting with OpenSnapshot.
// All Update/View calls must have returned and the pipeline stages must
// not be left paused. Concurrent WaitDurable callers are unblocked;
// those whose transactions never became durable get ErrCrashed —
// exactly the transactions recovery will discard.
func (p *Pool) Crash() []byte { return p.sys.Crash() }

// Durable returns the global durable transaction ID.
func (p *Pool) Durable() uint64 { return p.sys.Durable() }

// AckFrontier returns the durability frontier WaitDurable gates on:
// the local durable frontier, additionally capped by the quorum-acked
// replica frontier when replication is enabled. Servers acknowledge
// clients from this, never from Durable.
func (p *Pool) AckFrontier() uint64 { return p.sys.AckFrontier() }

// EnableReplication attaches a replication sink (the log-shipping
// sender) and the quorum gate to a fresh pool: every sealed persist
// group is handed to sink in dense transaction-ID order, and
// WaitDurable releases a transaction only once Options.ReplQuorum of
// the named peers acked a frontier covering it.
func (p *Pool) EnableReplication(sink ReplSink, peers []string) error {
	return p.sys.EnableReplication(sink, peers)
}

// ReplicaAcked records a replica's durable frontier (monotonic per
// peer — a reconnect re-acking an older frontier never moves the
// quorum frontier backward).
func (p *Pool) ReplicaAcked(peer string, frontier uint64) { p.sys.ReplicaAcked(peer, frontier) }

// ReplicaLive records a replica connecting or dying; quorum loss is
// surfaced through Stats().Repl and either ErrQuorumLost waiters or
// the flagged local-only fallback.
func (p *Pool) ReplicaLive(peer string, live bool) { p.sys.ReplicaLive(peer, live) }

// ReplicaGroupSent stamps a group's frame fully written to a peer's
// socket (the sender's optional tracing surface; peer is the index
// into its peer list).
func (p *Pool) ReplicaGroupSent(peer int, minTid, maxTid uint64) {
	p.sys.ReplicaGroupSent(peer, minTid, maxTid)
}

// ReplicaGroupAcked stamps a replica's group acknowledgment carrying
// its self-measured ingest duration, extending sampled transactions'
// timelines across nodes (see Pool.CritpathOf).
func (p *Pool) ReplicaGroupAcked(peer int, minTid, maxTid uint64, ingestNanos int64) {
	p.sys.ReplicaGroupAcked(peer, minTid, maxTid, ingestNanos)
}

// ReplStats returns a snapshot of the replication quorum gate.
func (p *Pool) ReplStats() ReplQuorumStats { return p.sys.ReplStats() }

// IngestGroup fences one replicated group into this (replica) pool,
// advancing its durable frontier and feeding Reproduce — the replica
// half of log shipping. Groups must extend the dense tid stream;
// catch-up duplicates are skipped idempotently. Ingest must stop
// before the pool is closed or crashed.
func (p *Pool) IngestGroup(minTid, maxTid uint64, entries []Entry) error {
	return p.sys.IngestGroup(minTid, maxTid, entries)
}

// Reproduced returns the largest transaction ID already applied to
// persistent data.
func (p *Pool) Reproduced() uint64 { return p.sys.Reproduced() }

// Stats returns pipeline and device statistics.
func (p *Pool) Stats() idudetm.Stats { return p.sys.Stats() }

// AuditRecovery cross-checks an ID that was acknowledged as durable
// before a crash against this recovered pool: it returns nil when the
// recovered durable frontier covers the ID, and an error carrying the
// forensic crash report when the durability contract was broken.
func (p *Pool) AuditRecovery(ackedTid uint64) error { return p.sys.AuditRecovery(ackedTid) }

// Forensics decodes a pool image (a Snapshot, a Crash image, or a file
// read from disk) into a CrashReport without mounting it: the durable
// frontier recomputed from the logs, the persist barriers a torn log
// tail shows were in flight, torn-record counts and the surviving
// flight-recorder event tail.
func Forensics(img []byte) (*CrashReport, error) {
	dev := pmem.New(pmem.Config{Size: uint64(len(img))})
	dev.Restore(img)
	return idudetm.Forensics(dev)
}

// TraceOf reconstructs the lifecycle timeline of a sampled transaction
// (Options.TraceSampleEvery): commit → group-seal → persist-fence →
// reproduce-apply, ordered by timestamp. A transaction whose sample row
// a later sampled transaction has claimed returns an empty timeline.
func (p *Pool) TraceOf(tid uint64) []TraceRecord { return p.sys.TraceOf(tid) }

// TraceTail returns the most recent n trace records across the pool's
// sample table (all of them when n <= 0), oldest first.
func (p *Pool) TraceTail(n int) []TraceRecord { return p.sys.TraceTail(n) }

// Critpath is one sampled transaction's critical-path decomposition:
// the commit→acknowledged window tiled into named segments whose sum
// equals the measured end-to-end latency exactly (see Pool.CritpathOf).
type Critpath = obs.Critpath

// CritSegment names one critical-path segment (ring_dwell, seal_wait,
// persist_fence, repl_ship, quorum_wait, notify).
type CritSegment = obs.CritSegment

// CritpathOf decomposes a sampled transaction's commit→acknowledged
// latency into critical-path segments from its sample row. ok is false
// when the timeline is incomplete: the transaction was not sampled, its
// row was reused, or it is not yet quorum-acked.
func (p *Pool) CritpathOf(tid uint64) (Critpath, bool) { return p.sys.CritpathOf(tid) }

// LastStall returns the most recent watchdog stall report, or nil.
func (p *Pool) LastStall() *StallReport { return p.sys.LastStall() }

// PausePersist freezes the Persist step (transactions keep committing
// but stop becoming durable) — for crash drills and tests.
func (p *Pool) PausePersist() { p.sys.PausePersist() }

// ResumePersist releases PausePersist.
func (p *Pool) ResumePersist() { p.sys.ResumePersist() }

// PauseReproduce freezes the Reproduce step (transactions become
// durable in the log but are not applied to persistent data).
func (p *Pool) PauseReproduce() { p.sys.PauseReproduce() }

// ResumeReproduce releases PauseReproduce.
func (p *Pool) ResumeReproduce() { p.sys.ResumeReproduce() }

// Snapshot returns the durable contents of the simulated NVM — exactly
// what a power failure at this instant would leave behind. Callers must
// ensure the pool is quiescent: either Close it first, or stop issuing
// transactions and pause both pipeline stages (PausePersist and
// PauseReproduce block until their stage is idle) for a mid-pipeline
// snapshot.
func (p *Pool) Snapshot() []byte { return p.sys.Device().PersistedImage() }

// SaveImage writes Snapshot to a file (readable by OpenImage and the
// dudectl tool).
func (p *Pool) SaveImage(path string) error {
	return os.WriteFile(path, p.Snapshot(), 0o644)
}

// Close drains the pipeline and stops the pool. All Update/View calls
// must have returned.
func (p *Pool) Close() { p.sys.Close() }
