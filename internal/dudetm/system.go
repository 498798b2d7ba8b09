package dudetm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dudetm/internal/obs"
	"dudetm/internal/obs/blackbox"
	"dudetm/internal/park"
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
	"dudetm/internal/shadow"
	"dudetm/internal/stm"
)

// System is a mounted DudeTM pool: a simulated NVM device, a shadow
// memory, a TM engine, and the Persist/Reproduce pipeline.
type System struct {
	cfg    Config
	dev    *pmem.Device
	lay    layout
	engine stm.TM
	space  shadow.Space

	threads []*thread
	writers []*redolog.Writer

	// maxTxWrites is the most writes one transaction may log: its ring
	// entries plus end mark must fit the volatile ring (ModeAsync), its
	// group one log record (redolog.MaxGroupEntries) and, once
	// replication is attached, one REPL frame (replGroupEntries).
	maxTxWrites int

	reproCh    chan repoMsg
	durable    atomic.Uint64
	reproduced park.Frontier // paged swap-in waits on it
	recycled   park.Frontier // reproduced ID whose log space is all recycled; Drain waits on it
	startTid   uint64

	coord coordWake // the Persist coordinator's park/wake handshake

	// Stage-utilization instrumentation.
	pm stageMetrics // Persist
	rm stageMetrics // Reproduce

	// Lifecycle tracing (one sample row per sampled transaction) and
	// latency histograms.
	obs *obs.Observer

	// Persistent flight recorder: stamped and synced at boot and on a
	// watchdog stall, decoded by forensics after a crash.
	bb *blackbox.Recorder

	// Recovery instrumentation from the Recover that produced this mount
	// (zero-valued on a fresh Create).
	recov RecoveryStats

	// Stall watchdog (Config.Watchdog > 0).
	watchStop chan struct{}
	watchOnce sync.Once
	stalls    atomic.Uint64
	lastStall atomic.Pointer[StallReport]
	// Pause flags shadow the gates so the watchdog can tell an
	// operator-frozen stage from a stalled one.
	persistPaused atomic.Bool
	reproPaused   atomic.Bool

	dense denseTracker // ModeSync durable-frontier tracking
	notif durNotifier  // durable-ID waiters

	// Replication (nil / durable-following when not attached): the
	// quorum gate EnableReplication installs, the published
	// acknowledgment frontier WaitDurable gates on, and the replica-side
	// ingest serialization.
	repl     atomic.Pointer[replState]
	acked    atomic.Uint64
	ingestMu sync.Mutex

	stopping atomic.Bool
	halted   atomic.Bool // Crash: pipeline stops where it is, no drain
	closed   atomic.Bool
	wg       sync.WaitGroup

	// Pause points for crash-consistency tests and operational control:
	// the Persist coordinator and the Reproduce loop acquire these per
	// pass.
	persistGate   sync.Mutex
	reproduceGate sync.Mutex

	// Statistics. Perform's own counters are per thread (threadCounters).
	rawEntries  atomic.Uint64 // log entries before combination
	combEntries atomic.Uint64 // log entries after combination
}

// threadCounters are one Perform thread's activity counters, which Stats
// sums. They sit on a cache line of their own, so a commit writes no
// line that another thread writes too.
type threadCounters struct {
	writes    atomic.Uint64 // dtmWrite calls, every attempt counted
	committed atomic.Uint64 // committed write transactions
	_         [pmem.LineSize - 16]byte
}

// thread is the per-Perform-thread state.
type thread struct {
	ctr    threadCounters
	sys    *System
	slot   int
	ring   *redolog.Ring
	writer *redolog.Writer // ModeSync: this thread's persistent log

	// Per-transaction state.
	tx        Tx
	writes    int             // dtmWrite calls of the current attempt
	runWrites int             // dtmWrite calls of the current Run's earlier attempts
	tooLarge  bool            // the attempt aborted at maxTxWrites
	pages     []uint64        // pinned shadow pages (paged shadow only)
	entries   []redolog.Entry // ModeSync: current transaction's writes
	burned    []uint64        // ModeSync: no-op commit IDs to flush
}

// Tx is the durable transaction handle: the paper's dtmRead / dtmWrite /
// dtmAbort, layered over the underlying TM transaction.
type Tx struct {
	inner stm.Tx
	th    *thread
}

// Load performs a transactional read (dtmRead): a direct shadow-memory
// read through the TM, with no log lookup or address remapping.
func (t *Tx) Load(addr uint64) uint64 { return t.inner.Load(addr) }

// Store performs a transactional write (dtmWrite): append to the
// volatile redo log, then write through to shadow memory. A write past
// the transaction's limit aborts it, and Run returns ErrTxTooLarge.
func (t *Tx) Store(addr, val uint64) {
	th := t.th
	if th.writes == th.sys.maxTxWrites {
		th.tooLarge = true
		t.inner.Abort()
	}
	th.writes++
	if th.sys.cfg.Mode == ModeSync {
		th.entries = append(th.entries, redolog.Entry{Addr: addr, Val: val})
	} else {
		th.ring.Append(addr, val)
	}
	if th.sys.paged() {
		page := addr / th.sys.lay.pageSize
		pinned := false
		for _, p := range th.pages {
			if p == page {
				pinned = true
				break
			}
		}
		if !pinned {
			th.sys.space.PinWritePage(addr)
			th.pages = append(th.pages, page)
		}
	}
	t.inner.Store(addr, val)
}

// Abort aborts the transaction (dtmAbort): the shadow state rolls back,
// the log entries are discarded, and Run returns stm.ErrAborted.
func (t *Tx) Abort() { t.inner.Abort() }

func (s *System) paged() bool { return s.cfg.Shadow != ShadowFlat }

// Create initializes a fresh pool (and its simulated NVM device) and
// starts the pipeline.
func Create(cfg Config) (*System, error) {
	cfg.applyDefaults()
	// One log per Perform thread: ModeSync appends each thread's
	// transactions to its own log, ModeAsync's coordinator appends to
	// log 0, so the pool mounts under either mode.
	lay := computeLayout(uint64(cfg.Threads), cfg.LogBufBytes, cfg.DataSize, pageSize, blackboxEntries)
	if err := redolog.CheckRegion(lay.logsOff, lay.logSize); err != nil {
		return nil, fmt.Errorf("dudetm: LogBufBytes: %w", err)
	}
	pc := cfg.Pmem
	pc.Size = lay.total
	dev := pmem.New(pc)
	dev.SetRegions(lay.regions())
	writeHeader(dev, lay)
	blackbox.Format(dev, lay.bbOff, lay.bbEntries)

	s, err := build(cfg, dev, lay, 0)
	if err != nil {
		return nil, err
	}
	for i := range s.writers {
		if s.writers[i], err = redolog.NewWriter(dev, lay.metaAddr(i), lay.logAddr(i), lay.logSize, cfg.Compress); err != nil {
			return nil, err
		}
	}
	s.bindWriters()
	s.start()
	return s, nil
}

// build constructs the System shell shared by Create and Recover:
// everything except the writers, which differ between a fresh pool and a
// recovered one.
func build(cfg Config, dev *pmem.Device, lay layout, startTid uint64) (*System, error) {
	if uint64(cfg.Threads) > lay.nlogs {
		return nil, fmt.Errorf("dudetm: pool has %d logs, config wants %d threads", lay.nlogs, cfg.Threads)
	}
	s := &System{
		cfg:         cfg,
		dev:         dev,
		lay:         lay,
		writers:     make([]*redolog.Writer, lay.nlogs),
		maxTxWrites: redolog.MaxGroupEntries(lay.logSize),
		// The group channel is the volatile copy of the persisted log
		// kept for Reproduce (§3.3). Its capacity bounds how far
		// Persist can run ahead of Reproduce before back-pressure
		// stalls it (relevant when Reproduce is paused for drills).
		reproCh:  make(chan repoMsg, 1<<16),
		startTid: startTid,
	}
	if cfg.Mode == ModeAsync {
		s.coord.ch = make(chan struct{}, 1)
	}
	s.obs = obs.New(obs.Config{SampleEvery: cfg.TraceSampleEvery})
	s.durable.Store(startTid)
	s.acked.Store(startTid)
	s.reproduced.Store(startTid)
	s.recycled.Store(startTid)
	s.dense = denseTracker{next: startTid + 1, pend: make(map[uint64]struct{})}
	bb, err := blackbox.Open(dev, lay.bbOff)
	if err != nil {
		return nil, err
	}
	s.bb = bb

	switch cfg.Shadow {
	case ShadowFlat:
		s.space = shadow.NewFlat(lay.dataSize, pmSource{s}, lay.pageSize)
	case ShadowSW, ShadowHW:
		mode := shadow.SoftwarePaging
		if cfg.Shadow == ShadowHW {
			mode = shadow.HardwarePaging
		}
		s.space = shadow.NewPaged(shadow.PagedConfig{
			Size:        lay.dataSize,
			ShadowBytes: cfg.ShadowBytes,
			PageSize:    lay.pageSize,
			Mode:        mode,
		}, pmSource{s})
	default:
		return nil, fmt.Errorf("dudetm: unknown shadow kind %d", cfg.Shadow)
	}

	switch cfg.Engine {
	case EngineSTM:
		e := stm.New(s.space, stm.Config{
			MaxSlots:     cfg.Threads,
			OnNoopCommit: s.onNoopCommit,
		})
		e.SetClock(startTid)
		s.engine = e
	case EngineHTM:
		e := stm.NewHTM(s.space, stm.HTMConfig{MaxSlots: cfg.Threads})
		e.SetClock(startTid)
		s.engine = e
	default:
		return nil, fmt.Errorf("dudetm: unknown engine kind %d", cfg.Engine)
	}

	s.threads = make([]*thread, cfg.Threads)
	for i := range s.threads {
		th := &thread{sys: s, slot: i, ring: redolog.NewRing(cfg.VLogEntries)}
		th.tx = Tx{th: th}
		s.threads[i] = th
	}
	if cfg.Mode == ModeAsync {
		// The ring frees a transaction's slots only once its end mark
		// is in: one that fills the ring waits for itself.
		s.maxTxWrites = min(s.maxTxWrites, s.threads[0].ring.Cap()-1)
	}
	return s, nil
}

func (s *System) bindWriters() {
	for i, th := range s.threads {
		th.writer = s.writers[i]
	}
}

func (s *System) start() {
	// The boot stamp opens a new forensic epoch: recovery discards
	// uncommitted IDs, so stamps from earlier epochs may reference
	// transaction IDs this mount will reassign.
	s.bb.Stamp(blackbox.KindBoot, s.startTid, uint64(s.cfg.Mode), 0)
	s.bb.Sync()
	s.pm.markStart()
	s.rm.markStart()
	s.wg.Add(1)
	go s.reproduceLoop()
	if s.cfg.Mode == ModeAsync {
		s.wg.Add(1)
		go s.persistLoop()
	}
	if s.cfg.Watchdog > 0 {
		s.watchStop = make(chan struct{})
		s.wg.Add(1)
		go s.watchdogLoop(s.cfg.Watchdog)
	}
}

// stopWatchdog retires the watchdog goroutine (idempotent; no-op when
// the watchdog was never started).
func (s *System) stopWatchdog() {
	if s.watchStop != nil {
		s.watchOnce.Do(func() { close(s.watchStop) })
	}
}

// Device returns the underlying simulated NVM device (for statistics and
// crash simulation in tests and benchmarks).
func (s *System) Device() *pmem.Device { return s.dev }

// Engine returns the underlying TM (for abort statistics).
func (s *System) Engine() stm.TM { return s.engine }

// ShadowStats returns paging statistics.
func (s *System) ShadowStats() shadow.Stats { return s.space.Stats() }

// DataSize returns the size of the persistent data region.
func (s *System) DataSize() uint64 { return s.lay.dataSize }

// Threads returns the configured concurrency: valid Run slots are
// [0, Threads).
func (s *System) Threads() int { return s.cfg.Threads }

// Durable returns the global durable transaction ID: every transaction
// with a smaller or equal ID is persistent (§3.3).
func (s *System) Durable() uint64 { return s.durable.Load() }

// Reproduced returns the largest transaction ID replayed to persistent
// data.
func (s *System) Reproduced() uint64 { return s.reproduced.Load() }

// Clock returns the largest transaction ID assigned so far.
func (s *System) Clock() uint64 { return s.engine.Clock() }

// WaitDurable blocks until the global durable ID reaches tid and
// returns nil. It yield-spins first — durable-acknowledgement waits are
// normally a few microseconds, far below the OS timer resolution, and
// Table 3 measures exactly this latency — then parks on the notifier.
// If the system crashes or closes while tid is still beyond the durable
// frontier, it returns ErrCrashed or ErrClosed instead of hanging.
func (s *System) WaitDurable(tid uint64) error {
	for spin := 0; spin < 256; spin++ {
		if s.acked.Load() >= tid {
			return nil
		}
		runtime.Gosched() // a notifier subscription costs more than most waits
	}
	return <-s.notif.wait(tid)
}

// WaitDurableChan subscribes to the durability of a single transaction:
// the returned channel receives nil once the durable frontier reaches
// tid, or ErrCrashed/ErrClosed if the system dies first. The channel is
// buffered and receives exactly one value, so callers may select on it
// or abandon it freely.
func (s *System) WaitDurableChan(tid uint64) <-chan error {
	return s.notif.wait(tid)
}

// NotifierStats returns the group-commit release counters: how many
// frontier advances woke parked durability waiters, and how many
// waiters they released. It takes one uncontended mutex, nothing else.
func (s *System) NotifierStats() NotifierStats { return s.notif.snapshot() }

// setDurable publishes a new durable frontier and wakes waiters whose
// IDs the acknowledgment frontier passed. With
// replication attached, the local advance routes through the quorum
// gate and waiters wake only when enough replicas have acked too.
func (s *System) setDurable(f uint64) {
	for {
		cur := s.durable.Load()
		if cur >= f || s.durable.CompareAndSwap(cur, f) {
			break
		}
	}
	s.publishDurable(f)
	s.obs.DurableAdvanced(f)
}

// ErrTxTooLarge is returned by Run for a transaction that writes more
// words than one log record, in ModeAsync the volatile ring, or with
// replication attached one REPL frame, can hold. The transaction is
// rolled back and logs nothing.
var ErrTxTooLarge = errors.New("dudetm: transaction writes more words than one log record can hold")

// Run executes fn as a durable transaction on behalf of thread slot and
// returns its transaction ID. In ModeAsync it returns right after the
// Perform step — the transaction is durable once Durable() >= tid
// (WaitDurable). In ModeSync it returns only after the transaction is
// durable. Read-only transactions return the snapshot ID they observed;
// they are durable once Durable() reaches it. A transaction whose writes
// would not fit one log record (redolog.MaxGroupEntries), in ModeAsync
// the volatile ring, or with replication attached one REPL frame fails
// with ErrTxTooLarge.
func (s *System) Run(slot int, fn func(*Tx) error) (tid uint64, err error) {
	if s.closed.Load() {
		panic("dudetm: Run on closed system")
	}
	th := s.threads[slot]
	th.writes, th.runWrites = 0, 0
	defer func() {
		// One add per Run on the thread's own line, not one per write.
		th.ctr.writes.Add(uint64(th.runWrites + th.writes))
		if r := recover(); r != nil {
			s.cleanupAttempt(th)
			s.flushBurned(th)
			panic(r)
		}
	}()
	tid, err = s.engine.Run(slot, func(itx stm.Tx) error {
		s.cleanupAttempt(th)
		th.runWrites += th.writes
		th.writes, th.tooLarge = 0, false
		th.tx.inner = itx
		return fn(&th.tx)
	})
	if err != nil {
		s.cleanupAttempt(th)
		s.flushBurned(th)
		if th.tooLarge {
			err = ErrTxTooLarge
		}
		return 0, err
	}
	if th.writes == 0 {
		s.flushBurned(th)
		return tid, nil
	}
	th.ctr.committed.Add(1)
	// Stamp before the transaction is published downstream (AppendTxEnd
	// / syncCommit), so the commit record orders before every later
	// stamp of the same transaction.
	s.obs.Commit(tid)
	if s.cfg.Mode == ModeSync {
		s.syncCommit(th, tid)
		return tid, nil
	}
	// Pins must survive until the touching IDs carry the commit ID, so
	// a swapped-out page can never be re-read without this
	// transaction's updates (§4.3).
	if s.paged() {
		s.space.CommitPages(th.pages, tid)
		th.pages = th.pages[:0]
	}
	th.ring.AppendTxEnd(tid)
	s.coord.wake()
	// A Perform thread this far ahead of the Persist coordinator may be
	// holding the processor the coordinator is waiting for: with fewer
	// processors than stages, a thread that never blocks is descheduled
	// only every 10 ms, which lets Persist run in 30-50 ms bursts while
	// the lead piles up in the ring, and durable throughput then swings
	// with how the bursts fall. Yielding keeps the durable frontier
	// moving steadily behind Perform; on an idle processor it returns
	// at once.
	if th.ring.Len() > yieldBacklog {
		runtime.Gosched()
	}
	return tid, nil
}

// yieldBacklog is the ring occupancy, in entries, past which a Perform
// thread yields after each commit: a few 64-transaction groups' worth,
// far below any ring that is meant to absorb a burst.
const yieldBacklog = 4096

// cleanupAttempt discards the residue of a conflicted or failed attempt:
// un-published log entries and page pins.
func (s *System) cleanupAttempt(th *thread) {
	if s.cfg.Mode == ModeSync {
		th.entries = th.entries[:0]
	} else {
		th.ring.PopToLastTx()
	}
	if len(th.pages) > 0 {
		s.space.ReleasePages(th.pages)
		th.pages = th.pages[:0]
	}
}

// onNoopCommit accounts for a commit timestamp consumed by a failed
// validation: the ID must still appear in the log stream so Reproduce's
// ID-ordered replay stays dense.
func (s *System) onNoopCommit(slot int, tid uint64) {
	th := s.threads[slot]
	if s.cfg.Mode == ModeSync {
		th.entries = th.entries[:0]
		th.burned = append(th.burned, tid)
		return
	}
	th.ring.PopToLastTx()
	th.ring.AppendTxEnd(tid)
	s.coord.wake()
}

// flushBurned persists empty groups for no-op commit IDs (ModeSync; in
// ModeAsync the ring carries them).
func (s *System) flushBurned(th *thread) {
	if s.cfg.Mode != ModeSync || len(th.burned) == 0 {
		return
	}
	for _, b := range th.burned {
		g := &redolog.Group{MinTid: b, MaxTid: b}
		th.writer.AppendGroup(g)
		s.pm.groups.Add(1)
		s.pm.fences.Add(1)
		s.markDurable(b)
		s.rm.enqueue()
		s.reproCh <- repoMsg{g: g, wi: th.slot}
	}
	th.burned = th.burned[:0]
}

// syncCommit is the DUDETM-Sync path: persist this transaction's log
// immediately and wait until it is durable.
func (s *System) syncCommit(th *thread, tid uint64) {
	if s.paged() {
		s.space.CommitPages(th.pages, tid)
		th.pages = th.pages[:0]
	}
	s.flushBurned(th)
	ep := getEntrySlice()
	*ep = append((*ep)[:0], th.entries...)
	g := &redolog.Group{MinTid: tid, MaxTid: tid, Entries: *ep}
	// The synchronous path seals, appends and fences inline on the
	// Perform thread.
	s.obs.GroupSealed(tid, tid, 1, len(th.entries))
	startAt := s.obs.Now()
	th.writer.AppendGroup(g)
	endAt := s.obs.Now()
	s.obs.GroupPersisted(tid, tid, startAt, endAt)
	s.pm.busy.Add(uint64(endAt - startAt))
	s.pm.groups.Add(1)
	s.pm.fences.Add(1)
	s.rawEntries.Add(uint64(len(th.entries)))
	s.combEntries.Add(uint64(len(th.entries)))
	s.markDurable(tid)
	s.rm.enqueue()
	s.reproCh <- repoMsg{g: g, wi: th.slot, ep: ep}
	th.entries = th.entries[:0]
	s.WaitDurable(tid)
}

// markDurable records tid as flushed and advances the durable frontier
// to the largest prefix-complete ID.
func (s *System) markDurable(tid uint64) {
	s.setDurable(s.dense.mark(tid))
}

// Close drains the pipeline and stops the background threads. All Run
// calls must have returned. The pool remains fully reproduced: durable,
// reproduced and clock coincide.
func (s *System) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.stop()
	// Every committed transaction is durable now; any waiter still
	// subscribed is waiting for an ID the pipeline will never assign.
	s.notif.fail(ErrClosed)
}

// Crash simulates a power failure and tears the system down: the
// pipeline halts where it is (nothing is drained), every cache line not
// yet written back is discarded, and the durable image of the device is
// returned for remounting with Recover or the facade's OpenSnapshot.
// All Run calls must have returned and neither pipeline stage may be
// left paused. Concurrent WaitDurable / WaitDurableChan callers are
// unblocked: waiters whose IDs the durable frontier never reached get
// ErrCrashed — exactly the transactions recovery will discard.
func (s *System) Crash() []byte {
	if s.closed.Swap(true) {
		panic("dudetm: Crash on closed system")
	}
	s.halted.Store(true)
	// A coordinator waiting for log space Reproduce will no longer
	// recycle gives up.
	for _, w := range s.writers {
		w.Halt()
	}
	s.stop()
	s.dev.Crash()
	img := s.dev.PersistedImage()
	s.notif.fail(ErrCrashed)
	return img
}

// stop joins the pipeline goroutines for Close and Crash: they drain
// the pipeline, or stop where they are once halted is set.
func (s *System) stop() {
	s.stopping.Store(true)
	s.stopWatchdog()
	if s.cfg.Mode == ModeSync {
		close(s.reproCh)
	}
	// ModeAsync: the persist loop observes stopping, drains the rings,
	// seals the last group and closes reproCh itself.
	s.coord.wake()
	s.wg.Wait()
}

// Stats is a snapshot of system activity.
type Stats struct {
	Writes      uint64 // dtmWrite calls
	Committed   uint64 // committed write transactions
	RawEntries  uint64 // log entries before combination
	CombEntries uint64 // log entries after combination
	LogBytes    uint64 // serialized bytes appended to persistent logs
	Durable     uint64
	Reproduced  uint64
	Clock       uint64
	TM          stm.Stats
	Shadow      shadow.Stats
	Device      pmem.Stats
	Persist     StageStats // Persist-stage utilization
	Reproduce   StageStats // Reproduce-stage utilization
	// Obs holds the lifecycle-latency histograms and trace counters
	// (mergeable; interval activity is After.Obs.Sub(Before.Obs)).
	Obs obs.Snapshot
	// Stalls counts watchdog stall episodes.
	Stalls uint64
	// Recovery describes the Recover that produced this mount (Recovered
	// is false on a fresh Create).
	Recovery RecoveryStats
	// Regions breaks device flush/fence/byte traffic down by pool region
	// (header, meta, blackbox, log, data).
	Regions []pmem.RegionStats
	// Repl is the replication quorum gate (Enabled false when the pool
	// is not replicated).
	Repl ReplQuorumStats
}

// Stats returns a snapshot of system activity.
func (s *System) Stats() Stats {
	var logBytes, writes, committed uint64
	for _, w := range s.writers {
		if w != nil {
			logBytes += w.BytesAppended()
		}
	}
	for _, th := range s.threads {
		writes += th.ctr.writes.Load()
		committed += th.ctr.committed.Load()
	}
	return Stats{
		Writes:      writes,
		Committed:   committed,
		RawEntries:  s.rawEntries.Load(),
		CombEntries: s.combEntries.Load(),
		LogBytes:    logBytes,
		Durable:     s.durable.Load(),
		Reproduced:  s.reproduced.Load(),
		Clock:       s.engine.Clock(),
		TM:          s.engine.Stats(),
		Shadow:      s.space.Stats(),
		Device:      s.dev.Stats(),
		Persist:     s.PersistStats(),
		Reproduce:   s.ReproduceStats(),
		Obs:         s.obs.Snapshot(),
		Stalls:      s.stalls.Load(),
		Recovery:    s.recov,
		Regions:     s.dev.RegionStats(),
		Repl:        s.ReplStats(),
	}
}

// TraceOf returns the lifecycle timeline of a sampled transaction from
// its sample row: commit → group-seal → persist-fence →
// reproduce-apply, ordered by timestamp. A transaction whose row a
// later sampled transaction has claimed returns none.
func (s *System) TraceOf(tid uint64) []obs.Record { return s.obs.TraceOf(tid) }

// TraceTail returns the most recent n trace records across the sample
// table (all of them when n <= 0), oldest first.
func (s *System) TraceTail(n int) []obs.Record { return s.obs.TraceTail(n) }

// CritpathOf decomposes a sampled transaction's commit→acknowledged
// window into critical-path segments from its sample row. ok is false
// when the timeline is incomplete (unsampled, its row reused, or the
// transaction has not been quorum-acked yet).
func (s *System) CritpathOf(tid uint64) (obs.Critpath, bool) { return s.obs.CritpathOf(tid) }

// LastStall returns the most recent watchdog stall report, or nil.
func (s *System) LastStall() *StallReport { return s.lastStall.Load() }

// PersistStats returns the Persist stage's utilization snapshot. In
// ModeSync the appends run inline on the Perform threads, so busy time
// is summed across them and Utilization is normalized per thread.
func (s *System) PersistStats() StageStats {
	n := 1
	if s.cfg.Mode == ModeSync {
		n = s.cfg.Threads
	}
	st := s.pm.snapshot(n)
	if rs := s.repl.Load(); rs != nil {
		st.ReplRawBytes, st.ReplWireBytes = rs.sink.ShipStats()
	}
	return st
}

// ReproduceStats returns the Reproduce stage's utilization snapshot.
func (s *System) ReproduceStats() StageStats { return s.rm.snapshot(1) }

// PausePersist freezes the Persist step: transactions keep committing
// but stop becoming durable. It returns only once the step is quiescent
// (the coordinator between passes, so no log append in flight), so a
// Device snapshot taken afterwards is coherent. ResumePersist releases
// it; the step must be resumed before Close.
func (s *System) PausePersist() {
	// The flag is raised before the gate so the watchdog never sees a
	// frozen frontier without the pause that explains it.
	s.persistPaused.Store(true)
	s.persistGate.Lock()
}

// ResumePersist releases PausePersist.
func (s *System) ResumePersist() {
	s.persistGate.Unlock()
	s.persistPaused.Store(false)
}

// PauseReproduce freezes the Reproduce step: transactions become
// durable in the log but are not applied to persistent data. It returns
// only once the step is quiescent (no in-flight replay or recycle).
// ResumeReproduce releases it; the step must be resumed before Close.
func (s *System) PauseReproduce() {
	s.reproPaused.Store(true)
	s.reproduceGate.Lock()
}

// ResumeReproduce releases PauseReproduce.
func (s *System) ResumeReproduce() {
	s.reproduceGate.Unlock()
	s.reproPaused.Store(false)
}

// denseTracker computes the largest ID D such that every ID <= D has
// been marked. Transaction IDs are dense (no-op commits are flushed as
// empty groups), so D is the durable frontier.
type denseTracker struct {
	mu   sync.Mutex
	next uint64
	pend map[uint64]struct{}
}

func (d *denseTracker) mark(tid uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if tid == d.next {
		d.next++
		for {
			if _, ok := d.pend[d.next]; !ok {
				break
			}
			delete(d.pend, d.next)
			d.next++
		}
	} else if tid > d.next {
		d.pend[tid] = struct{}{}
	}
	return d.next - 1
}

// entryPool recycles group entry slices between the Persist and
// Reproduce steps to keep GC pressure off the hot path.
var entryPool = sync.Pool{
	New: func() any {
		s := make([]redolog.Entry, 0, 1024)
		return &s
	},
}

func getEntrySlice() *[]redolog.Entry { return entryPool.Get().(*[]redolog.Entry) }

func putEntrySlice(ep *[]redolog.Entry) {
	if ep != nil {
		entryPool.Put(ep)
	}
}

// Drain blocks until every committed transaction has been persisted,
// reproduced and its log space recycled: the pipeline is idle, with no
// recycle left for the Reproduce timer. Callers must have stopped
// issuing transactions; nothing stops the wait, so the pool must not
// crash or close under it.
func (s *System) Drain() {
	s.recycled.Wait(s.engine.Clock(), nil)
}
