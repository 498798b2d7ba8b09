// Package obs is the low-overhead observability layer of the DudeTM
// pipeline: one table of sample rows that follows each sampled
// transaction through commit, group-seal, persist-fence and
// reproduce-apply (so TraceOf reconstructs the full
// Perform→Persist→Reproduce timeline, and the acked frontier
// decomposes its critical path on the spot), power-of-two-bucket
// latency histograms with mergeable snapshots, and a Prometheus
// text-format renderer for live scraping.
//
// The package deliberately knows nothing about the transaction system:
// dudetm calls the stamp hooks at its lifecycle points and obs only
// records. Per-transaction work (trace stamps, commit→durable latency
// tracking) is sampled 1-in-N and costs a single comparison when
// sampling is disabled; per-group work (fence duration, group size) is
// a few atomic adds and is always on.
package obs

import (
	"slices"
	"sync/atomic"
	"time"
)

// Config tunes an Observer.
type Config struct {
	// SampleEvery enables lifecycle tracing for every N-th transaction
	// ID (1 traces everything, 0 disables tracing and per-transaction
	// latency sampling entirely).
	SampleEvery int
}

// Observer records lifecycle traces and latency histograms for one
// system instance. All methods are safe for concurrent use.
//
// A sampled transaction's whole trace lives in one sample row. The row
// belongs to the transaction from its first stamp on this node (Commit
// on a primary, GroupIngested on a replica) until the durable,
// reproduced and acked frontier hooks have all passed it; every stamp
// takes the row's lock. A sampled transaction whose row is still held
// by an earlier one is dropped and counted (CritSnapshot.Dropped), so
// the latency histograms see exactly the transactions SampledCommits
// counts. A released row keeps its trace until the next owner claims
// it, which is what TraceOf reads.
type Observer struct {
	sampleEvery uint64
	epoch       time.Time

	// rows is the sample table, nil when tracing is off.
	rows []sampleRow
	// Frontier cursors: each frontier hook has passed every sampled
	// transaction at or below its cursor. Concurrent callers (ModeSync
	// publishes frontiers from every Perform thread) split the range by
	// CAS, so each transaction is passed once.
	durableCur, reproducedCur, ackedCur atomic.Uint64

	// crit is the critical-path aggregate (critpath.go).
	crit critState

	// Histograms. Latencies are nanoseconds.
	commitDurable Histogram // commit → durable-frontier pass (sampled)
	commitRepro   Histogram // commit → reproduced-frontier pass (sampled)
	fenceDur      Histogram // log append + persist barrier duration, per group
	groupTxns     Histogram // transactions per sealed group
	groupEntries  Histogram // combined log entries per sealed group
	epochGroups   Histogram // groups per replay epoch
	epochEntries  Histogram // entries replayed per replay epoch

	sampledCommits atomic.Uint64
}

// New builds an Observer.
func New(cfg Config) *Observer { return newObserver(cfg, traceRows) }

func newObserver(cfg Config, rows int) *Observer {
	o := &Observer{sampleEvery: uint64(max(cfg.SampleEvery, 0)), epoch: time.Now()}
	if o.sampleEvery != 0 {
		o.rows = make([]sampleRow, rows)
	}
	return o
}

// Now returns nanoseconds since the observer's epoch on the monotonic
// clock — the timestamp base of every trace record.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) Now() int64 { return int64(time.Since(o.epoch)) }

// Sampled reports whether transaction tid is traced.
func (o *Observer) Sampled(tid uint64) bool {
	n := o.sampleEvery
	return n != 0 && tid%n == 0
}

// rangeSampled reports whether any transaction in [minTid, maxTid] is
// traced (i.e. the range contains a multiple of the sampling period).
func (o *Observer) rangeSampled(minTid, maxTid uint64) bool {
	n := o.sampleEvery
	return n != 0 && maxTid/n*n >= minTid
}

// row returns sampled transaction tid's row.
//
//dudelint:noalloc
func (o *Observer) row(tid uint64) *sampleRow {
	return &o.rows[tid/o.sampleEvery%uint64(len(o.rows))]
}

// sampledIn returns the first and last sampled IDs of [minTid, maxTid]
// whose rows a range stamp must visit: every sampled ID of the range,
// or only the last len(rows) of them when the range is longer, which
// still visits every row once. ok is false when none is sampled.
//
//dudelint:noalloc
func (o *Observer) sampledIn(minTid, maxTid uint64) (first, last uint64, ok bool) {
	n := o.sampleEvery
	minTid = max(minTid, 1) // tid 0 is never assigned
	if n == 0 || maxTid/n*n < minTid {
		return 0, 0, false
	}
	first, last = (minTid+n-1)/n*n, maxTid/n*n
	if span := uint64(len(o.rows)-1) * n; last-first > span {
		first = last - span
	}
	return first, last, true
}

// Commit stamps a committed write transaction and claims its sample
// row. Call it on the committing thread before the transaction is
// published to the Persist step, so the commit stamp orders before
// every downstream stamp of the same transaction. When the transaction
// is not sampled this is a single comparison.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) Commit(tid uint64) {
	if !o.Sampled(tid) {
		return
	}
	if o.claim(tid, EvCommit, tid, tid, o.Now()) {
		o.sampledCommits.Add(1)
	}
}

// claim hands sampled transaction t's row to t, forgetting the previous
// owner's trace, and stamps t's first event on this node; while the row
// is still held it counts t dropped and returns false instead.
//
//dudelint:noalloc
func (o *Observer) claim(t uint64, kind EventKind, minTid, maxTid uint64, at int64) bool {
	r := o.row(t)
	r.mu.Lock()
	held := r.s.held()
	if held {
		o.crit.dropped.Add(1)
	} else {
		r.s = rowState{tid: t, peers: r.s.peers}
		clear(r.s.peers)
		r.s.stamp(kind, minTid, maxTid, at, 0, 0)
	}
	r.mu.Unlock()
	return !held
}

// stampGroup stamps kind on the row of every sampled transaction of the
// group [minTid, maxTid] that owns its row.
//
//dudelint:noalloc
func (o *Observer) stampGroup(kind EventKind, minTid, maxTid uint64, at int64, peer int, dur int64) {
	first, last, ok := o.sampledIn(minTid, maxTid)
	for t := first; ok && t <= last; t += o.sampleEvery {
		r := o.row(t)
		r.mu.Lock()
		if r.s.tid >= minTid && r.s.tid <= maxTid {
			r.s.stamp(kind, minTid, maxTid, at, peer, dur)
		}
		r.mu.Unlock()
	}
}

// GroupSealed stamps a sealed persist group covering [minTid, maxTid]
// with txns transactions and entries combined log entries.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupSealed(minTid, maxTid uint64, txns, entries int) {
	o.groupTxns.Observe(uint64(txns))
	o.groupEntries.Observe(uint64(entries))
	if o.rangeSampled(minTid, maxTid) {
		o.stampGroup(EvGroupSeal, minTid, maxTid, o.Now(), 0, 0)
	}
}

// GroupIngested is GroupSealed for a group a replica received to
// ingest: the replica never saw the group's commits, so this seal is
// the first stamp its sampled transactions get on this node, and it
// claims their rows.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupIngested(minTid, maxTid uint64, entries int) {
	o.groupTxns.Observe(maxTid - minTid + 1)
	o.groupEntries.Observe(uint64(entries))
	first, last, ok := o.sampledIn(minTid, maxTid)
	if !ok {
		return
	}
	at := o.Now()
	for t := first; t <= last; t += o.sampleEvery {
		o.claim(t, EvGroupSeal, minTid, maxTid, at)
	}
}

// GroupPersisted stamps a group's completed log append and persist
// barrier; startAt/endAt bound the append (the fence duration).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupPersisted(minTid, maxTid uint64, startAt, endAt int64) {
	o.fenceDur.ObserveSince(startAt, endAt)
	if o.rangeSampled(minTid, maxTid) {
		o.stampGroup(EvPersistFence, minTid, maxTid, endAt, 0, endAt-startAt)
	}
}

// GroupApplied stamps a group's Reproduce application to the
// persistent data region.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupApplied(minTid, maxTid uint64) {
	if o.rangeSampled(minTid, maxTid) {
		o.stampGroup(EvReproApply, minTid, maxTid, o.Now(), 0, 0)
	}
}

// EpochReplayed records one replay epoch: the groups replayed under one
// fence and the entries they stored. The Reproduce loop calls it once
// per epoch of two or more groups, after the epoch fence.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) EpochReplayed(groups, entries int) {
	o.epochGroups.Observe(uint64(groups))
	o.epochEntries.Observe(uint64(entries))
}

// ReplShipped stamps a sealed group's handoff to the replication sink
// (frame build + per-peer enqueue done).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReplShipped(minTid, maxTid uint64) {
	if o.rangeSampled(minTid, maxTid) {
		o.stampGroup(EvReplShip, minTid, maxTid, o.Now(), 0, 0)
	}
}

// ReplSent stamps a group's frame fully written to peer's socket.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReplSent(minTid, maxTid uint64, peer int) {
	if o.rangeSampled(minTid, maxTid) {
		o.stampGroup(EvReplSent, minTid, maxTid, o.Now(), peer, 0)
	}
}

// ReplicaFenced stamps a replica's acknowledgment of a group: the
// replica appended and fenced it into its local log, self-measuring
// ingestNanos for the append+barrier. The stamp's At is the ack's
// arrival on the primary's clock; the replica's span is anchored
// backward from it (clocks are never compared across nodes).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReplicaFenced(minTid, maxTid uint64, peer int, ingestNanos int64) {
	if o.rangeSampled(minTid, maxTid) {
		o.stampGroup(EvReplicaFence, minTid, maxTid, o.Now(), peer, ingestNanos)
	}
}

// SetReplication sizes every row's per-peer stamps for peers
// replication peers and sets the write quorum the critical-path
// decomposition waits for (0 = unreplicated).
func (o *Observer) SetReplication(peers, quorum int) {
	o.crit.quorum.Store(int64(max(quorum, 0)))
	if len(o.rows) == 0 || peers <= 0 {
		return
	}
	slab := make([][2]Record, len(o.rows)*peers)
	for i := range o.rows {
		r := &o.rows[i]
		r.mu.Lock()
		r.s.peers = slab[i*peers : (i+1)*peers : (i+1)*peers]
		r.mu.Unlock()
	}
}

// advance moves cur to frontier and returns the first ID of the range
// this caller now owns, (old cursor, frontier]. ok is false when the
// cursor is already there or the range holds no sampled ID (the cursor
// then stays: the next caller's range takes the empty stretch along).
//
//dudelint:noalloc
func (o *Observer) advance(cur *atomic.Uint64, frontier uint64) (from uint64, ok bool) {
	for {
		c := cur.Load()
		if frontier <= c || !o.rangeSampled(c+1, frontier) {
			return 0, false
		}
		if cur.CompareAndSwap(c, frontier) {
			return c + 1, true
		}
	}
}

// pass runs frontier hook `hook` over every owned row of [from, to]:
// the latency histograms on the durable and reproduced passes, the
// acked stamp and the critical-path decomposition on the acked pass.
// The hook that completes the set releases the row.
//
//dudelint:noalloc
func (o *Observer) pass(hook uint8, from, to uint64) {
	now := o.Now()
	quorum := int(o.crit.quorum.Load())
	first, last, ok := o.sampledIn(from, to)
	for t := first; ok && t <= last; t += o.sampleEvery {
		r := o.row(t)
		r.mu.Lock()
		s := &r.s
		if s.tid >= from && s.tid <= to && s.passed&hook == 0 {
			s.passed |= hook
			committed := s.stamps[EvCommit].Kind != 0
			switch {
			case hook == passedAcked:
				s.stamp(EvAcked, s.tid, s.tid, now, 0, 0)
				if committed {
					o.crit.fold(s.critpath(quorum))
				}
			case !committed:
			case hook == passedDurable:
				o.commitDurable.ObserveSince(s.stamps[EvCommit].At, now)
			case hook == passedReproduced:
				o.commitRepro.ObserveSince(s.stamps[EvCommit].At, now)
			}
		}
		r.mu.Unlock()
	}
}

// DurableAdvanced records commit→durable latency for every sampled
// transaction the new durable frontier passes.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) DurableAdvanced(frontier uint64) {
	if from, ok := o.advance(&o.durableCur, frontier); ok {
		o.pass(passedDurable, from, frontier)
	}
}

// ReproducedAdvanced records commit→reproduced latency for every
// sampled transaction the new reproduced frontier passes.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReproducedAdvanced(frontier uint64) {
	if from, ok := o.advance(&o.reproducedCur, frontier); ok {
		o.pass(passedReproduced, from, frontier)
	}
}

// AckedAdvanced stamps the acknowledged-frontier pass (EvAcked) for
// every sampled transaction the new acked frontier passes and folds
// its critical-path decomposition into the aggregate. On an
// unreplicated system the acked frontier is the durable frontier and
// the decomposition simply has empty replication segments.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) AckedAdvanced(frontier uint64) {
	if from, ok := o.advance(&o.ackedCur, frontier); ok {
		o.pass(passedAcked, from, frontier)
	}
}

// TraceOf returns the lifecycle timeline of transaction tid from its
// sample row, ordered by timestamp: commit → group-seal →
// persist-fence → reproduce-apply, plus the replication and acked
// stamps. An unsampled transaction, or one whose row a later
// transaction has claimed, has none. Tid 0 is never assigned and has
// none.
func (o *Observer) TraceOf(tid uint64) []Record {
	if tid == 0 || !o.Sampled(tid) {
		return nil
	}
	r := o.row(tid)
	r.mu.Lock()
	var recs []Record
	if r.s.tid == tid {
		recs = r.s.records(nil)
	}
	r.mu.Unlock()
	sortRecords(recs)
	return recs
}

// TraceTail returns the most recent n records across the sample table
// (all of them when n <= 0), newest last — the watchdog's diagnostic
// dump. A group record shared by several sampled transactions is
// listed once.
func (o *Observer) TraceTail(n int) []Record {
	var recs []Record
	for i := range o.rows {
		r := &o.rows[i]
		r.mu.Lock()
		if r.s.tid != 0 {
			recs = r.s.records(recs)
		}
		r.mu.Unlock()
	}
	sortRecords(recs)
	recs = slices.Compact(recs)
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// Snapshot is a mergeable point-in-time view of every histogram and
// counter. Interval activity between two snapshots is After.Sub(Before).
type Snapshot struct {
	// SampleEvery echoes the sampling configuration (0 = tracing off).
	SampleEvery int
	// SampledCommits counts commit stamps taken so far.
	SampledCommits uint64
	// CommitDurable is the commit→durable latency histogram (ns,
	// sampled transactions).
	CommitDurable HistSnapshot
	// CommitReproduced is the commit→reproduced latency histogram (ns,
	// sampled transactions).
	CommitReproduced HistSnapshot
	// Fence is the per-group log-append + persist-barrier duration
	// histogram (ns).
	Fence HistSnapshot
	// GroupTxns is the transactions-per-sealed-group histogram.
	GroupTxns HistSnapshot
	// GroupEntries is the combined-entries-per-sealed-group histogram.
	GroupEntries HistSnapshot
	// EpochGroups is the groups-per-replay-epoch histogram (empty
	// while Reproduce keeps up and never forms epochs).
	EpochGroups HistSnapshot
	// EpochEntries is the entries-replayed-per-epoch histogram.
	EpochEntries HistSnapshot
	// Crit is the critical-path decomposition aggregate (critpath.go).
	Crit CritSnapshot
}

// Snapshot captures the current histograms and counters.
func (o *Observer) Snapshot() Snapshot {
	return Snapshot{
		SampleEvery:      int(o.sampleEvery),
		SampledCommits:   o.sampledCommits.Load(),
		CommitDurable:    o.commitDurable.Snapshot(),
		CommitReproduced: o.commitRepro.Snapshot(),
		Fence:            o.fenceDur.Snapshot(),
		GroupTxns:        o.groupTxns.Snapshot(),
		GroupEntries:     o.groupEntries.Snapshot(),
		EpochGroups:      o.epochGroups.Snapshot(),
		EpochEntries:     o.epochEntries.Snapshot(),
		Crit:             o.crit.snapshot(),
	}
}

// Sub returns the interval snapshot between an earlier snapshot b and s.
func (s Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		SampleEvery:      s.SampleEvery,
		SampledCommits:   s.SampledCommits - b.SampledCommits,
		CommitDurable:    s.CommitDurable.Sub(b.CommitDurable),
		CommitReproduced: s.CommitReproduced.Sub(b.CommitReproduced),
		Fence:            s.Fence.Sub(b.Fence),
		GroupTxns:        s.GroupTxns.Sub(b.GroupTxns),
		GroupEntries:     s.GroupEntries.Sub(b.GroupEntries),
		EpochGroups:      s.EpochGroups.Sub(b.EpochGroups),
		EpochEntries:     s.EpochEntries.Sub(b.EpochEntries),
		Crit:             s.Crit.Sub(b.Crit),
	}
}
