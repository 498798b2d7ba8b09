// Package obs is the low-overhead observability layer of the DudeTM
// pipeline: per-source lock-free trace rings that stamp each sampled
// transaction at commit, group-seal, persist-fence and reproduce-apply
// (so TraceOf reconstructs the full Perform→Persist→Reproduce
// timeline), power-of-two-bucket latency histograms with mergeable
// snapshots, and a Prometheus text-format renderer for live scraping.
//
// The package deliberately knows nothing about the transaction system:
// dudetm calls the stamp hooks at its lifecycle points and obs only
// records. Per-transaction work (trace stamps, commit→durable latency
// tracking) is sampled 1-in-N and costs a single comparison when
// sampling is disabled; per-group work (fence duration, group size,
// queue dwell) is a few atomic adds and is always on.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes an Observer.
type Config struct {
	// SampleEvery enables lifecycle tracing for every N-th transaction
	// ID (1 traces everything, 0 disables tracing and per-transaction
	// latency sampling entirely).
	SampleEvery int
	// Sources is the number of single-writer event sources (one trace
	// ring each): Perform threads, the Persist coordinator and workers,
	// and the Reproduce loop.
	Sources int
	// RingEntries is the per-source trace-ring capacity (default 4096,
	// rounded up to a power of two).
	RingEntries int
}

// Observer records lifecycle traces and latency histograms for one
// system instance. All methods are safe for concurrent use; each trace
// ring additionally requires a single writer (the source goroutine it
// belongs to) — except the two replication rings, which are written by
// several goroutines (per-peer sender loops, the acked-frontier
// publishers) and are serialized by a dedicated mutex each (replMu for
// the ship/sent/replica-fence ring, mu for the acked ring, stamped only
// inside the pendAck drain). One lock domain per ring: two independent
// locks writing one ring would tear its position counter.
type Observer struct {
	sampleEvery uint64
	epoch       time.Time
	rings       []*traceRing

	// replMu serializes the multi-writer replication trace ring
	// (EvReplShip from the coordinator, EvReplSent / EvReplicaFence
	// from per-peer sender goroutines).
	replMu sync.Mutex

	// crit is the critical-path collector (critpath.go): completed
	// sampled transactions are decomposed off the hot path by a
	// background goroutine fed through a non-blocking channel.
	crit critState

	// Histograms. Latencies are nanoseconds.
	commitDurable Histogram // commit → durable-frontier pass (sampled)
	commitRepro   Histogram // commit → reproduced-frontier pass (sampled)
	fenceDur      Histogram // log append + persist barrier duration, per group
	queueDwell    Histogram // group seal → persist-worker pickup, per group
	groupTxns     Histogram // transactions per sealed group
	groupEntries  Histogram // combined log entries per sealed group
	epochGroups   Histogram // groups per coalesced replay epoch
	epochEntries  Histogram // entries surviving coalescing per replay epoch

	sampledCommits atomic.Uint64

	// Sampled commits whose durability / reproduction latency is still
	// pending. pendN gates the frontier-advance hooks so an advance
	// with nothing pending costs one atomic load.
	mu        sync.Mutex
	pendDur   []pendTx
	pendRepro []pendTx
	pendAck   []pendTx
	pendN     atomic.Int64
}

type pendTx struct {
	tid uint64
	at  int64
}

// New builds an Observer. cfg.Sources must cover every source index
// the stamp hooks will be called with.
func New(cfg Config) *Observer {
	if cfg.RingEntries <= 0 {
		cfg.RingEntries = 4096
	}
	if cfg.Sources <= 0 {
		cfg.Sources = 1
	}
	o := &Observer{
		sampleEvery: uint64(max(cfg.SampleEvery, 0)),
		epoch:       time.Now(),
		rings:       make([]*traceRing, cfg.Sources),
	}
	for i := range o.rings {
		o.rings[i] = newTraceRing(cfg.RingEntries)
	}
	if o.sampleEvery != 0 {
		o.startCollector()
	}
	return o
}

// Close stops the critical-path collector after draining it. Call it
// once the stamp sources have quiesced (e.g. after the pipeline's
// goroutines joined); safe to call more than once.
func (o *Observer) Close() { o.crit.close() }

// Now returns nanoseconds since the observer's epoch on the monotonic
// clock — the timestamp base of every trace record.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) Now() int64 { return int64(time.Since(o.epoch)) }

// SampleEvery returns the configured sampling period (0 = disabled).
func (o *Observer) SampleEvery() int { return int(o.sampleEvery) }

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

// Commit stamps a committed write transaction. Call it on the
// committing thread before the transaction is published to the Persist
// step, so the commit stamp orders before every downstream stamp of
// the same transaction. When the transaction is not sampled this is a
// single comparison and no allocation (the sampled slow path may grow
// the pending slices, so the zero-alloc claim stops there).
//
//dudelint:fencebudget 0
func (o *Observer) Commit(src int, tid uint64) {
	if !o.Sampled(tid) {
		return
	}
	at := o.Now()
	o.rings[src].put(EvCommit, tid, tid, at, 0, 0)
	o.sampledCommits.Add(1)
	// The pending count is raised before the entries are visible, so a
	// racing frontier advance can at worst take the mutex and find
	// nothing — it can never miss a pending entry for good.
	o.pendN.Add(3)
	o.mu.Lock()
	o.pendDur = append(o.pendDur, pendTx{tid: tid, at: at})
	o.pendRepro = append(o.pendRepro, pendTx{tid: tid, at: at})
	o.pendAck = append(o.pendAck, pendTx{tid: tid, at: at})
	o.mu.Unlock()
}

// GroupSealed stamps a sealed persist group covering [minTid, maxTid]
// with txns transactions and entries combined log entries, and returns
// the seal timestamp (for the queue-dwell measurement at pickup).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupSealed(src int, minTid, maxTid uint64, txns, entries int) int64 {
	o.groupTxns.Observe(uint64(txns))
	o.groupEntries.Observe(uint64(entries))
	at := o.Now()
	if o.rangeSampled(minTid, maxTid) {
		o.rings[src].put(EvGroupSeal, minTid, maxTid, at, 0, 0)
	}
	return at
}

// GroupPersisted stamps a group's completed log append and persist
// barrier: startAt/endAt bound the append (fence duration), sealAt is
// GroupSealed's return value (queue dwell = startAt-sealAt; pass 0
// when the group was never queued, e.g. the synchronous commit path).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupPersisted(src int, minTid, maxTid uint64, sealAt, startAt, endAt int64) {
	if d := endAt - startAt; d > 0 {
		o.fenceDur.Observe(uint64(d))
	} else {
		o.fenceDur.Observe(0)
	}
	if sealAt > 0 {
		if d := startAt - sealAt; d > 0 {
			o.queueDwell.Observe(uint64(d))
		} else {
			o.queueDwell.Observe(0)
		}
	}
	if o.rangeSampled(minTid, maxTid) {
		d := endAt - startAt
		if d < 0 {
			d = 0
		}
		o.rings[src].put(EvPersistFence, minTid, maxTid, endAt, 0, d)
	}
}

// GroupApplied stamps a group's Reproduce application to the
// persistent data region.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) GroupApplied(src int, minTid, maxTid uint64) {
	if o.rangeSampled(minTid, maxTid) {
		o.rings[src].put(EvReproApply, minTid, maxTid, o.Now(), 0, 0)
	}
}

// EpochCoalesced records one coalesced replay epoch: the groups merged
// and the entries that survived last-writer-wins coalescing (the raw
// entering count lives in the stage counters, where the ratio is
// computed). The Reproduce loop calls it once per epoch, after the
// epoch fence.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) EpochCoalesced(groups, combEntries int) {
	o.epochGroups.Observe(uint64(groups))
	o.epochEntries.Observe(uint64(combEntries))
}

// ReplShipped stamps a sealed group's handoff to the replication sink
// (frame build + per-peer enqueue done). src is the shared replication
// trace ring; the stamp is serialized with the per-peer sender stamps
// by replMu.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReplShipped(src int, minTid, maxTid uint64) {
	if !o.rangeSampled(minTid, maxTid) {
		return
	}
	o.replMu.Lock()
	o.rings[src].put(EvReplShip, minTid, maxTid, o.Now(), 0, 0)
	o.replMu.Unlock()
}

// ReplSent stamps a group's frame fully written to peer's socket.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReplSent(src int, minTid, maxTid uint64, peer int) {
	if !o.rangeSampled(minTid, maxTid) {
		return
	}
	o.replMu.Lock()
	o.rings[src].put(EvReplSent, minTid, maxTid, o.Now(), uint64(peer), 0)
	o.replMu.Unlock()
}

// ReplicaFenced stamps a replica's acknowledgment of a group: the
// replica appended and fenced it into its local log, self-measuring
// ingestNanos for the append+barrier. The stamp's At is the ack's
// arrival on the primary's clock; the replica's span is anchored
// backward from it (clocks are never compared across nodes).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (o *Observer) ReplicaFenced(src int, minTid, maxTid uint64, peer int, ingestNanos int64) {
	if !o.rangeSampled(minTid, maxTid) {
		return
	}
	if ingestNanos < 0 {
		ingestNanos = 0
	}
	o.replMu.Lock()
	o.rings[src].put(EvReplicaFence, minTid, maxTid, o.Now(), uint64(peer), ingestNanos)
	o.replMu.Unlock()
}

// AckedAdvanced stamps the acknowledged-frontier pass for every pending
// sampled transaction the new acked frontier covers (EvAcked into the
// src ring, written only here under mu) and hands each completed
// transaction to the critical-path collector. On an unreplicated
// system the acked frontier is the durable frontier and the
// decomposition simply has empty replication segments.
//
//dudelint:fencebudget 0
func (o *Observer) AckedAdvanced(src int, frontier uint64) {
	if o.pendN.Load() == 0 {
		return
	}
	now := o.Now()
	o.mu.Lock()
	kept := o.pendAck[:0]
	done := 0
	for _, p := range o.pendAck {
		if p.tid <= frontier {
			o.rings[src].put(EvAcked, p.tid, p.tid, now, 0, 0)
			o.crit.offer(p.tid)
			done++
		} else {
			kept = append(kept, p)
		}
	}
	o.pendAck = kept
	o.mu.Unlock()
	if done > 0 {
		o.pendN.Add(-int64(done))
	}
}

// DurableAdvanced records commit→durable latency for every pending
// sampled transaction the new durable frontier covers.
//
//dudelint:fencebudget 0
func (o *Observer) DurableAdvanced(frontier uint64) {
	if o.pendN.Load() == 0 {
		return
	}
	o.drain(&o.pendDur, frontier, &o.commitDurable)
}

// ReproducedAdvanced records commit→reproduced latency for every
// pending sampled transaction the new reproduced frontier covers.
//
//dudelint:fencebudget 0
func (o *Observer) ReproducedAdvanced(frontier uint64) {
	if o.pendN.Load() == 0 {
		return
	}
	o.drain(&o.pendRepro, frontier, &o.commitRepro)
}

func (o *Observer) drain(pend *[]pendTx, frontier uint64, h *Histogram) {
	now := o.Now()
	o.mu.Lock()
	kept := (*pend)[:0]
	done := 0
	for _, p := range *pend {
		if p.tid <= frontier {
			if d := now - p.at; d > 0 {
				h.Observe(uint64(d))
			} else {
				h.Observe(0)
			}
			done++
		} else {
			kept = append(kept, p)
		}
	}
	*pend = kept
	o.mu.Unlock()
	if done > 0 {
		o.pendN.Add(-int64(done))
	}
}

// TraceOf reconstructs the lifecycle timeline of transaction tid from
// every source's trace ring: all stable records whose ID range covers
// tid, ordered by timestamp. For a sampled transaction still resident
// in the rings this is commit → group-seal → persist-fence →
// reproduce-apply; older transactions may have been overwritten and
// return a partial (or empty) timeline. Tid 0 is never assigned and
// has none.
func (o *Observer) TraceOf(tid uint64) []Record {
	if tid == 0 {
		return nil // collect reads 0 as "every record"
	}
	var recs []Record
	for _, r := range o.rings {
		recs = r.collect(recs, tid)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	return recs
}

// TraceTail returns the most recent n stable records across all rings
// (all of them when n <= 0), newest last — the watchdog's diagnostic
// dump.
func (o *Observer) TraceTail(n int) []Record {
	var recs []Record
	for _, r := range o.rings {
		recs = r.collect(recs, 0)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
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
	// QueueDwell is the per-group seal→pickup dwell histogram (ns).
	QueueDwell HistSnapshot
	// GroupTxns is the transactions-per-sealed-group histogram.
	GroupTxns HistSnapshot
	// GroupEntries is the combined-entries-per-sealed-group histogram.
	GroupEntries HistSnapshot
	// EpochGroups is the groups-per-coalesced-replay-epoch histogram
	// (empty while Reproduce keeps up and never forms epochs).
	EpochGroups HistSnapshot
	// EpochEntries is the coalesced-entries-per-replay-epoch histogram.
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
		QueueDwell:       o.queueDwell.Snapshot(),
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
		QueueDwell:       s.QueueDwell.Sub(b.QueueDwell),
		GroupTxns:        s.GroupTxns.Sub(b.GroupTxns),
		GroupEntries:     s.GroupEntries.Sub(b.GroupEntries),
		EpochGroups:      s.EpochGroups.Sub(b.EpochGroups),
		EpochEntries:     s.EpochEntries.Sub(b.EpochEntries),
		Crit:             s.Crit.Sub(b.Crit),
	}
}

// Merge returns the union of two snapshots (e.g. from sharded
// observers).
func (s Snapshot) Merge(b Snapshot) Snapshot {
	return Snapshot{
		SampleEvery:      s.SampleEvery,
		SampledCommits:   s.SampledCommits + b.SampledCommits,
		CommitDurable:    s.CommitDurable.Merge(b.CommitDurable),
		CommitReproduced: s.CommitReproduced.Merge(b.CommitReproduced),
		Fence:            s.Fence.Merge(b.Fence),
		QueueDwell:       s.QueueDwell.Merge(b.QueueDwell),
		GroupTxns:        s.GroupTxns.Merge(b.GroupTxns),
		GroupEntries:     s.GroupEntries.Merge(b.GroupEntries),
		EpochGroups:      s.EpochGroups.Merge(b.EpochGroups),
		EpochEntries:     s.EpochEntries.Merge(b.EpochEntries),
		Crit:             s.Crit.Merge(b.Crit),
	}
}
