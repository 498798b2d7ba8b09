package obs

import (
	"sync"
	"sync/atomic"
)

// Critical-path decomposition: for each completed sampled transaction,
// split the commit→acknowledged window into named segments whose sum
// reconciles exactly with the measured end-to-end latency, and
// aggregate per-segment time-on-critical-path into histograms.
//
// The decomposition is a tiling, not a sum of independent timers: each
// boundary is taken from a trace stamp and clamped monotonically into
// [commit, acked], so overlapping or skewed stamps shift time between
// adjacent segments instead of breaking the identity
//
//	ring_dwell + seal_wait + persist_fence + repl_ship + quorum_wait + notify == acked - commit
//
// There is no "STM commit" segment: the commit stamp is the origin of
// the measured window (it is taken on the committing thread before the
// transaction is published to Persist), so STM execution time lies
// before the window and is visible in the commit-rate metrics instead.
//
// Replica boundaries cross clocks: a replica's timestamps are never
// compared against the primary's. The enriched replication ack carries
// the replica's self-measured ingest (append+fence) duration, which is
// clock-free; the primary anchors the replica's fence span at the
// ack's arrival time on its own clock and extends it backward by that
// duration. Network asymmetry therefore lands in repl_ship (primary
// fence end → quorum-th replica's ingest start), which is exactly the
// shipping + queueing component an operator can act on.

// CritSegment names one segment of the commit→acked critical path.
type CritSegment int

// The segments, in pipeline order.
const (
	// SegRingDwell: commit stamp → group seal (the transaction sat in
	// its thread's volatile ring waiting for the coordinator).
	SegRingDwell CritSegment = iota
	// SegSealWait: group seal → persist-fence start (the log append up
	// to the barrier).
	SegSealWait
	// SegPersistFence: the primary's log persist barrier itself.
	SegPersistFence
	// SegReplShip: primary fence end → the quorum-th replica's ingest
	// start (frame build, per-peer queueing, the wire, and the
	// replica's receive path). Zero when unreplicated.
	SegReplShip
	// SegQuorumWait: the quorum-th replica's ingest span, anchored at
	// its ack's arrival on the primary. Zero when unreplicated.
	SegQuorumWait
	// SegNotify: quorum reached → the acked frontier actually passing
	// the transaction (frontier publication and notifier dispatch).
	SegNotify

	// NumCritSegments is the segment count (array sizing).
	NumCritSegments
)

// String returns the segment's metric-label name.
func (s CritSegment) String() string {
	switch s {
	case SegRingDwell:
		return "ring_dwell"
	case SegSealWait:
		return "seal_wait"
	case SegPersistFence:
		return "persist_fence"
	case SegReplShip:
		return "repl_ship"
	case SegQuorumWait:
		return "quorum_wait"
	case SegNotify:
		return "notify"
	}
	return "unknown"
}

// Critpath is one transaction's critical-path decomposition. All times
// are nanoseconds on the primary's monotonic clock (observer epoch).
type Critpath struct {
	Tid    uint64
	Commit int64 // EvCommit stamp (window origin)
	Acked  int64 // EvAcked stamp (window end)
	Total  int64 // Acked - Commit == sum of Seg
	// Seg is the per-segment time on the critical path; the entries
	// always sum to Total exactly.
	Seg [NumCritSegments]int64
	// Quorum echoes the quorum the decomposition used (0 when
	// unreplicated).
	Quorum int
	// Replicated reports whether replica fences fed the decomposition
	// (Seg[SegReplShip] and Seg[SegQuorumWait] are meaningful).
	Replicated bool
}

// DecomposeCritpath builds the decomposition of transaction tid from
// its trace records (TraceOf output: every stamp whose ID range covers
// tid). quorum is the replication write quorum (0 = unreplicated; the
// repl segments collapse to zero). Returns ok=false when the timeline
// is incomplete — a required stamp is missing, or fewer than quorum
// replica fences arrived — so the caller can count the miss instead of
// skewing the aggregate.
func DecomposeCritpath(tid uint64, recs []Record, quorum int) (Critpath, bool) {
	// The earliest stamp of each kind, and one peer slot per replica
	// fence, form a row.
	s := rowState{tid: tid}
	for _, r := range recs {
		switch {
		case tid < r.MinTid || tid > r.MaxTid:
		case r.Kind == EvReplicaFence:
			s.peers = append(s.peers, [2]Record{1: r})
		case r.Kind <= EvAcked && (s.stamps[r.Kind].Kind == 0 || r.At < s.stamps[r.Kind].At):
			s.stamps[r.Kind] = r
		}
	}
	return s.critpath(quorum)
}

// tile fills cp's segments from the window's boundary stamps: the
// commit and acked stamps, the group seal, the persist fence ending at
// fenceEnd after fenceDur and, when cp.Quorum > 0, the quorum-th
// replica's fence arriving at qAt after qDur. Each boundary is clamped
// into [commit, acked] after the one before it, so the segments sum to
// acked - commit. It returns false when acked precedes commit.
//
//dudelint:noalloc
func tile(cp *Critpath, commit, seal, fenceEnd, fenceDur, qAt, qDur, acked int64) bool {
	if acked < commit {
		return false
	}
	a := acked
	t0 := commit
	t1 := clampTo(seal, t0, a)
	t2 := clampTo(fenceEnd-fenceDur, t1, a)
	t3 := clampTo(fenceEnd, t2, a)
	t4, t5 := t3, t3
	if cp.Quorum > 0 {
		t4 = clampTo(qAt-qDur, t3, a)
		t5 = clampTo(qAt, t4, a)
		cp.Replicated = true
	}
	cp.Commit, cp.Acked, cp.Total = t0, a, a-t0
	cp.Seg[SegRingDwell] = t1 - t0
	cp.Seg[SegSealWait] = t2 - t1
	cp.Seg[SegPersistFence] = t3 - t2
	cp.Seg[SegReplShip] = t4 - t3
	cp.Seg[SegQuorumWait] = t5 - t4
	cp.Seg[SegNotify] = a - t5
	return true
}

// clampTo returns x clamped into [lo, hi].
func clampTo(x, lo, hi int64) int64 {
	return min(max(x, lo), hi)
}

// critState is the Observer's critical-path aggregate: the acked
// frontier hook decomposes each sampled transaction from its row as
// the frontier passes it and folds the segments in here.
type critState struct {
	quorum atomic.Int64

	// mu makes each fold of txns, e2e and seg atomic to snapshot, so
	// a scrape never reads an e2e count that disagrees with txns or
	// segment sums from a larger population than e2e.
	mu         sync.Mutex
	txns       atomic.Uint64 // decomposed transactions
	incomplete atomic.Uint64 // timelines missing a required stamp
	dropped    atomic.Uint64 // sampled transactions whose row was held
	e2e        Histogram     // commit→acked (ns), decomposed txns only
	seg        [NumCritSegments]Histogram
}

// fold adds one decomposition to the aggregate, or counts the miss.
//
//dudelint:noalloc
func (c *critState) fold(cp Critpath, ok bool) {
	if !ok {
		c.incomplete.Add(1)
		return
	}
	c.mu.Lock()
	c.txns.Add(1)
	c.e2e.Observe(uint64(cp.Total))
	for i, d := range cp.Seg {
		c.seg[i].Observe(uint64(d))
	}
	c.mu.Unlock()
}

func (c *critState) snapshot() CritSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CritSnapshot{
		Txns:       c.txns.Load(),
		Incomplete: c.incomplete.Load(),
		Dropped:    c.dropped.Load(),
		E2E:        c.e2e.Snapshot(),
	}
	for i := range c.seg {
		s.Segments[i] = c.seg[i].Snapshot()
	}
	return s
}

// CritpathOf decomposes transaction tid from its sample row with the
// configured quorum — the debug-endpoint view of one transaction.
func (o *Observer) CritpathOf(tid uint64) (Critpath, bool) {
	quorum := int(o.crit.quorum.Load())
	if tid == 0 || !o.Sampled(tid) {
		return Critpath{Tid: tid, Quorum: quorum}, false
	}
	r := o.row(tid)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.s.tid != tid {
		return Critpath{Tid: tid, Quorum: quorum}, false
	}
	return r.s.critpath(quorum)
}

// CritSnapshot is the mergeable aggregate view of the critical-path
// decompositions.
type CritSnapshot struct {
	// Txns counts transactions decomposed into the segment histograms.
	Txns uint64
	// Incomplete counts sampled transactions whose timeline was missing
	// a required stamp when the acked frontier passed them (a replica
	// fence short of the quorum).
	Incomplete uint64
	// Dropped counts sampled transactions left untraced because their
	// sample row still held an earlier transaction's trace.
	Dropped uint64
	// E2E is the commit→acked latency histogram (ns) over decomposed
	// transactions (the population the segment histograms tile).
	E2E HistSnapshot
	// Segments holds one time-on-critical-path histogram (ns) per
	// CritSegment; across a population, the segment sums add up to the
	// E2E sum.
	Segments [NumCritSegments]HistSnapshot
}

// Sub returns the interval aggregate between an earlier snapshot b and s.
func (s CritSnapshot) Sub(b CritSnapshot) CritSnapshot {
	out := CritSnapshot{
		Txns:       s.Txns - b.Txns,
		Incomplete: s.Incomplete - b.Incomplete,
		Dropped:    s.Dropped - b.Dropped,
		E2E:        s.E2E.Sub(b.E2E),
	}
	for i := range s.Segments {
		out.Segments[i] = s.Segments[i].Sub(b.Segments[i])
	}
	return out
}
