package obs

import (
	"sort"
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
	// SegSealWait: group seal → persist-fence start (queue dwell behind
	// other groups plus the log append up to the barrier).
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
// is incomplete — a required stamp was evicted from its ring, or fewer
// than quorum replica fences survive — so the caller can count the
// miss instead of skewing the aggregate.
func DecomposeCritpath(tid uint64, recs []Record, quorum int) (Critpath, bool) {
	cp := Critpath{Tid: tid, Quorum: quorum}
	var commit, seal, fenceEnd, fenceDur, acked int64
	var haveCommit, haveSeal, haveFence, haveAcked bool
	type rfence struct{ at, dur int64 }
	var rfs []rfence
	for _, r := range recs {
		if tid < r.MinTid || tid > r.MaxTid {
			continue
		}
		switch r.Kind {
		case EvCommit:
			if !haveCommit || r.At < commit {
				commit, haveCommit = r.At, true
			}
		case EvGroupSeal:
			if !haveSeal || r.At < seal {
				seal, haveSeal = r.At, true
			}
		case EvPersistFence:
			if !haveFence || r.At < fenceEnd {
				fenceEnd, fenceDur, haveFence = r.At, r.Dur, true
			}
		case EvReplicaFence:
			rfs = append(rfs, rfence{at: r.At, dur: r.Dur})
		case EvAcked:
			if !haveAcked || r.At < acked {
				acked, haveAcked = r.At, true
			}
		}
	}
	if !haveCommit || !haveSeal || !haveFence || !haveAcked || acked < commit {
		return cp, false
	}
	if quorum > 0 && len(rfs) < quorum {
		return cp, false
	}
	a := acked
	clamp := func(x, lo int64) int64 {
		if x < lo {
			x = lo
		}
		if x > a {
			x = a
		}
		return x
	}
	t0 := commit
	t1 := clamp(seal, t0)
	t2 := clamp(fenceEnd-fenceDur, t1)
	t3 := clamp(fenceEnd, t2)
	t4, t5 := t3, t3
	if quorum > 0 {
		// The ack whose arrival completed the quorum: the quorum-th
		// smallest replica-fence arrival time.
		sort.Slice(rfs, func(i, j int) bool { return rfs[i].at < rfs[j].at })
		q := rfs[quorum-1]
		t4 = clamp(q.at-q.dur, t3)
		t5 = clamp(q.at, t4)
		cp.Replicated = true
	}
	cp.Commit, cp.Acked, cp.Total = t0, a, a-t0
	cp.Seg[SegRingDwell] = t1 - t0
	cp.Seg[SegSealWait] = t2 - t1
	cp.Seg[SegPersistFence] = t3 - t2
	cp.Seg[SegReplShip] = t4 - t3
	cp.Seg[SegQuorumWait] = t5 - t4
	cp.Seg[SegNotify] = a - t5
	return cp, true
}

// critState is the Observer's critical-path collector: completed
// sampled transactions are handed over a buffered channel (non-blocking
// from the stamp path: a full channel drops the sample and counts the
// drop) to a background goroutine that reconstructs the timeline,
// decomposes it and feeds the aggregate histograms. Decomposition
// allocates — that is legal here, off the hot path.
type critState struct {
	ch     chan uint64
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	quorum atomic.Int64

	// mu makes each fold of txns, e2e and seg atomic to snapshot, so
	// a scrape never reads an e2e count that disagrees with txns or
	// segment sums from a larger population than e2e. Only the
	// collector and snapshot take it.
	mu         sync.Mutex
	txns       atomic.Uint64 // decomposed transactions
	incomplete atomic.Uint64 // timelines missing a required stamp
	dropped    atomic.Uint64 // samples dropped on a full channel
	e2e        Histogram     // commit→acked (ns), decomposed txns only
	seg        [NumCritSegments]Histogram
}

// offer hands a completed sampled transaction to the collector. Never
// blocks: callers sit on frontier-publication paths.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (c *critState) offer(tid uint64) {
	if c.ch == nil {
		return
	}
	select {
	case c.ch <- tid:
	default:
		c.dropped.Add(1)
	}
}

// close drains and stops the collector. The stop channel (not the work
// channel) is closed: racing offers must never send on a closed
// channel.
func (c *critState) close() {
	c.once.Do(func() {
		if c.ch == nil {
			return
		}
		close(c.stop)
		c.wg.Wait()
	})
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

// startCollector launches the background decomposition goroutine.
// Called from New when sampling is on.
func (o *Observer) startCollector() {
	o.crit.ch = make(chan uint64, 1024)
	o.crit.stop = make(chan struct{})
	o.crit.wg.Add(1)
	go o.collectLoop()
}

func (o *Observer) collectLoop() {
	defer o.crit.wg.Done()
	for {
		select {
		case tid := <-o.crit.ch:
			o.critObserve(tid)
		case <-o.crit.stop:
			// Final drain: everything offered before close is observed.
			for {
				select {
				case tid := <-o.crit.ch:
					o.critObserve(tid)
				default:
					return
				}
			}
		}
	}
}

func (o *Observer) critObserve(tid uint64) {
	cp, ok := DecomposeCritpath(tid, o.TraceOf(tid), int(o.crit.quorum.Load()))
	if !ok {
		o.crit.incomplete.Add(1)
		return
	}
	o.crit.mu.Lock()
	o.crit.txns.Add(1)
	o.crit.e2e.Observe(uint64(cp.Total))
	for i, d := range cp.Seg {
		o.crit.seg[i].Observe(uint64(d))
	}
	o.crit.mu.Unlock()
}

// SetReplQuorum tells the collector the replication write quorum, so
// decompositions wait for the quorum-th replica fence (0 =
// unreplicated).
func (o *Observer) SetReplQuorum(q int) {
	o.crit.quorum.Store(int64(max(q, 0)))
}

// CritpathOf decomposes transaction tid from the live trace rings with
// the configured quorum — the debug-endpoint view of one transaction.
func (o *Observer) CritpathOf(tid uint64) (Critpath, bool) {
	return DecomposeCritpath(tid, o.TraceOf(tid), int(o.crit.quorum.Load()))
}

// CritSnapshot is the mergeable aggregate view of the critical-path
// collector.
type CritSnapshot struct {
	// Txns counts transactions decomposed into the segment histograms.
	Txns uint64
	// Incomplete counts sampled transactions whose timeline was missing
	// a required stamp (ring eviction, quorum fences not yet arrived).
	Incomplete uint64
	// Dropped counts samples dropped because the collector was behind.
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

// Merge returns the union of two aggregates.
func (s CritSnapshot) Merge(b CritSnapshot) CritSnapshot {
	out := CritSnapshot{
		Txns:       s.Txns + b.Txns,
		Incomplete: s.Incomplete + b.Incomplete,
		Dropped:    s.Dropped + b.Dropped,
		E2E:        s.E2E.Merge(b.E2E),
	}
	for i := range s.Segments {
		out.Segments[i] = s.Segments[i].Merge(b.Segments[i])
	}
	return out
}
