package dudetm

import (
	"container/heap"
	"runtime"
	"time"

	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// persistLoop is the Persist step (ModeAsync), one goroutine as in the
// paper: it merges the per-thread volatile rings in commit-ID order,
// groups up to GroupSize consecutive transactions (combining
// overlapping writes) and no more entries than one log record — or,
// with replication attached, one REPL frame — holds, and appends each
// sealed group itself (persistGroup), advancing the global durable ID.
//
// Merging across all rings by ID is what makes cross-transaction
// combination sound: every group covers a globally contiguous ID range,
// so replaying groups in order equals replaying transactions in order.
//
// The loop is event-driven. Each pass drains every transaction
// committed before it took persistGate, sealing full groups as they
// fill. A partial group seals as soon as no committed ID is pending its
// end mark — group commit: transactions that commit while an append is
// in flight join the next group instead of waiting for a timer — after
// one yield of the processor, so committers that are already runnable
// join it too. With nothing to do the loop parks on coord (see
// coordWake); the committer publishing an end mark, Close and Crash
// wake it. No timer sits on this path: on an idle processor a Go timer
// fires at about millisecond granularity, which would be the
// acknowledgement latency of every light-load commit.
func (s *System) persistLoop() {
	defer s.wg.Done()
	// Once the last group is appended (or Crash dropped it), Reproduce
	// has everything it will get.
	defer close(s.reproCh)
	comb := redolog.NewCombiner()
	nextTid := s.startTid + 1
	var gMin, gMax uint64
	gCount := 0
	var ep *[]redolog.Entry
	yielded := false // since the last consume

	// seal appends the accumulated group. It returns false if the
	// system halted before the append (Crash during log-space
	// back-pressure): the group is discarded, like power failing before
	// its log append.
	seal := func() bool {
		if gCount == 0 {
			return true
		}
		if s.cfg.GroupSize > 1 {
			ep = getEntrySlice()
			*ep = append((*ep)[:0], comb.Entries()...)
			s.rawEntries.Add(uint64(comb.RawCount()))
			s.combEntries.Add(uint64(comb.Len()))
			comb.Reset()
		}
		g := &redolog.Group{MinTid: gMin, MaxTid: gMax, Entries: *ep}
		// Replication ships from here — the single point where groups
		// exist in dense tid order. The sink copies synchronously; the
		// slice stays owned by the pipeline (pooled after Reproduce).
		s.shipGroup(gMin, gMax, *ep)
		s.obs.GroupSealed(gMin, gMax, gCount, len(*ep))
		ok := s.persistGroup(g, ep)
		ep = nil
		gCount = 0
		return ok
	}

	// consume moves the transaction at the head of th's ring — the
	// next ID — into the open group, sealing the group first when the
	// transaction could take it past the entry limit (Run keeps every
	// transaction within one log record on its own). It returns false
	// if that seal found the system halted.
	consume := func(th *thread) bool {
		if s.cfg.GroupSize == 1 {
			ep = getEntrySlice()
			*ep, _ = th.ring.ConsumeTx((*ep)[:0])
			s.rawEntries.Add(uint64(len(*ep)))
			s.combEntries.Add(uint64(len(*ep)))
		} else {
			th.scratch, _ = th.ring.ConsumeTx(th.scratch[:0])
			if comb.Len()+len(th.scratch) > s.groupEntryLimit() && !seal() {
				return false
			}
			comb.AddAll(th.scratch)
		}
		if gCount == 0 {
			gMin = nextTid
		}
		gMax = nextTid
		gCount++
		nextTid++
		yielded = false
		return true
	}

	// ready reports whether some ring's head is the next ID.
	ready := func() *thread {
		for _, th := range s.threads {
			if tid, ok := th.ring.PeekTid(); ok && tid == nextTid {
				return th
			}
		}
		return nil
	}

	// wakeReady is park's re-check, run after the parked state is
	// published: anything a waker may have published before it loaded
	// that state.
	wakeReady := func() bool { return s.stopping.Load() || ready() != nil }

	for {
		// Crash halts the step where it is: in-flight volatile rings are
		// lost, exactly like power failing between persist barriers.
		if s.halted.Load() {
			return
		}
		// The gate is held for the whole pass, appends included, so
		// PausePersist blocks until the step is quiescent (crash drills
		// and snapshots rely on this). The pass is bounded by the clock
		// at entry, so a steady commit stream cannot keep the gate from
		// a pauser.
		s.persistGate.Lock()
		for limit := s.engine.Clock(); nextTid <= limit; {
			th := ready()
			if th == nil {
				break
			}
			if !consume(th) || gCount >= s.cfg.GroupSize && !seal() {
				s.persistGate.Unlock()
				return
			}
		}
		// An assigned ID whose end mark is still in flight between
		// commit and AppendTxEnd will join the open group; its committer
		// wakes the coordinator once it is published.
		pending := s.engine.Clock() >= nextTid
		if !pending && gCount > 0 {
			if !yielded {
				// Let committers that are already runnable publish
				// first and join the group; on an idle processor this
				// returns at once.
				s.persistGate.Unlock()
				yielded = true
				runtime.Gosched()
				continue
			}
			if !seal() {
				s.persistGate.Unlock()
				return
			}
		}
		s.persistGate.Unlock()
		// Close raises stopping only once every Run has returned, so a
		// clock read after it is final: with nothing left to consume,
		// the step is drained. The clock is read again because commits
		// may have landed while the seal above was appending.
		if s.stopping.Load() && s.engine.Clock() < nextTid {
			return
		}
		if s.coord.park(wakeReady) {
			s.pm.wakes.Add(1)
		}
	}
}

// groupEntryLimit is the most combined entries one sealed group may
// carry: what one log record holds, and with replication attached no
// more than one REPL frame carries at the run encoding's worst case, so
// the sender never has to drop a group it cannot frame.
func (s *System) groupEntryLimit() int {
	n := redolog.MaxGroupEntries(s.lay.logSize)
	if s.repl.Load() != nil {
		n = min(n, replGroupEntries)
	}
	return n
}

// persistGroup appends one sealed group to log 0 with one persist
// barrier, advances the global durable ID to its last transaction and
// forwards it to Reproduce. It returns false if Crash halted the writer,
// possibly while the append waited for log space: the group is dropped
// on the floor — power failed before its append.
//
// The budget pins the paper's fence economy: one persist barrier per
// group (AppendGroup's). The flight recorder writes nothing per group:
// the fenced record is its own persist-fence evidence and a torn tail is
// the in-flight signature (see buildCrashReport).
//
//dudelint:fencebudget 1
func (s *System) persistGroup(g *redolog.Group, ep *[]redolog.Entry) bool {
	s.pm.enqueue()
	startAt := s.obs.Now()
	appended := s.writers[0].AppendGroup(g) != 0
	endAt := s.obs.Now()
	s.pm.dequeue()
	if !appended {
		putEntrySlice(ep)
		return false
	}
	s.obs.GroupPersisted(g.MinTid, g.MaxTid, startAt, endAt)
	s.pm.busy.Add(uint64(endAt - startAt))
	s.pm.groups.Add(1)
	s.pm.fences.Add(1)
	s.setDurable(g.MaxTid)
	s.rm.enqueue()
	s.reproCh <- repoMsg{g: g, wi: 0, ep: ep}
	return true
}

// runChunk caps the words one StoreRun carries: applyRuns stages a
// run's values in a stack buffer of this many words.
const runChunk = 64

// applyRuns stores entries into the persistent data region at base and
// writes the stored lines back into b — the one replay primitive shared
// by recovery and the Reproduce step. It cuts entries into the same
// contiguous runs the log encoded (redolog.RunLen) and issues one
// Device.StoreRun and one Batch.Flush per run: words are stored
// single-copy atomically and in entry order
// (so a duplicate address keeps last-writer-wins), dirty marking is
// per line and accounting per run. All stores precede all flushes, so
// a line two runs share is written back once — the second flush finds
// it clean. The fence stays with the caller.
//
//dudelint:noalloc
//dudelint:fencebudget 0
func applyRuns(dev *pmem.Device, b *pmem.Batch, base uint64, entries []redolog.Entry) {
	var vals [runChunk]uint64
	for rest := entries; len(rest) > 0; {
		n := redolog.RunLen(rest, runChunk)
		for i, e := range rest[:n] {
			vals[i] = e.Val
		}
		dev.StoreRun(base+rest[0].Addr, vals[:n])
		rest = rest[n:]
	}
	for rest := entries; len(rest) > 0; {
		n := redolog.RunLen(rest, len(rest))
		b.Flush(base+rest[0].Addr, 8*uint64(n))
		rest = rest[n:]
	}
}

// recycleInterval bounds how long a batched recycle can be deferred
// once one is pending.
const recycleInterval = 500 * time.Microsecond

// recycleEvery batches log recycling: Reproduce persists a writer's
// log-head metadata once per this many applied groups (recycleInterval
// bounds the deferral).
const recycleEvery = 64

// replayEpochGroups caps how many consecutive groups the Reproduce
// step coalesces into one replay epoch once it has fallen behind (a
// dense backlog is buffered).
const replayEpochGroups = 16

// replayEpochEntries bounds the combined (pre-coalesce) entry count of
// one replay epoch, so huge groups don't pile into unbounded epoch
// buffers.
const replayEpochEntries = 1 << 16

// reproState owns the Reproduce loop's pooled replay buffers: the
// loop-lifetime flush batch (Fence resets it for reuse) and the epoch
// combiner. Everything here is allocated once, so steady-state replay —
// per-group or per-epoch — allocates nothing.
type reproState struct {
	batch *pmem.Batch
	comb  *redolog.Combiner
	epoch []repoMsg // dense run being coalesced, in ascending tid order
}

// newReproState allocates the replay buffers.
func newReproState(s *System) *reproState {
	return &reproState{
		batch: s.dev.NewBatch(),
		comb:  redolog.NewCombiner(),
		epoch: make([]repoMsg, 0, replayEpochGroups),
	}
}

// replayEntries stores one combined, ID-ordered entry run into the
// persistent data region and writes it back at cache-line granularity
// under a single fence. Every dirty line is written back exactly once —
// the return value counts them off the volume the fence ordered — and
// the only persist ordering Reproduce needs is data-before-recycle
// (§3.4), enforced by the one fence here before any Recycle the caller
// issues.
//
// The budget pins the epoch fence economy: exactly one barrier per
// replay run, whether the run is one group or a whole coalesced epoch.
//
//dudelint:noalloc
//dudelint:fencebudget 1
func (s *System) replayEntries(rs *reproState, entries []redolog.Entry) (lines uint64) {
	applyRuns(s.dev, rs.batch, s.lay.dataOff, entries)
	return rs.batch.Fence() / pmem.LineSize
}

// reproduceLoop is the Reproduce step: replay persisted groups in
// transaction-ID order into the persistent data region, then recycle
// their log space. Groups may arrive out of order (per-thread flushes in
// ModeSync), so a min-heap buffers them until the next dense ID range is
// available.
//
// When Reproduce has fallen behind — a dense backlog is buffered — up
// to replayEpochGroups consecutive groups are coalesced into one replay
// epoch: duplicate addresses collapse last-writer-wins (only
// per-address last-writer order matters during replay — MOD), each
// dirty cache line is written back once, and a single fence covers the
// whole epoch. This is sound because replay is idempotent (re-storing a
// prefix of an epoch after a crash is repaired by recovery replaying
// the same groups from the log) and §3.4's data-before-recycle ordering
// holds at epoch granularity: every Recycle below happens after the
// epoch fence that made its groups' data durable. Under light load the
// heap never holds a dense successor and the per-group fast path runs
// unchanged.
func (s *System) reproduceLoop() {
	defer s.wg.Done()
	var h msgHeap
	next := s.startTid + 1
	rs := newReproState(s)

	type pending struct {
		pos, seq uint64
		count    int
	}
	pend := make([]pending, len(s.writers))
	pendingRecycles := 0

	flushRecycles := func() {
		for i := range pend {
			if pend[i].count > 0 {
				repro := s.reproduced.Load()
				s.writers[i].Recycle(pend[i].pos, pend[i].seq, repro)
				pendingRecycles -= pend[i].count
				pend[i].count = 0
			}
		}
		s.recycled.Store(s.reproduced.Load())
	}

	// retire publishes one applied group's frontier and recycle
	// bookkeeping. Epochs retire their groups one by one in ascending
	// order, after the epoch fence, so the reproduced frontier, the
	// GroupApplied/ReproducedAdvanced trace stamps and the recycles
	// advance exactly as they would group-by-group — monotonic, none
	// skipped, none reordered.
	retire := func(m repoMsg) {
		s.reproduced.Store(m.g.MaxTid)
		s.obs.GroupApplied(m.g.MinTid, m.g.MaxTid)
		s.obs.ReproducedAdvanced(m.g.MaxTid)
		s.rm.groups.Add(1)
		putEntrySlice(m.ep)
		p := &pend[m.wi]
		p.pos, p.seq = m.g.EndPos, m.g.Seq+1
		p.count++
		pendingRecycles++
		if p.count >= recycleEvery {
			s.writers[m.wi].Recycle(p.pos, p.seq, m.g.MaxTid)
			pendingRecycles -= p.count
			p.count = 0
			if pendingRecycles == 0 {
				s.recycled.Store(m.g.MaxTid)
			}
		}
	}

	// apply is the single-group fast path — identical fence economy and
	// stamp order to the pre-epoch pipeline, and allocation-free.
	apply := func(m repoMsg) {
		if n := len(m.g.Entries); n > 0 {
			t0 := time.Now()
			s.rm.lines.Add(s.replayEntries(rs, m.g.Entries))
			s.rm.fences.Add(1)
			s.rm.busy.Add(uint64(time.Since(t0)))
		}
		retire(m)
	}

	// applyEpoch replays rs.epoch — a dense run of groups — as one
	// coalesced run under one fence, then retires each group in order.
	applyEpoch := func() {
		t0 := time.Now()
		rs.comb.Reset()
		for _, m := range rs.epoch {
			rs.comb.AddAll(m.g.Entries)
		}
		in, out := rs.comb.RawCount(), rs.comb.Len()
		if out > 0 {
			s.rm.lines.Add(s.replayEntries(rs, rs.comb.Entries()))
			s.rm.fences.Add(1)
		}
		s.rm.busy.Add(uint64(time.Since(t0)))
		s.rm.epochs.Add(1)
		s.rm.coalesceIn.Add(uint64(in))
		s.rm.coalesceOut.Add(uint64(out))
		s.obs.EpochCoalesced(len(rs.epoch), out)
		for i := range rs.epoch {
			retire(rs.epoch[i])
			rs.epoch[i] = repoMsg{} // drop the group/slice references
		}
		rs.epoch = rs.epoch[:0]
	}

	drainReady := func() {
		for h.Len() > 0 && h[0].g.MinTid == next {
			m := heap.Pop(&h).(repoMsg)
			// Backlog-adaptive epoch formation: coalesce only while the
			// heap already holds the dense successor, up to the group
			// cap and the combined entry budget.
			if h.Len() > 0 && h[0].g.MinTid == m.g.MaxTid+1 {
				rs.epoch = append(rs.epoch[:0], m)
				budget := len(m.g.Entries)
				for len(rs.epoch) < replayEpochGroups && h.Len() > 0 &&
					h[0].g.MinTid == rs.epoch[len(rs.epoch)-1].g.MaxTid+1 &&
					budget+len(h[0].g.Entries) <= replayEpochEntries {
					mm := heap.Pop(&h).(repoMsg)
					budget += len(mm.g.Entries)
					rs.epoch = append(rs.epoch, mm)
				}
				if len(rs.epoch) > 1 {
					next = rs.epoch[len(rs.epoch)-1].g.MaxTid + 1
					applyEpoch()
					continue
				}
				// The entry budget excluded the successor: fall back to
				// the single-group path.
				m = rs.epoch[0]
				rs.epoch = rs.epoch[:0]
			}
			apply(m)
			next = m.g.MaxTid + 1
		}
	}

	// The timer bounds how long a batched recycle can be deferred, so a
	// writer blocked on log space always gets freed even when no new
	// groups arrive (recycleEvery > 1). It is armed lazily — only while
	// a recycle is actually pending — so an idle pool takes no timer
	// wakeups at all (Wakes counts the fires).
	timer := time.NewTimer(recycleInterval)
	if !timer.Stop() {
		<-timer.C
	}
	var timerC <-chan time.Time

	rearm := func() {
		if pendingRecycles > 0 && timerC == nil {
			timer.Reset(recycleInterval)
			timerC = timer.C
		} else if pendingRecycles == 0 && timerC != nil {
			if !timer.Stop() {
				<-timer.C
			}
			timerC = nil
		}
	}

	for {
		select {
		case m, ok := <-s.reproCh:
			// The gate is held around every device mutation so
			// PauseReproduce blocks until the step is quiescent.
			s.reproduceGate.Lock()
			open := ok
			if ok {
				s.rm.dequeue()
				heap.Push(&h, m)
				// An in-order backlog accumulates in the channel, not
				// the heap (drainReady pops every dense group as soon as
				// it is pushed), so slurp whatever Persist has already
				// queued before replaying — that backlog is what epoch
				// formation coalesces.
			slurp:
				for {
					select {
					case m2, ok2 := <-s.reproCh:
						if !ok2 {
							open = false
							break slurp
						}
						s.rm.dequeue()
						heap.Push(&h, m2)
					default:
						break slurp
					}
				}
			}
			if !open && s.halted.Load() {
				// Crash: stop where we are. Durable-but-unreproduced
				// groups stay in the persistent log; recovery replays
				// them (gaps are possible when ModeSync's per-thread
				// flushes raced the crash).
				s.reproduceGate.Unlock()
				return
			}
			drainReady()
			if !open {
				if h.Len() > 0 {
					panic("dudetm: gap in transaction IDs at shutdown")
				}
				flushRecycles()
				s.reproduceGate.Unlock()
				return
			}
			rearm()
			s.reproduceGate.Unlock()
		case <-timerC:
			timerC = nil
			s.reproduceGate.Lock()
			s.rm.wakes.Add(1)
			flushRecycles()
			rearm()
			s.reproduceGate.Unlock()
		}
	}
}

// msgHeap is a min-heap of groups keyed by MinTid.
type msgHeap []repoMsg

func (h msgHeap) Len() int           { return len(h) }
func (h msgHeap) Less(i, j int) bool { return h[i].g.MinTid < h[j].g.MinTid }
func (h msgHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)        { *h = append(*h, x.(repoMsg)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}
