package dudetm

import (
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
	// transaction within one log record on its own). The entries are
	// read in place and their ring slots released once copied or
	// combined. It returns false if that seal found the system halted.
	consume := func(th *thread) bool {
		a, b, _ := th.ring.NextTx()
		n := len(a) + len(b)
		if s.cfg.GroupSize == 1 {
			ep = getEntrySlice()
			*ep = append(append((*ep)[:0], a...), b...)
			s.rawEntries.Add(uint64(n))
			s.combEntries.Add(uint64(n))
		} else {
			if comb.Len()+n > s.groupEntryLimit() && !seal() {
				return false
			}
			comb.AddAll(a)
			comb.AddAll(b)
		}
		th.ring.Release()
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

// applyRuns stores the entries of groups, in group order, into the
// persistent data region at base and writes the stored lines back into
// b — the one replay primitive shared by recovery and the Reproduce
// step. It cuts each group's entries into the same contiguous runs the
// log encoded (redolog.RunLen) and issues one Device.StoreRun and one
// Batch.Flush per run: words are stored single-copy atomically and in
// tid order (so a duplicate address keeps last-writer-wins, within a
// group and across groups), dirty marking is per line and accounting
// per run. All stores precede all flushes, so a line several runs or
// groups share is written back once — every later flush finds it
// clean, by its dirty bit. The fence stays with the caller.
//
//dudelint:noalloc
//dudelint:fencebudget 0
func applyRuns(dev *pmem.Device, b *pmem.Batch, base uint64, groups []repoMsg) {
	var vals [runChunk]uint64
	for _, m := range groups {
		for rest := m.g.Entries; len(rest) > 0; {
			n := redolog.RunLen(rest, runChunk)
			for i, e := range rest[:n] {
				vals[i] = e.Val
			}
			dev.StoreRun(base+rest[0].Addr, vals[:n])
			rest = rest[n:]
		}
	}
	for _, m := range groups {
		for rest := m.g.Entries; len(rest) > 0; {
			n := redolog.RunLen(rest, len(rest))
			b.Flush(base+rest[0].Addr, 8*uint64(n))
			rest = rest[n:]
		}
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
// step replays under one fence once it has fallen behind (a dense
// backlog is queued).
const replayEpochGroups = 16

// replayEpoch stores a dense, ID-ordered run of groups into the
// persistent data region and writes it back at cache-line granularity
// under a single fence. Every dirty line is written back exactly once —
// the return value counts them off the volume the fence ordered — and
// the only persist ordering Reproduce needs is data-before-recycle
// (§3.4), enforced by the one fence here before any Recycle the caller
// issues.
//
// The budget pins the epoch fence economy: exactly one barrier per
// replay run, whether the run is one group or a whole epoch.
//
//dudelint:noalloc
//dudelint:fencebudget 1
func (s *System) replayEpoch(b *pmem.Batch, epoch []repoMsg) (lines uint64) {
	applyRuns(s.dev, b, s.lay.dataOff, epoch)
	return b.Fence() / pmem.LineSize
}

// replayQueue holds persisted groups awaiting replay, in MinTid order,
// from head on. ModeAsync's coordinator hands groups over in tid order,
// so a push is an append; ModeSync's per-thread appends can arrive
// late, and a late group is slotted in by a short scan from the back.
type replayQueue struct {
	msgs []repoMsg
	head int
}

func (q *replayQueue) len() int { return len(q.msgs) - q.head }

func (q *replayQueue) push(m repoMsg) {
	q.msgs = append(q.msgs, m)
	i := len(q.msgs) - 1
	for ; i > q.head && q.msgs[i-1].g.MinTid > m.g.MinTid; i-- {
		q.msgs[i] = q.msgs[i-1]
	}
	q.msgs[i] = m
}

// dense returns the queued run that continues next with no gap, at most
// limit groups long (empty when the group holding next has not arrived).
func (q *replayQueue) dense(next uint64, limit int) []repoMsg {
	run := q.msgs[q.head:min(len(q.msgs), q.head+limit)]
	for i, m := range run {
		if m.g.MinTid != next {
			return run[:i]
		}
		next = m.g.MaxTid + 1
	}
	return run
}

// pop drops the first n queued groups. The backing array is reused:
// reset once the queue empties, compacted once half of it is consumed.
func (q *replayQueue) pop(n int) {
	clear(q.msgs[q.head : q.head+n]) // drop the group/slice references
	q.head += n
	if q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	} else if 2*q.head >= cap(q.msgs) {
		q.msgs = q.msgs[:copy(q.msgs, q.msgs[q.head:])]
		q.head = 0
	}
}

// reproduceLoop is the Reproduce step: replay persisted groups in
// transaction-ID order into the persistent data region, then recycle
// their log space. Groups may arrive out of order (per-thread flushes in
// ModeSync), so an ordered queue buffers them until the next dense ID
// range is available.
//
// When Reproduce has fallen behind — a dense backlog is queued — up to
// replayEpochGroups consecutive groups are replayed as one epoch: every
// group's stores land in tid order, so a duplicate address ends with its
// last writer's value (only per-address last-writer order matters
// during replay — MOD), then every stored line is written back once,
// found by its dirty bit, and a single fence covers the whole epoch.
// Nothing combines entries: the Persist step already combined each
// group, and flush dedup comes from the dirty bit. This is sound
// because replay is idempotent (re-storing a prefix of an epoch after a
// crash is repaired by recovery replaying the same groups from the log)
// and §3.4's data-before-recycle ordering holds at epoch granularity:
// every Recycle below happens after the epoch fence that made its
// groups' data durable. Under light load the queue never holds a dense
// successor and every epoch is a single group.
func (s *System) reproduceLoop() {
	defer s.wg.Done()
	var q replayQueue
	next := s.startTid + 1
	batch := s.dev.NewBatch() // loop-lifetime: Fence resets it

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

	// replay applies a dense run of groups under one fence, then
	// retires each group in order.
	replay := func(epoch []repoMsg) {
		entries := 0
		for _, m := range epoch {
			entries += len(m.g.Entries)
		}
		if entries > 0 {
			t0 := time.Now()
			s.rm.lines.Add(s.replayEpoch(batch, epoch))
			s.rm.fences.Add(1)
			s.rm.busy.Add(uint64(time.Since(t0)))
		}
		if len(epoch) > 1 {
			s.rm.epochs.Add(1)
			s.rm.coalesceIn.Add(uint64(entries))
			s.rm.coalesceOut.Add(uint64(entries))
			s.obs.EpochReplayed(len(epoch), entries)
		}
		for _, m := range epoch {
			retire(m)
		}
	}

	drainReady := func() {
		for {
			// Backlog-adaptive epoch formation: an epoch is whatever
			// dense run is already queued, up to the group cap.
			epoch := q.dense(next, replayEpochGroups)
			if len(epoch) == 0 {
				return
			}
			next = epoch[len(epoch)-1].g.MaxTid + 1
			replay(epoch)
			q.pop(len(epoch))
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
				q.push(m)
				// An in-order backlog accumulates in the channel, not
				// the queue (drainReady replays every dense group as
				// soon as it is pushed), so slurp whatever Persist has
				// already queued before replaying — that backlog is what
				// epoch formation groups.
			slurp:
				for {
					select {
					case m2, ok2 := <-s.reproCh:
						if !ok2 {
							open = false
							break slurp
						}
						s.rm.dequeue()
						q.push(m2)
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
				if q.len() > 0 {
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
