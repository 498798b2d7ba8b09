package dudetm

import (
	"sync"
	"sync/atomic"
	"time"

	"dudetm/internal/park"
)

// persistWindow bounds how many sealed groups may be in flight across
// the persist workers at once. The coordinator reserves a dense sequence
// number per group and blocks when the window is full, so a stalled
// worker back-pressures the whole stage instead of letting completions
// accumulate without bound.
const persistWindow = 1024

// seqWindow tracks out-of-order completion of densely numbered groups
// and exposes the contiguous-completion frontier: sequence s is "done"
// only once every sequence <= s has completed. It is a fixed-size bitmap
// ring (one bit and one saved MaxTid per in-flight group), not a heap —
// completion and frontier advance are O(groups completed), with no
// per-group allocation. next and done are written only under mu but
// read with atomics, so depth is lock-free and observers (stats,
// watchdog) never contend with the coordinator or the workers.
type seqWindow struct {
	mu   sync.Mutex
	next atomic.Uint64 // next sequence to reserve
	done park.Frontier // frontier: every sequence < done has completed
	bits [persistWindow / 64]uint64
	tids [persistWindow]uint64 // MaxTid per slot, read when the frontier passes it
}

// reserve hands out the next sequence number, blocking while the window
// is full. It returns false if the system halts (Crash) while waiting.
// Only the coordinator reserves.
func (w *seqWindow) reserve(halted *atomic.Bool) (uint64, bool) {
	seq := w.next.Load()
	if seq >= persistWindow && !w.done.Wait(seq-persistWindow+1, halted) {
		return 0, false
	}
	w.mu.Lock()
	w.next.Store(seq + 1)
	w.mu.Unlock()
	return seq, true
}

// complete marks seq done with the given group MaxTid. When seq extends
// the contiguous prefix it advances the frontier over every completed
// slot and returns (largest MaxTid passed, true); otherwise the
// completion is parked in the bitmap and it returns (0, false).
func (w *seqWindow) complete(seq, maxTid uint64) (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	slot := seq % persistWindow
	w.tids[slot] = maxTid
	w.bits[slot/64] |= 1 << (slot % 64)
	done := w.done.Load()
	if seq != done {
		return 0, false
	}
	next := w.next.Load()
	var last uint64
	for done < next {
		s := done % persistWindow
		if w.bits[s/64]&(1<<(s%64)) == 0 {
			break
		}
		w.bits[s/64] &^= 1 << (s % 64)
		last = w.tids[s]
		done++
	}
	w.done.Store(done)
	return last, true
}

// depth returns the number of reserved-but-not-yet-retired sequences,
// lock-free. done is loaded first: both counters are monotonic, so a
// racing advance can only make the result conservative, never negative.
func (w *seqWindow) depth() uint64 {
	done := w.done.Load()
	return w.next.Load() - done
}

// coordWake is the Persist coordinator's park/wake handshake: a parked
// coordinator blocks on a 1-slot channel, never on a timer, and the
// waker that moves state back to coordRunning owns the one token it
// sends. The ordering is Dekker's: the coordinator stores its parked
// state and then re-checks for work; a waker publishes its work (a
// ring end mark, a drained persist queue, stopping/halted) and then
// loads the state. Go's atomics are sequentially consistent, so one of
// the two always sees the other and no wakeup is lost.
//
// It is not a park.Frontier: the coordinator waits on N rings at once,
// and folding them into one shared counter would cost every commit an
// atomic add on a contended line.
type coordWake struct {
	state atomic.Int32
	ch    chan struct{}
}

const (
	// coordRunning: the coordinator is scanning or sealing; a wake
	// costs the waker one atomic load.
	coordRunning int32 = iota
	// coordIdle: parked with no group open, waiting for a commit.
	coordIdle
	// coordHolding: parked with a partial group held behind an
	// in-flight log append, waiting for a commit or for the persist
	// queue to drain.
	coordHolding
)

// wake unparks the coordinator if it is parked (committers, Close,
// Crash).
func (w *coordWake) wake() {
	if st := w.state.Load(); st != coordRunning && w.state.CompareAndSwap(st, coordRunning) {
		w.ch <- struct{}{}
	}
}

// wakeHeld unparks the coordinator only if it holds a partial group:
// the persist worker that drains the queue calls it, and an idle
// coordinator has nothing to seal.
func (w *coordWake) wakeHeld() {
	if w.state.Load() == coordHolding && w.state.CompareAndSwap(coordHolding, coordRunning) {
		w.ch <- struct{}{}
	}
}

// park blocks the coordinator in state st unless ready reports work
// after the state is published. It reports whether it actually slept.
func (w *coordWake) park(st int32, ready func() bool) bool {
	w.state.Store(st)
	if ready() {
		if w.state.Swap(coordRunning) == coordRunning {
			<-w.ch // a waker won the race: take its token
		}
		return false
	}
	<-w.ch
	return true
}

// stageMetrics is the per-stage utilization instrumentation shared by
// Persist and Reproduce: busy time, work counts, queue depth, and
// wakeups, all updated with atomics on the hot path.
type stageMetrics struct {
	busy     atomic.Uint64 // nanoseconds spent doing stage work
	groups   atomic.Uint64 // groups processed
	fences   atomic.Uint64 // persist barriers issued
	queue    atomic.Int64  // groups enqueued and not yet processed
	maxQueue atomic.Int64  // high-water mark of queue
	wakes    atomic.Uint64 // coordinator wakes (Persist), recycle-timer fires (Reproduce)
	start    atomic.Int64  // stage start, ns since an arbitrary epoch

	// Replay-epoch instrumentation (Reproduce only): coalesced epochs,
	// entries entering / surviving last-writer-wins coalescing, and
	// cache lines written back by replay.
	epochs      atomic.Uint64
	coalesceIn  atomic.Uint64
	coalesceOut atomic.Uint64
	lines       atomic.Uint64
}

func (m *stageMetrics) markStart() { m.start.Store(time.Now().UnixNano()) }

func (m *stageMetrics) enqueue() {
	q := m.queue.Add(1)
	for {
		hi := m.maxQueue.Load()
		if q <= hi || m.maxQueue.CompareAndSwap(hi, q) {
			return
		}
	}
}

// dequeue retires one queued group and returns the remaining depth.
func (m *stageMetrics) dequeue() int64 { return m.queue.Add(-1) }

// snapshot renders the counters as a StageStats with the given worker
// count and busy-time divisor (1 for a stage whose busy time is wall
// time of a single ordering loop, workers for a stage that sums busy
// time across workers).
func (m *stageMetrics) snapshot(workers, busyDiv int) StageStats {
	st := StageStats{
		Workers:       workers,
		Groups:        m.groups.Load(),
		Fences:        m.fences.Load(),
		BusyNanos:     m.busy.Load(),
		QueueDepth:    max(m.queue.Load(), 0),
		MaxQueueDepth: m.maxQueue.Load(),
		Wakes:         m.wakes.Load(),
		Epochs:        m.epochs.Load(),
		CoalesceIn:    m.coalesceIn.Load(),
		CoalesceOut:   m.coalesceOut.Load(),
		LinesFlushed:  m.lines.Load(),
	}
	if s := m.start.Load(); s != 0 {
		st.WallNanos = uint64(time.Now().UnixNano() - s)
	}
	if st.WallNanos > 0 && busyDiv > 0 {
		st.Utilization = float64(st.BusyNanos) / float64(busyDiv) / float64(st.WallNanos)
	}
	return st
}

// StageStats is a utilization snapshot of one background stage.
type StageStats struct {
	// Workers is the configured worker count (PersistThreads or
	// ReproThreads).
	Workers int
	// Groups is the number of groups the stage has processed.
	Groups uint64
	// Fences is the number of persist barriers the stage has issued.
	Fences uint64
	// BusyNanos is time spent doing stage work: summed across workers
	// for Persist (log appends), wall time of the apply+fence section
	// for Reproduce.
	BusyNanos uint64
	// WallNanos is elapsed time since the stage started.
	WallNanos uint64
	// Utilization is BusyNanos normalized per worker over WallNanos,
	// in [0, 1] in steady state.
	Utilization float64
	// QueueDepth is the current backlog (sealed-but-unpersisted groups
	// for Persist, persisted-but-unreproduced groups for Reproduce).
	QueueDepth int64
	// MaxQueueDepth is the backlog high-water mark.
	MaxQueueDepth int64
	// Wakes counts the stage loop's returns from an idle park: for
	// Persist, the coordinator woken by a commit, a drained persist
	// queue, Close or Crash; for Reproduce, recycle-timer fires. Both
	// stay flat while the pool is idle — neither loop polls, and the
	// recycle timer is armed only when a recycle is pending.
	Wakes uint64
	// WindowDepth is the Persist stage's reserved-but-unretired
	// dispatch-sequence count (ModeAsync only; 0 elsewhere). It differs
	// from QueueDepth near the completion scan: a group leaves the
	// queue when its append finishes but leaves the window only when
	// the contiguous prefix passes it.
	WindowDepth uint64
	// Epochs counts coalesced replay epochs (Reproduce only): dense
	// backlog runs of 2..ReplayEpochGroups groups replayed under one
	// fence. It stays 0 under light load, when every group takes the
	// per-group fast path.
	Epochs uint64
	// CoalesceIn and CoalesceOut are the entries entering and surviving
	// last-writer-wins coalescing across epoch groups (Reproduce only);
	// In/Out is the replay-work reduction factor from coalescing.
	CoalesceIn  uint64
	CoalesceOut uint64
	// LinesFlushed counts the distinct cache lines replay wrote back
	// (Reproduce only) — the line-granular flush economy: without dedup
	// this would be one flush per 8-byte entry.
	LinesFlushed uint64
	// ReplRawBytes and ReplWireBytes are the replication sender's
	// cumulative shipped group payload before and after lz4 compression
	// (both zero when replication is not attached); their quotient is
	// the shipping compression ratio.
	ReplRawBytes  uint64
	ReplWireBytes uint64
}
