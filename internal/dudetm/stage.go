package dudetm

import (
	"sync/atomic"
	"time"
)

// coordWake is the Persist coordinator's park/wake handshake: a parked
// coordinator blocks on a 1-slot channel, never on a timer, and the
// waker that moves state back to coordRunning owns the one token it
// sends. The ordering is Dekker's: the coordinator stores its parked
// state and then re-checks for work; a waker publishes its work (a
// ring end mark, stopping) and then loads the state. Go's atomics are
// sequentially consistent, so one of the two always sees the other and
// no wakeup is lost.
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
	// coordIdle: parked, waiting for a commit's end mark (or Close,
	// Crash).
	coordIdle
)

// wake unparks the coordinator if it is parked (committers, Close,
// Crash).
func (w *coordWake) wake() {
	if w.state.Load() == coordIdle && w.state.CompareAndSwap(coordIdle, coordRunning) {
		w.ch <- struct{}{}
	}
}

// park blocks the coordinator unless ready reports work after the
// parked state is published. It reports whether it actually slept.
func (w *coordWake) park(ready func() bool) bool {
	w.state.Store(coordIdle)
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

	// Replay-epoch instrumentation (Reproduce only): epochs, entries
	// replayed in them (counted twice, as in and out, for the
	// coalescing ratio readers), and cache lines written back by replay.
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

// dequeue retires one queued group.
func (m *stageMetrics) dequeue() { m.queue.Add(-1) }

// snapshot renders the counters as a StageStats for a stage run by
// workers goroutines, whose busy time the counters sum.
func (m *stageMetrics) snapshot(workers int) StageStats {
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
	if st.WallNanos > 0 && workers > 0 {
		st.Utilization = float64(st.BusyNanos) / float64(workers) / float64(st.WallNanos)
	}
	return st
}

// StageStats is a utilization snapshot of one background stage.
type StageStats struct {
	// Workers is the number of goroutines doing the stage's work: 1
	// for Reproduce and for the ModeAsync Persist coordinator, Threads
	// for ModeSync Persist (each Perform thread appends its own log).
	Workers int
	// Groups is the number of groups the stage has processed.
	Groups uint64
	// Fences is the number of persist barriers the stage has issued.
	Fences uint64
	// BusyNanos is time spent doing stage work: log appends for
	// Persist (summed across Perform threads in ModeSync), the
	// apply+fence sections for Reproduce.
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
	// Persist, the coordinator woken by a commit, Close or Crash; for Reproduce, recycle-timer fires. Both
	// stay flat while the pool is idle — neither loop polls, and the
	// recycle timer is armed only when a recycle is pending.
	Wakes uint64
	// Epochs counts replay epochs (Reproduce only): dense backlog runs
	// of 2..replayEpochGroups groups replayed under one fence. It stays
	// 0 under light load, when every group is replayed on its own.
	Epochs uint64
	// CoalesceIn and CoalesceOut both count the log entries replayed
	// in epochs (Reproduce only). Epochs store every entry in tid order
	// and leave flush dedup to the dirty bit, so the two are equal and
	// In/Out reads 1; both stay for the readers of that ratio.
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
