package dudetm

import (
	"container/heap"
	"errors"
	"sync"
)

// Errors delivered to durability waiters when the pool dies before
// their transaction reaches the durable frontier.
var (
	// ErrCrashed is returned by WaitDurable and WaitDurableChan when a
	// simulated power failure (Crash) tore the system down while the
	// waited-for ID was still beyond the durable frontier: the
	// transaction was never acknowledged and is discarded by recovery.
	ErrCrashed = errors.New("dudetm: crashed before transaction became durable")
	// ErrClosed is returned when the pool was closed while a waiter was
	// subscribed for an ID the pipeline will never reach (an ID beyond
	// the commit clock at Close).
	ErrClosed = errors.New("dudetm: closed before transaction became durable")
)

// durNotifier is the one place anything waits for durability: a min-heap
// of single-ID waiters (WaitDurableChan) keyed by transaction ID, so one
// frontier advance releases every waiter the new frontier has passed in
// a single wake-up — the group-commit amortization a network server
// builds its acknowledgment path on.
//
// When the system crashes or closes, every remaining waiter is failed
// with the corresponding error, so no consumer can hang on an ID that
// will never become durable.
//
// It is not a park.Frontier: it hands each waiter its own channel,
// which the server selects on beside its socket, and it delivers an
// error, not only a release.
type durNotifier struct {
	mu       sync.Mutex
	frontier uint64
	failed   error
	// degraded is a soft, recoverable failure (replication quorum
	// lost): waiters beyond the frontier are failed with it, but unlike
	// failed it clears when the quorum heals and advances keep working.
	degraded error
	waiters  waiterHeap
	stats    NotifierStats
}

// NotifierStats counts group-commit release activity. Released much
// larger than Wakeups is the decoupling payoff made visible: many
// transactions acknowledged per durable-frontier advance.
type NotifierStats struct {
	// Wakeups is the number of frontier advances that released at least
	// one parked waiter.
	Wakeups uint64
	// Released is the number of parked waiters those advances released.
	Released uint64
	// MaxBatch is the most waiters released by a single advance.
	MaxBatch uint64
}

// durWaiter is one WaitDurableChan subscription. Its channel has
// capacity 1 and receives exactly one value, so the notifier never
// blocks delivering it.
type durWaiter struct {
	tid uint64
	ch  chan error
}

// wait returns a channel that receives nil once the durable frontier
// reaches tid, or an error if the system fails first. The result is
// delivered exactly once; the channel is buffered, so the caller may
// abandon it.
func (n *durNotifier) wait(tid uint64) <-chan error {
	ch := make(chan error, 1)
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case tid <= n.frontier:
		ch <- nil
	case n.failed != nil:
		ch <- n.failed
	case n.degraded != nil:
		ch <- n.degraded
	default:
		heap.Push(&n.waiters, durWaiter{tid: tid, ch: ch})
	}
	return ch
}

// advance publishes a new durable frontier: waiters at or below f are
// released together, and that release is counted as one wake-up.
func (n *durNotifier) advance(f uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil || f <= n.frontier {
		return
	}
	n.frontier = f
	var batch uint64
	for n.waiters.Len() > 0 && n.waiters[0].tid <= f {
		heap.Pop(&n.waiters).(durWaiter).ch <- nil
		batch++
	}
	if batch > 0 {
		n.stats.Wakeups++
		n.stats.Released += batch
		n.stats.MaxBatch = max(n.stats.MaxBatch, batch)
	}
}

// snapshot returns the release counters.
func (n *durNotifier) snapshot() NotifierStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// fail terminates the notifier: every remaining waiter receives err
// (their IDs are beyond the final frontier). Later wait calls observe
// the failure immediately; later advances are ignored.
func (n *durNotifier) fail(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil {
		return
	}
	n.failed = err
	for n.waiters.Len() > 0 {
		heap.Pop(&n.waiters).(durWaiter).ch <- err
	}
}

// setDegraded raises a soft failure: every parked waiter (all are
// beyond the frontier by construction) receives err, and later wait
// calls for IDs beyond the frontier fail immediately with it. Unlike
// fail, the notifier keeps working — advances still release IDs the
// frontier passes, and clearDegraded restores normal parking.
func (n *durNotifier) setDegraded(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed != nil || n.degraded != nil {
		return
	}
	n.degraded = err
	for n.waiters.Len() > 0 {
		heap.Pop(&n.waiters).(durWaiter).ch <- err
	}
}

// clearDegraded ends a soft failure raised by setDegraded.
func (n *durNotifier) clearDegraded() {
	n.mu.Lock()
	n.degraded = nil
	n.mu.Unlock()
}

// waiterHeap is a min-heap of waiters keyed by transaction ID.
type waiterHeap []durWaiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].tid < h[j].tid }
func (h waiterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)        { *h = append(*h, x.(durWaiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	*h = old[:len(old)-1]
	return m
}
