// Package park is the pipeline's one way to wait for a counter to
// reach a value (ring space, log space, the persist window, the
// reproduced ID) without a timer.
package park

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinBudget is how often Wait yields before it parks: most waits end
// within a few yields, for less than a park and wake cost.
const spinBudget = 64

// Frontier is a uint64 goroutines wait on. Store and Wake cost one
// atomic load while nobody is parked. A waiter counts itself parked and
// then re-checks; Store and Wake publish and then load the count. Go's
// atomics are sequentially consistent, so one side sees the other and
// no wakeup is lost.
type Frontier struct {
	v      atomic.Uint64
	parked atomic.Int32
	mu     sync.Mutex
	ch     chan struct{} // closed to release the parked waiters
}

// Load returns the current value.
func (f *Frontier) Load() uint64 { return f.v.Load() }

// Store publishes v and wakes the parked waiters.
func (f *Frontier) Store(v uint64) {
	f.v.Store(v)
	f.Wake()
}

// Wake makes the parked waiters re-check; whoever raises a waiter's
// stop flag calls it afterwards.
func (f *Frontier) Wake() {
	if f.parked.Load() == 0 {
		return
	}
	f.mu.Lock()
	if f.ch != nil {
		close(f.ch)
		f.ch = nil
	}
	f.mu.Unlock()
}

// Parked returns the number of goroutines parked in Wait.
func (f *Frontier) Parked() int { return int(f.parked.Load()) }

// Wait blocks until the value reaches min and reports true, or reports
// false once stop (nil for none) is raised first.
func (f *Frontier) Wait(min uint64, stop *atomic.Bool) bool {
	for spin := 0; ; spin++ {
		if f.v.Load() >= min {
			return true
		}
		if stop != nil && stop.Load() {
			return false
		}
		if spin < spinBudget {
			runtime.Gosched() // the waker is usually runnable already
			continue
		}
		f.mu.Lock()
		if f.ch == nil {
			f.ch = make(chan struct{})
		}
		ch := f.ch
		f.parked.Add(1)
		f.mu.Unlock()
		if f.v.Load() < min && (stop == nil || !stop.Load()) {
			<-ch
		}
		f.parked.Add(-1)
	}
}
