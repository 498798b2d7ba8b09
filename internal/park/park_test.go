package park

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked yields until n goroutines are parked on f, failing after 5 s.
func waitParked(t *testing.T, f *Frontier, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Parked() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked after 5s", f.Parked(), n)
		}
		runtime.Gosched()
	}
}

// within fails the test if wg has not drained after 5 s.
func within(t *testing.T, what string, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

func TestStoreReleasesEveryWaiter(t *testing.T) {
	var f Frontier
	const waiters = 8
	var wg sync.WaitGroup
	var released atomic.Int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(min uint64) {
			defer wg.Done()
			if !f.Wait(min, nil) {
				t.Error("Wait with no stop flag reported false")
			}
			released.Add(1)
		}(uint64(i%3) + 1)
	}
	waitParked(t, &f, waiters)
	if n := released.Load(); n != 0 {
		t.Fatalf("%d waiters returned before any Store", n)
	}
	f.Store(3)
	within(t, "waiters after one Store", &wg)
	if f.Parked() != 0 {
		t.Fatalf("%d waiters still counted as parked", f.Parked())
	}
}

func TestStoreBelowMinKeepsWaiterParked(t *testing.T) {
	var f Frontier
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Wait(10, nil)
	}()
	waitParked(t, &f, 1)
	f.Store(9)
	// The woken waiter re-checks, finds 9 < 10 and parks again.
	waitParked(t, &f, 1)
	f.Store(10)
	within(t, "waiter after reaching min", &wg)
}

func TestStopAndWakeReleaseParkedWaiter(t *testing.T) {
	var f Frontier
	var stop atomic.Bool
	var wg sync.WaitGroup
	var ok atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		ok.Store(f.Wait(1, &stop))
	}()
	waitParked(t, &f, 1)
	stop.Store(true)
	f.Wake()
	within(t, "stopped waiter", &wg)
	if ok.Load() {
		t.Fatal("Wait reported true with the value below min")
	}
	// A raised stop flag does not hide a value that is already there.
	f.Store(1)
	if !f.Wait(1, &stop) {
		t.Fatal("Wait reported false with the value at min")
	}
}

// TestNoLostWakeup hands a token back and forth through two frontiers
// many times. Each side yields a varying number of times before it
// stores, so under GOMAXPROCS=1 the other side spins out its budget
// and parks on many handoffs; a wakeup lost between the re-check and
// the park hangs the test.
func TestNoLostWakeup(t *testing.T) {
	const handoffs = 10000
	var ping, pong Frontier
	var parks atomic.Int64
	// send yields n times, then stores i into to.
	send := func(to *Frontier, i, n uint64) {
		for j := uint64(0); j < n%(2*spinBudget); j++ {
			runtime.Gosched()
		}
		if to.Parked() > 0 {
			parks.Add(1)
		}
		to.Store(i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= handoffs; i++ {
			send(&ping, i, i)
			pong.Wait(i, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= handoffs; i++ {
			ping.Wait(i, nil)
			send(&pong, i, 7*i)
		}
	}()
	within(t, "10000 handoffs", &wg)
	if parks.Load() == 0 {
		t.Fatal("no handoff found its receiver parked: the test never exercised the park path")
	}
	t.Logf("%d of %d stores found the receiver parked", parks.Load(), 2*handoffs)
}
