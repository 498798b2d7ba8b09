package dudetm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dudetm/internal/pmem"
)

// TestWaitDurableCrashRace drives many concurrent WaitDurable callers —
// for committed IDs, for IDs near the frontier, and for IDs that will
// never be assigned — against a racing Crash. Every waiter must return:
// nil only if its ID is covered by the post-crash durable frontier,
// ErrCrashed otherwise. A hang here is the bug the notifier exists to
// prevent.
func TestWaitDurableCrashRace(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"async", ModeAsync}, {"sync", ModeSync}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = mode.mode
			s, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var last uint64
			for i := uint64(0); i < 200; i++ {
				tid, err := s.Run(int(i)%cfg.Threads, func(tx *Tx) error {
					tx.Store(i%64*8, i)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				last = tid
			}

			const waiters = 96
			results := make([]error, waiters)
			tids := make([]uint64, waiters)
			var wg sync.WaitGroup
			var started sync.WaitGroup
			for w := 0; w < waiters; w++ {
				// A third wait for committed IDs, a third for the last
				// ID, a third for IDs beyond the clock (never issued).
				tid := last - uint64(w%10)
				if w%3 == 1 {
					tid = last
				} else if w%3 == 2 {
					tid = last + 1 + uint64(w)
				}
				tids[w] = tid
				wg.Add(1)
				started.Add(1)
				go func(w int, tid uint64) {
					defer wg.Done()
					started.Done()
					if w%2 == 0 {
						results[w] = s.WaitDurable(tid)
					} else {
						results[w] = <-s.WaitDurableChan(tid)
					}
				}(w, tid)
			}
			started.Wait()
			img := s.Crash()

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("waiters hung across Crash")
			}

			frontier := s.Durable()
			for w, err := range results {
				if tids[w] <= frontier && err != nil {
					t.Errorf("waiter %d (tid %d <= frontier %d): unexpected error %v", w, tids[w], frontier, err)
				}
				if tids[w] > frontier && !errors.Is(err, ErrCrashed) {
					t.Errorf("waiter %d (tid %d > frontier %d): got %v, want ErrCrashed", w, tids[w], frontier, err)
				}
			}

			// Waiters arriving after the crash fail immediately.
			if err := s.WaitDurable(last + 1000); !errors.Is(err, ErrCrashed) {
				t.Errorf("post-crash WaitDurable: got %v, want ErrCrashed", err)
			}

			// The image remounts, and every ID at or below the crash
			// frontier recovered.
			dev := pmem.New(pmem.Config{Size: uint64(len(img))})
			dev.Restore(img)
			s2, err := Recover(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Durable() < frontier {
				t.Errorf("recovered durable %d < crash frontier %d", s2.Durable(), frontier)
			}
		})
	}
}

// TestNotifierUnit exercises a zero-value durNotifier on its own:
// immediate resolution, batch release with its counters, and failure
// strand-freedom.
func TestNotifierUnit(t *testing.T) {
	var n durNotifier

	// Already-durable waits resolve immediately and are not releases.
	n.advance(10)
	if err := <-n.wait(7); err != nil {
		t.Fatal(err)
	}
	if st := n.snapshot(); st != (NotifierStats{}) {
		t.Errorf("nobody was parked, yet stats = %+v", st)
	}
	// A batch of parked waiters is released by one advance.
	chans := make([]<-chan error, 20)
	for i := range chans {
		chans[i] = n.wait(uint64(11 + i))
	}
	n.advance(30)
	for i, ch := range chans {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("waiter %d: %v", i, err)
			}
		default:
			t.Fatalf("waiter %d (tid %d) still parked at frontier 30", i, 11+i)
		}
	}
	want := NotifierStats{Wakeups: 1, Released: 20, MaxBatch: 20}
	if st := n.snapshot(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// An advance that releases nobody is not a wakeup; a stale one is
	// not even an advance.
	beyond := n.wait(50)
	n.advance(40)
	n.advance(35)
	if st := n.snapshot(); st != want {
		t.Errorf("stats after advances that released nobody = %+v, want %+v", st, want)
	}
	n.advance(50)
	if err := <-beyond; err != nil {
		t.Fatal(err)
	}
	want = NotifierStats{Wakeups: 2, Released: 21, MaxBatch: 20}
	if st := n.snapshot(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// Failure strands no one, before or after, and is not a release.
	parked := n.wait(1000)
	n.fail(ErrCrashed)
	if err := <-parked; !errors.Is(err, ErrCrashed) {
		t.Errorf("parked waiter across fail: got %v, want ErrCrashed", err)
	}
	if err := <-n.wait(999); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-failure waiter: got %v, want ErrCrashed", err)
	}
	if err := <-n.wait(50); err != nil {
		t.Errorf("covered tid must stay nil after failure: %v", err)
	}
	n.advance(2000) // ignored: the frontier is final
	if err := <-n.wait(1500); !errors.Is(err, ErrCrashed) {
		t.Errorf("advance after fail moved the frontier: got %v", err)
	}
	if st := n.snapshot(); st != want {
		t.Errorf("stats after fail = %+v, want %+v", st, want)
	}
}

// TestWaitDurableCloseUnblocks: a waiter for an ID beyond the clock
// must be failed with ErrClosed by Close rather than hang.
func TestWaitDurableCloseUnblocks(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tid, err := s.Run(0, func(tx *Tx) error {
		tx.Store(0, 7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.WaitDurable(tid + 100) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung across Close")
	}
}
