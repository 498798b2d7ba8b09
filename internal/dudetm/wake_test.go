package dudetm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dudetm/internal/pmem"
)

// The Persist coordinator's park/wake tests. They run in scripts/check.sh
// under GOMAXPROCS=1 as well, where a coordinator that spins instead of
// parking starves its committers and a lost wakeup hangs the pool.

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// within runs f and fails the test if it has not returned after 5 s.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// parkedIdle reports whether the coordinator is parked with slot 0's
// ring fully consumed. Call it only from slot 0's goroutine.
func parkedIdle(s *System) func() bool {
	return func() bool {
		return s.coord.state.Load() == coordIdle && s.threads[0].ring.Len() == 0
	}
}

func store(t *testing.T, s *System, slot int, addr uint64) uint64 {
	t.Helper()
	tid, err := s.Run(slot, func(tx *Tx) error {
		tx.Store(addr%(1<<14)*8, addr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

// TestIdleCoordinatorNoWakes checks that a drained coordinator parks
// with no timer: it takes no wake-up while nothing commits.
func TestIdleCoordinatorNoWakes(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 8
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer within(t, "Close", s.Close)
	// Each commit waits out its durability, so the coordinator parks
	// between them and every commit is a wake.
	for i := uint64(0); i < 200; i++ {
		tid := store(t, s, 0, i)
		within(t, "WaitDurable", func() {
			if err := s.WaitDurable(tid); err != nil {
				t.Error(err)
			}
		})
	}
	s.Drain()
	waitUntil(t, "the coordinator to park", parkedIdle(s))
	before := s.PersistStats().Wakes
	if before == 0 {
		t.Fatal("no coordinator wake counted across 200 commits")
	}
	time.Sleep(50 * time.Millisecond)
	if got := s.PersistStats().Wakes; got != before {
		t.Errorf("idle coordinator woke %d times in 50ms", got-before)
	}
	if st := s.coord.state.Load(); st != coordIdle {
		t.Errorf("coordinator state %d after 50ms idle, want parked idle", st)
	}
}

// TestNoLostWakeup runs every committer to durability one transaction
// at a time on a single processor: each WaitDurable depends on the
// coordinator having been woken for exactly that commit.
func TestNoLostWakeup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const slots, perSlot = 4, 5000
	for _, gs := range []int{1, 8} {
		cfg := testConfig()
		cfg.Threads, cfg.GroupSize = slots, gs
		// Tracing off: at 40 000 commits on one processor the
		// critical-path collector falls minutes behind under -race, and
		// Close waits it out.
		cfg.TraceSampleEvery = -1
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan string, slots)
		for slot := 0; slot < slots; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for i := uint64(0); i < perSlot; i++ {
					tid, err := s.Run(slot, func(tx *Tx) error {
						tx.Store(uint64(slot)*8, i)
						return nil
					})
					if err != nil {
						errs <- err.Error()
						return
					}
					select {
					case err := <-s.WaitDurableChan(tid):
						if err != nil {
							errs <- err.Error()
							return
						}
					case <-time.After(5 * time.Second):
						errs <- "WaitDurable hung for 5s: lost wakeup"
						return
					}
				}
			}(slot)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("GroupSize %d: %s", gs, e)
		}
		if got, want := s.Durable(), uint64(slots*perSlot); got != want {
			t.Errorf("GroupSize %d: durable %d, want %d", gs, got, want)
		}
		within(t, "Close", s.Close)
	}
}

// fillLog pauses Reproduce, so nothing recycles, and commits 1000-word
// transactions one at a time until the coordinator's append of one of
// them parks waiting for log space. It returns every transaction's tid
// and first word address, in commit order; all but the last are
// durable.
func fillLog(t *testing.T, s *System) (tids, addrs []uint64) {
	t.Helper()
	const words = 1000
	s.PauseReproduce()
	for base := uint64(0); ; base += words {
		tid, err := s.Run(0, func(tx *Tx) error {
			for i := uint64(0); i < words; i++ {
				tx.Store((base+i)*8, uint64(len(tids)+1))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tids, addrs = append(tids, tid), append(addrs, base*8)
		waitUntil(t, "the append to finish or park", func() bool {
			return s.Durable() >= tid || s.writers[0].Waiting()
		})
		if s.writers[0].Waiting() {
			return tids, addrs
		}
	}
}

// TestStopWhileParked checks that Close and Crash stop the coordinator
// both when it is parked idle with empty rings and when it is parked in
// an append waiting for log space, with later commits held behind it.
// Close drains the held commits once Reproduce frees space; Crash
// releases the parked append without it.
func TestStopWhileParked(t *testing.T) {
	for _, stop := range []string{"close", "crash"} {
		for _, held := range []bool{false, true} {
			name := stop + "/empty"
			if held {
				name = stop + "/held"
			}
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				cfg.GroupSize = 4
				s, err := Create(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var last uint64
				if held {
					fillLog(t, s)
					store(t, s, 0, 1)
					last = store(t, s, 0, 2)
				} else {
					last = store(t, s, 0, 1)
					s.Drain()
					waitUntil(t, "the coordinator to park", parkedIdle(s))
				}
				if stop == "crash" {
					done := crashWhileParked(t, s)
					if held {
						// Reproduce is still paused, so only Crash can
						// release the parked append.
						waitUntil(t, "Crash to release the parked append", func() bool { return !s.writers[0].Waiting() })
						s.ResumeReproduce()
					}
					within(t, "Close", recoverAudited(t, s, cfg, done).Close)
					return
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					s.Close()
				}()
				if held {
					waitUntil(t, "Close to stop the pipeline", s.stopping.Load)
					s.ResumeReproduce()
				}
				within(t, stop, func() { <-done })
				if s.Durable() != last {
					t.Errorf("durable %d after Close, want %d", s.Durable(), last)
				}
			})
		}
	}
}

// TestHeldAppendJoinsOneGroup is group commit: transactions committed
// while the coordinator's append is parked on log space are held and
// sealed together, as one group, once that append completes.
func TestHeldAppendJoinsOneGroup(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 16
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer within(t, "Close", s.Close)
	tids, _ := fillLog(t, s)
	parked := tids[len(tids)-1]
	groups := s.Stats().Persist.Groups
	var last uint64
	for i := uint64(1); i <= 5; i++ {
		last = store(t, s, 0, i)
	}
	if d := s.Durable(); d >= parked {
		t.Fatalf("durable %d while the append of tid %d is parked", d, parked)
	}
	s.ResumeReproduce()
	within(t, "WaitDurable", func() {
		if err := s.WaitDurable(last); err != nil {
			t.Error(err)
		}
	})
	if got := s.Stats().Persist.Groups - groups; got != 2 {
		t.Errorf("%d groups for the parked append + 5 commits held behind it, want 2", got)
	}
}

// crashWhileParked starts s.Crash and waits until it has halted the
// pipeline, so the caller can release the gate its pipeline is parked
// behind; done then delivers the crash image.
func crashWhileParked(t *testing.T, s *System) (done <-chan []byte) {
	t.Helper()
	img := make(chan []byte, 1)
	go func() { img <- s.Crash() }()
	waitUntil(t, "Crash to halt the pipeline", s.halted.Load)
	return img
}

// recoverAudited waits out the crash image and recovers it, auditing
// every tid the crashed s acknowledged.
func recoverAudited(t *testing.T, s *System, cfg Config, done <-chan []byte) *System {
	t.Helper()
	var image []byte
	within(t, "Crash", func() { image = <-done })
	dev := pmem.New(pmem.Config{Size: s.Device().Size()})
	dev.Restore(image)
	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AuditRecovery(s.Durable()); err != nil {
		t.Fatal(err)
	}
	return s2
}

// TestCrashWithFullLog crashes the pool while the coordinator is parked
// in an append waiting for log space that Reproduce (paused) can no
// longer recycle. Crash must halt the parked append instead of waiting
// for it forever, and the image must recover every acknowledged
// transaction.
func TestCrashWithFullLog(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 1
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tids, addrs := fillLog(t, s)
	done := crashWhileParked(t, s)
	waitUntil(t, "Crash to release the parked append", func() bool { return !s.writers[0].Waiting() })
	s.ResumeReproduce()
	s2 := recoverAudited(t, s, cfg, done)
	defer within(t, "Close", s2.Close)
	acked := s.Durable()
	if acked != tids[len(tids)-2] {
		t.Fatalf("durable %d at crash, want %d: every append but the parked one", acked, tids[len(tids)-2])
	}
	s2.Run(0, func(tx *Tx) error {
		for i, tid := range tids {
			if tid > acked {
				break
			}
			if got := tx.Load(addrs[i]); got != uint64(i+1) {
				t.Errorf("acked tid %d: word %#x = %d after recovery, want %d", tid, addrs[i], got, i+1)
			}
		}
		return nil
	})
}
