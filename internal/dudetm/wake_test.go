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

// parkedWith reports whether the coordinator is parked in state st with
// slot 0's ring fully consumed. Call it only from slot 0's goroutine.
func parkedWith(s *System, st int32) func() bool {
	return func() bool {
		return s.coord.state.Load() == st && s.threads[0].ring.Len() == 0
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
	waitUntil(t, "the coordinator to park", parkedWith(s, coordIdle))
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

// TestStopWhileParked checks that Close and Crash wake a parked
// coordinator, both with empty rings and with a partial group held
// behind an append blocked on the worker's gate.
func TestStopWhileParked(t *testing.T) {
	for _, stop := range []string{"close", "crash"} {
		for _, held := range []bool{false, true} {
			name := stop + "/empty"
			if held {
				name = stop + "/held"
			}
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				cfg.GroupSize, cfg.PersistThreads = 4, 1
				s, err := Create(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var last uint64
				if held {
					// The first commit seals alone (nothing else queued)
					// and blocks in its append; the next two are held.
					s.workerGates[0].Lock()
					store(t, s, 0, 1)
					waitUntil(t, "the first group's append", func() bool { return s.pm.queue.Load() == 1 })
					store(t, s, 0, 2)
					last = store(t, s, 0, 3)
					waitUntil(t, "the coordinator to hold a group", parkedWith(s, coordHolding))
				} else {
					last = store(t, s, 0, 1)
					s.Drain()
					waitUntil(t, "the coordinator to park", parkedWith(s, coordIdle))
				}
				do := s.Close
				if stop == "crash" {
					do = func() { s.Crash() }
				}
				if !held {
					within(t, stop, do)
				} else {
					done := make(chan struct{})
					go func() {
						defer close(done)
						do()
					}()
					// The stop must wake the coordinator; the worker it
					// then waits out is released only after that.
					waitUntil(t, stop+" to wake the coordinator", func() bool {
						return s.coord.state.Load() == coordRunning
					})
					s.workerGates[0].Unlock()
					within(t, stop, func() { <-done })
				}
				if stop == "close" && s.Durable() != last {
					t.Errorf("durable %d after Close, want %d", s.Durable(), last)
				}
			})
		}
	}
}

// TestHeldAppendJoinsOneGroup is group commit: transactions committed
// while the previous group's append is in flight are held and sealed
// together, as one group, once that append completes.
func TestHeldAppendJoinsOneGroup(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize, cfg.PersistThreads = 16, 2
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer within(t, "Close", s.Close)
	s.workerGates[0].Lock()
	store(t, s, 0, 1)
	waitUntil(t, "the first group's append", func() bool { return s.pm.queue.Load() == 1 })
	var last uint64
	for i := uint64(2); i <= 6; i++ {
		last = store(t, s, 0, i)
	}
	waitUntil(t, "the coordinator to hold a group", parkedWith(s, coordHolding))
	if d := s.Durable(); d != 0 {
		t.Fatalf("durable %d while the first append is blocked", d)
	}
	s.workerGates[0].Unlock()
	// The worker that finishes the first append must wake the holder.
	within(t, "WaitDurable", func() {
		if err := s.WaitDurable(last); err != nil {
			t.Error(err)
		}
	})
	if got := s.Stats().Persist.Groups; got != 2 {
		t.Errorf("%d groups for 1 + 5 commits around one held append, want 2", got)
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

// TestCrashWithFullWindow crashes the pool while the coordinator is
// parked on a full persist window behind a blocked append: Crash must
// wake it, since nothing completes a sequence once the pool halts.
func TestCrashWithFullWindow(t *testing.T) {
	cfg := testConfig()
	cfg.PersistThreads, cfg.GroupSize = 1, 1
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.workerGates[0].Lock()
	for i := uint64(0); i <= persistWindow; i++ {
		store(t, s, 0, i)
	}
	waitUntil(t, "the coordinator to park on the full window", func() bool { return s.window.done.Parked() > 0 })
	done := crashWhileParked(t, s)
	s.workerGates[0].Unlock()
	s2 := recoverAudited(t, s, cfg, done)
	within(t, "Close", s2.Close)
}

// TestCrashWithFullLog crashes the pool while a persist worker is
// parked waiting for log space that Reproduce can no longer recycle:
// worker 1 holds tid 2, so Reproduce stops at tid 1 and worker 0's log
// (odd tids, GroupSize 1) fills up behind it. Crash must halt the
// parked append instead of waiting for it forever, and the image must
// recover every acknowledged transaction.
func TestCrashWithFullLog(t *testing.T) {
	cfg := testConfig()
	cfg.PersistThreads, cfg.ReproThreads, cfg.GroupSize = 2, 1, 1
	cfg.VLogEntries = 1 << 16
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.workerGates[1].Lock()
	words := func(n int, base, val uint64) {
		t.Helper()
		if _, err := s.Run(0, func(tx *Tx) error {
			for i := uint64(0); i < uint64(n); i++ {
				tx.Store((base+i)*8, val)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	words(1, 0, 1)
	words(1, 1, 2)
	for i := uint64(0); i < 44; i++ {
		words(256, 2+256*i, 3+i)
	}
	// 22 records of 256 words leave under 20 KiB of worker 0's 64 KiB
	// log; this ~32 KiB record must wrap and wait for recycles.
	words(4000, 2+256*44, 47)
	waitUntil(t, "worker 0 to park on log space", s.writers[0].Waiting)
	done := crashWhileParked(t, s)
	s.workerGates[1].Unlock()
	s2 := recoverAudited(t, s, cfg, done)
	defer within(t, "Close", s2.Close)
	acked := s.Durable()
	if acked < 1 || acked >= 47 {
		t.Fatalf("durable %d at crash, want the frontier stopped in [1, 47)", acked)
	}
	s2.Run(0, func(tx *Tx) error {
		for tid := uint64(1); tid <= acked; tid++ {
			addr := tid - 1 // tids 1 and 2 wrote one word each
			if tid > 2 {
				addr = 2 + 256*(tid-3)
			}
			if got := tx.Load(addr * 8); got != tid {
				t.Errorf("acked tid %d: word %d = %d after recovery", tid, addr, got)
			}
		}
		return nil
	})
}
