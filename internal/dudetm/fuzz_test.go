package dudetm

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dudetm/internal/pmem"
)

// TestCrashRecoveryFuzz drives randomized multi-threaded workloads
// through repeated crash/recover cycles, crashing with the pipeline
// frozen at random depths, and checks the fundamental contract after
// every recovery: the surviving state is exactly the writes of the
// transactions up to the recovered durable frontier — a prefix of the
// commit order, nothing more, nothing less.
func TestCrashRecoveryFuzz(t *testing.T) {
	const (
		rounds  = 6
		words   = 256
		txPerW  = 120
		workers = 3
	)
	type write struct {
		addr, val, tid uint64
	}

	rng := rand.New(rand.NewSource(99))
	cfg := testConfig()
	cfg.Threads = workers
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// All committed writes ever made, with their transaction IDs.
	var historyMu sync.Mutex
	var history []write

	for round := 0; round < rounds; round++ {
		// Optionally freeze a pipeline stage before the workload so the
		// crash catches the system at different depths. A frozen
		// Reproduce resumes on a dense backlog and replays it in
		// epochs; an unfrozen one mostly replays per group.
		freeze := rng.Intn(3) // 0: none, 1: reproduce, 2: persist+reproduce
		if freeze >= 1 {
			s.PauseReproduce()
		}
		if freeze == 2 {
			s.PausePersist()
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < txPerW; i++ {
					n := 1 + r.Intn(4)
					addrs := make([]uint64, n)
					vals := make([]uint64, n)
					for j := range addrs {
						addrs[j] = uint64(r.Intn(words)) * 8
						vals[j] = r.Uint64()
					}
					tid, err := s.Run(w, func(tx *Tx) error {
						for j := range addrs {
							tx.Store(addrs[j], vals[j])
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					historyMu.Lock()
					for j := range addrs {
						history = append(history, write{addrs[j], vals[j], tid})
					}
					historyMu.Unlock()
				}
			}(w, rng.Int63())
		}
		wg.Wait()

		// Quiesce whatever is still running, then crash.
		if freeze == 0 {
			// Let the pipeline make arbitrary progress, then freeze.
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			s.PausePersist()
			s.PauseReproduce()
		} else if freeze == 1 {
			s.PausePersist()
		}
		img := s.Device().PersistedImage()
		s.ResumePersist()
		s.ResumeReproduce()
		s.Close()

		dev := pmem.New(pmem.Config{Size: s.Device().Size()})
		dev.Restore(img)
		t.Logf("round %d: freeze=%d", round, freeze)
		s, err = Recover(dev, cfg)
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		frontier := s.Durable()

		// Drop lost transactions from the model: recovery keeps exactly
		// the dense prefix up to the frontier.
		historyMu.Lock()
		kept := history[:0]
		expect := map[uint64]write{}
		for _, wr := range history {
			if wr.tid > frontier {
				continue
			}
			kept = append(kept, wr)
			// >= so a later write in the same transaction wins.
			if cur, ok := expect[wr.addr]; !ok || wr.tid >= cur.tid {
				expect[wr.addr] = wr
			}
		}
		history = kept
		historyMu.Unlock()

		s.Run(0, func(tx *Tx) error {
			for addr, wr := range expect {
				if got := tx.Load(addr); got != wr.val {
					t.Errorf("round %d: addr %d = %#x, want %#x (tid %d <= frontier %d)",
						round, addr, got, wr.val, wr.tid, frontier)
				}
			}
			return nil
		})
		if t.Failed() {
			t.FailNow()
		}
	}
	s.Close()
}

// TestCrashRecoveryFuzzSyncMode runs a shorter variant in ModeSync,
// where per-thread logs flush out of order and recovery must anchor the
// dense prefix correctly.
func TestCrashRecoveryFuzzSyncMode(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeSync
	cfg.Threads = 3
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type write struct{ addr, val, tid uint64 }
	var mu sync.Mutex
	var history []write

	for round := 0; round < 4; round++ {
		s.PauseReproduce() // sync mode: txs durable, data region frozen
		var wg sync.WaitGroup
		for w := 0; w < cfg.Threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*10 + w)))
				for i := 0; i < 60; i++ {
					addr := uint64(r.Intn(128)) * 8
					val := r.Uint64()
					tid, err := s.Run(w, func(tx *Tx) error {
						tx.Store(addr, val)
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					history = append(history, write{addr, val, tid})
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		img := s.Device().PersistedImage()
		s.ResumeReproduce()
		s.Close()

		dev := pmem.New(pmem.Config{Size: s.Device().Size()})
		dev.Restore(img)
		s, err = Recover(dev, cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		frontier := s.Durable()
		expect := map[uint64]write{}
		mu.Lock()
		kept := history[:0]
		for _, wr := range history {
			if wr.tid > frontier {
				continue
			}
			kept = append(kept, wr)
			if cur, ok := expect[wr.addr]; !ok || wr.tid >= cur.tid {
				expect[wr.addr] = wr
			}
		}
		history = kept
		mu.Unlock()
		s.Run(0, func(tx *Tx) error {
			for addr, wr := range expect {
				if got := tx.Load(addr); got != wr.val {
					t.Errorf("round %d: addr %d = %#x, want %#x", round, addr, got, wr.val)
				}
			}
			return nil
		})
		if t.Failed() {
			t.FailNow()
		}
	}
	s.Close()
}

func TestInspect(t *testing.T) {
	cfg := testConfig()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.PauseReproduce()
	var last uint64
	for i := uint64(0); i < 10; i++ {
		last, _ = s.Run(0, func(tx *Tx) error { tx.Store(i*8, i); return nil })
	}
	s.WaitDurable(last)
	s.PausePersist()
	img := s.Device().PersistedImage()
	s.ResumePersist()
	s.ResumeReproduce()
	s.Close()

	dev := pmem.New(pmem.Config{Size: s.Device().Size()})
	dev.Restore(img)
	info, err := Inspect(dev)
	if err != nil {
		t.Fatal(err)
	}
	// The pool lays out one log per Perform thread.
	if info.NLogs != uint64(cfg.Threads) {
		t.Errorf("nlogs = %d, want %d", info.NLogs, cfg.Threads)
	}
	if info.Frontier != last {
		t.Errorf("frontier = %d, want %d", info.Frontier, last)
	}
	var live int
	for _, lg := range info.Logs {
		live += lg.LiveGroups
	}
	if live == 0 {
		t.Error("no live groups despite frozen reproduce")
	}
	// Inspect must agree with an actual recovery.
	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Durable() != info.Frontier {
		t.Errorf("recovery frontier %d != inspect %d", s2.Durable(), info.Frontier)
	}
}

func TestInspectRejectsGarbage(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20})
	if _, err := Inspect(dev); err == nil {
		t.Fatal("garbage accepted")
	}
}
