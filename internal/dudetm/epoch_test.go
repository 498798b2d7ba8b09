package dudetm

import (
	"math/rand"
	"sync"
	"testing"

	"dudetm/internal/pmem"
)

// TestEpochReplayLastWriterWins pins the correctness core of replay
// epochs: when a dense backlog of groups is replayed under one fence,
// duplicate addresses must resolve to the LAST writer in transaction-ID
// order (the MOD property replay relies on). Every transaction
// overwrites the same shared line with values tagged by its index, so a
// first-writer or unordered replay would surface immediately; a unique
// per-transaction word, alone on its line, checks that the other
// entries survive untouched. Each fence writes back every line its
// epoch stored exactly once: the shared line once per fence, each
// unique line once. The per-group path runs the same workload with
// each transaction reproduced before the next commits, so no dense
// successor is ever queued.
func TestEpochReplayLastWriterWins(t *testing.T) {
	const (
		txs    = 256
		shared = 8 // words: exactly one line
		unique = 0x4000
	)
	for _, backlog := range []bool{true, false} {
		cfg := testConfig()
		cfg.GroupSize = 1 // one group per transaction: a deep dense run
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := "per-group"
		if backlog {
			// Freeze Reproduce so the whole workload queues as a dense
			// backlog, then release it: epoch formation slurps the
			// backlog and replays it in epochs.
			path = "epoch"
			s.PauseReproduce()
		}
		var last uint64
		for i := uint64(0); i < txs; i++ {
			last, err = s.Run(0, func(tx *Tx) error {
				for j := uint64(0); j < shared; j++ {
					tx.Store(j*8, i<<8|j)
				}
				tx.Store(unique+i*pmem.LineSize, i+1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !backlog {
				s.reproduced.Wait(last, nil)
			}
		}
		s.WaitDurable(last)
		if backlog {
			// The coordinator publishes a group's durability just before
			// handing it to Reproduce, inside its gated pass: taking the
			// gate waits out the last hand-off, so the whole backlog is
			// queued when Reproduce resumes.
			s.PausePersist()
			s.ResumePersist()
			s.ResumeReproduce()
		}
		s.Drain()

		st := s.Stats()
		if backlog {
			if st.Reproduce.Epochs == 0 {
				t.Errorf("%s: dense %d-group backlog formed no replay epochs", path, txs)
			}
			// The epoch economy: one replay fence per epoch of
			// replayEpochGroups groups, not one per group.
			if want := uint64(txs / replayEpochGroups); st.Reproduce.Fences > want {
				t.Errorf("%s: %d replay fences for %d groups, want at most %d",
					path, st.Reproduce.Fences, txs, want)
			}
		} else {
			if st.Reproduce.Epochs != 0 {
				t.Errorf("%s: replay epochs formed with no backlog queued: %d", path, st.Reproduce.Epochs)
			}
			if st.Reproduce.Fences != txs {
				t.Errorf("%s: %d replay fences for %d groups, want one per group", path, st.Reproduce.Fences, txs)
			}
		}
		// Every fence writes back the shared line once, and each unique
		// line is written back once overall.
		if want := st.Reproduce.Fences + txs; st.Reproduce.LinesFlushed != want {
			t.Errorf("%s: %d lines written back under %d fences, want %d (each distinct line once per fence)",
				path, st.Reproduce.LinesFlushed, st.Reproduce.Fences, want)
		}

		// The persistent data region must hold exactly the last writes.
		img := s.Crash()
		dev := pmem.New(pmem.Config{Size: s.Device().Size()})
		dev.Restore(img)
		s2, err := Recover(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s2.Run(0, func(tx *Tx) error {
			for j := uint64(0); j < shared; j++ {
				if got, want := tx.Load(j*8), uint64(txs-1)<<8|j; got != want {
					t.Errorf("%s: shared word %d = %#x, want %#x (not last writer)",
						path, j, got, want)
				}
			}
			for i := uint64(0); i < txs; i++ {
				if got := tx.Load(unique + i*pmem.LineSize); got != i+1 {
					t.Errorf("%s: unique word of tx %d = %d, want %d", path, i, got, i+1)
				}
			}
			return nil
		})
		s2.Close()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestCrashMidEpochRecovery is the crash drill for epoch replay: with
// replay epochs demonstrably running, freeze Reproduce, commit a
// durable tail so replay is strictly behind the acked frontier, then
// release the backlog and kill the system while its replay is in
// flight. The teardown path abandons the epoch-granular recycle
// bookkeeping wherever it stood (Crash never flushes pending
// recycles), so the image recovery sees has durable-but-unreplayed
// groups and stale recycle watermarks behind replay epochs. Recovery
// must reproduce the exact last-writer-wins image of every
// acknowledged transaction, the durability audit must accept the
// acked frontier, and a second recovery of the same crash image must
// agree word for word.
func TestCrashMidEpochRecovery(t *testing.T) {
	const (
		words   = 1024
		workers = 2
		txPerW  = 200 // per phase
	)
	cfg := testConfig()
	cfg.Threads = workers
	cfg.GroupSize = 1
	// One group per transaction with Reproduce frozen means nothing
	// recycles until the release below: size the logs for a whole
	// phase's backlog so Persist never blocks on space.
	cfg.LogBufBytes = 256 << 10
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type write struct{ addr, val, tid uint64 }
	var mu sync.Mutex
	var history []write
	var lastMu sync.Mutex
	var last uint64
	workload := func(phase int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(phase*workers+w)*131 + 7))
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
					mu.Lock()
					for j := range addrs {
						history = append(history, write{addrs[j], vals[j], tid})
					}
					mu.Unlock()
					lastMu.Lock()
					if tid > last {
						last = tid
					}
					lastMu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	// Phase 1: queue a dense backlog, release it, and drain — the epoch
	// replay path (and its recycle batching) has demonstrably run before
	// the crash round below.
	s.PauseReproduce()
	workload(0)
	s.ResumeReproduce()
	s.Drain()
	if s.Stats().Reproduce.Epochs == 0 {
		t.Fatal("no replay epochs formed from a dense backlog")
	}

	// Phase 2: freeze Reproduce again and commit a durable tail, so
	// replay is strictly behind the acked frontier by construction.
	s.PauseReproduce()
	workload(1)
	s.WaitDurable(last)
	preCrash := s.Stats()
	if preCrash.Reproduced >= last {
		t.Fatalf("replay not behind the frontier (reproduced=%d of %d): not a mid-epoch drill",
			preCrash.Reproduced, last)
	}

	// Release the backlog and kill the system while its epoch replay is
	// in flight.
	s.ResumeReproduce()
	img := s.Crash()
	t.Logf("crash issued with %d epochs applied, reproduced=%d of %d acked",
		preCrash.Reproduce.Epochs, preCrash.Reproduced, last)

	// Every transaction was acknowledged durable before the crash, so
	// recovery must surface all of them: the expected image is the
	// last-writer-wins fold of the full history.
	expect := map[uint64]write{}
	for _, wr := range history {
		if cur, ok := expect[wr.addr]; !ok || wr.tid >= cur.tid {
			expect[wr.addr] = wr
		}
	}
	recoverAndCheck := func(tag string) *System {
		dev := pmem.New(pmem.Config{Size: s.Device().Size()})
		dev.Restore(img)
		s2, err := Recover(dev, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if err := s2.AuditRecovery(last); err != nil {
			t.Fatalf("%s: durable regressed: %v", tag, err)
		}
		s2.Run(0, func(tx *Tx) error {
			for addr, wr := range expect {
				if got := tx.Load(addr); got != wr.val {
					t.Errorf("%s: addr %d = %#x, want %#x (tid %d)", tag, addr, got, wr.val, wr.tid)
				}
			}
			return nil
		})
		return s2
	}
	a := recoverAndCheck("first recovery")
	defer a.Close()
	b := recoverAndCheck("second recovery")
	defer b.Close()
	// Both recoveries of the same crash image must agree word for word
	// across the whole working set, written or not.
	imgA := make([]uint64, words)
	a.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < words; i++ {
			imgA[i] = tx.Load(i * 8)
		}
		return nil
	})
	b.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < words; i++ {
			if vb := tx.Load(i * 8); vb != imgA[i] {
				t.Errorf("recoveries disagree at addr %d: %#x vs %#x", i*8, imgA[i], vb)
			}
		}
		return nil
	})
}
