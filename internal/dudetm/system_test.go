package dudetm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
	"dudetm/internal/stm"
)

// testConfig returns a small, delay-free configuration.
func testConfig() Config {
	return Config{
		DataSize:    1 << 20,
		Threads:     4,
		VLogEntries: 1 << 12,
		LogBufBytes: 64 << 10,
	}
}

// variants enumerates the mode/engine/shadow combinations under test.
func variants() map[string]Config {
	v := map[string]Config{}
	base := testConfig()
	for _, m := range []struct {
		name string
		mode Mode
	}{{"async", ModeAsync}, {"sync", ModeSync}} {
		for _, e := range []struct {
			name string
			kind EngineKind
		}{{"stm", EngineSTM}, {"htm", EngineHTM}} {
			cfg := base
			cfg.Mode = m.mode
			cfg.Engine = e.kind
			v[m.name+"/"+e.name+"/flat"] = cfg
		}
	}
	paged := base
	paged.Shadow = ShadowSW
	paged.ShadowBytes = 64 << 10
	v["async/stm/swpaged"] = paged
	pagedHW := paged
	pagedHW.Shadow = ShadowHW
	v["async/stm/hwpaged"] = pagedHW
	return v
}

func TestBasicDurableTransactions(t *testing.T) {
	for name, cfg := range variants() {
		t.Run(name, func(t *testing.T) {
			s, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var last uint64
			for i := uint64(0); i < 100; i++ {
				tid, err := s.Run(0, func(tx *Tx) error {
					tx.Store(i*8, i+1)
					tx.Store((i+1)*8, tx.Load(i*8)*2)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				last = tid
			}
			s.WaitDurable(last)
			// Verify through a read-only transaction.
			_, err = s.Run(0, func(tx *Tx) error {
				if tx.Load(0) != 1 || tx.Load(8) != 2 {
					t.Errorf("got %d,%d", tx.Load(0), tx.Load(8))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			st := s.Stats()
			if st.Committed != 100 {
				t.Errorf("committed = %d", st.Committed)
			}
			if st.Durable < last || st.Reproduced < last {
				t.Errorf("after close: durable=%d reproduced=%d last=%d", st.Durable, st.Reproduced, last)
			}
		})
	}
}

func TestAbortAndErrorPaths(t *testing.T) {
	for name, cfg := range variants() {
		t.Run(name, func(t *testing.T) {
			s, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Run(0, func(tx *Tx) error { tx.Store(0, 7); return nil })
			if _, err := s.Run(0, func(tx *Tx) error {
				tx.Store(0, 99)
				tx.Abort()
				return nil
			}); !errors.Is(err, stm.ErrAborted) {
				t.Fatalf("err = %v", err)
			}
			boom := errors.New("boom")
			if _, err := s.Run(0, func(tx *Tx) error {
				tx.Store(0, 100)
				return boom
			}); !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			s.Run(0, func(tx *Tx) error {
				if v := tx.Load(0); v != 7 {
					t.Errorf("abort leaked: %d", v)
				}
				return nil
			})
		})
	}
}

func TestReadOnlyDurability(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wtid, _ := s.Run(0, func(tx *Tx) error { tx.Store(0, 1); return nil })
	s.WaitDurable(wtid)
	rtid, err := s.Run(0, func(tx *Tx) error { _ = tx.Load(0); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rtid > s.Durable() {
		t.Fatalf("read-only tid %d beyond durable %d", rtid, s.Durable())
	}
}

func TestConcurrentBank(t *testing.T) {
	for name, cfg := range variants() {
		t.Run(name, func(t *testing.T) {
			s, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const accounts = 32
			const initial = 100
			s.Run(0, func(tx *Tx) error {
				for i := uint64(0); i < accounts; i++ {
					tx.Store(i*8, initial)
				}
				return nil
			})
			var wg sync.WaitGroup
			for w := 0; w < cfg.Threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := uint64(w)*2654435761 + 7
					for i := 0; i < 300; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						src := (rng >> 30) % accounts
						dst := (rng >> 10) % accounts
						if src == dst {
							continue
						}
						s.Run(w, func(tx *Tx) error {
							b := tx.Load(src * 8)
							if b == 0 {
								tx.Abort()
							}
							tx.Store(src*8, b-1)
							tx.Store(dst*8, tx.Load(dst*8)+1)
							return nil
						})
					}
				}(w)
			}
			wg.Wait()
			s.Run(0, func(tx *Tx) error {
				var sum uint64
				for i := uint64(0); i < accounts; i++ {
					sum += tx.Load(i * 8)
				}
				if sum != accounts*initial {
					t.Errorf("sum = %d, want %d", sum, accounts*initial)
				}
				return nil
			})
			s.Close()
		})
	}
}

// restoreInto clones the persisted image of s's device into a fresh one.
func restoreInto(s *System) *pmem.Device {
	img := s.Device().PersistedImage()
	dev := pmem.New(pmem.Config{Size: s.Device().Size()})
	dev.Restore(img)
	return dev
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	for name, cfg := range variants() {
		t.Run(name, func(t *testing.T) {
			s, err := Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 50; i++ {
				s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1000); return nil })
			}
			s.Close()
			dev := restoreInto(s)

			s2, err := Recover(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			s2.Run(0, func(tx *Tx) error {
				for i := uint64(0); i < 50; i++ {
					if v := tx.Load(i * 8); v != i+1000 {
						t.Errorf("addr %d = %d, want %d", i*8, v, i+1000)
					}
				}
				return nil
			})
			// New transactions must work and be durable.
			tid, err := s2.Run(0, func(tx *Tx) error { tx.Store(400, 1); return nil })
			if err != nil {
				t.Fatal(err)
			}
			s2.WaitDurable(tid)
		})
	}
}

func TestCrashDurableNotReproduced(t *testing.T) {
	// Transactions persisted to the log but never applied to data:
	// recovery must replay them from the log.
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		cfg := testConfig()
		cfg.Mode = mode
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.PauseReproduce()
		var last uint64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := uint64(0); i < 20; i++ {
				tid, err := s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil })
				if err == nil {
					last = tid
				}
			}
		}()
		<-done
		s.WaitDurable(last)
		time.Sleep(20 * time.Millisecond) // let the persist loop go idle
		dev := restoreInto(s)
		s.ResumeReproduce()
		s.Close()

		s2, err := Recover(dev, cfg)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		s2.Run(0, func(tx *Tx) error {
			for i := uint64(0); i < 20; i++ {
				if v := tx.Load(i * 8); v != i+1 {
					t.Errorf("mode %d: addr %d = %d, want %d (durable tx lost)", mode, i*8, v, i+1)
				}
			}
			return nil
		})
		// The durability audit cross-checks the acked frontier against
		// the recovered image and attaches the forensic report on
		// failure.
		if err := s2.AuditRecovery(last); err != nil {
			t.Errorf("mode %d: %v", mode, err)
		}
		s2.Close()
	}
}

// TestRecoverGroupsSpanningLogs recovers an image whose acked groups
// were appended to logs 0 and 1 alternately, as a pool that dealt full
// groups to two persist writers laid them out. Recovery merges every
// log, so the whole dense run must come back, and audit clean; the
// remounted pool, which appends to log 0 only, must then survive a
// second crash with the older groups still in log 1.
func TestRecoverGroupsSpanningLogs(t *testing.T) {
	const groups, perGroup = 10, 3
	cfg := testConfig()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze both steps so only the appends below touch the logs.
	s.PausePersist()
	s.PauseReproduce()
	val := func(tid uint64) uint64 { return tid<<8 | 0xab }
	// Log 1 takes the odd groups, and they land first: completion order
	// across logs is not tid order.
	for _, wi := range []int{1, 0} {
		for g := uint64(wi); g < groups; g += 2 {
			grp := &redolog.Group{MinTid: g*perGroup + 1, MaxTid: (g + 1) * perGroup}
			for tid := grp.MinTid; tid <= grp.MaxTid; tid++ {
				grp.Entries = append(grp.Entries, redolog.Entry{Addr: tid * 8, Val: val(tid)})
			}
			s.writers[wi].AppendGroup(grp)
		}
	}
	img := s.Device().PersistedImage()
	s.ResumeReproduce()
	s.ResumePersist()
	s.Close()

	const acked = groups * perGroup
	remount := func(img []byte) *System {
		t.Helper()
		dev := pmem.New(pmem.Config{Size: uint64(len(img))})
		dev.Restore(img)
		r, err := Recover(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AuditRecovery(acked); err != nil {
			t.Fatal(err)
		}
		r.Run(0, func(tx *Tx) error {
			for tid := uint64(1); tid <= acked; tid++ {
				if got := tx.Load(tid * 8); got != val(tid) {
					t.Errorf("tid %d: word = %#x after recovery, want %#x", tid, got, val(tid))
				}
			}
			return nil
		})
		return r
	}
	r := remount(img)
	if got := r.Stats().Recovery.GroupsReplayed; got != groups {
		t.Errorf("replayed %d groups, want %d from both logs", got, groups)
	}
	var last uint64
	for i := uint64(1); i <= 20; i++ {
		if last, err = r.Run(0, func(tx *Tx) error { tx.Store(0x8000+i*8, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	r2 := remount(r.Crash())
	defer r2.Close()
	if err := r2.AuditRecovery(last); err != nil {
		t.Fatal(err)
	}
	r2.Run(0, func(tx *Tx) error {
		for i := uint64(1); i <= 20; i++ {
			if got := tx.Load(0x8000 + i*8); got != i {
				t.Errorf("post-remount write %d = %d after the second recovery", i, got)
			}
		}
		return nil
	})
}

func TestCrashCommittedNotPersisted(t *testing.T) {
	// Transactions that committed in Perform but whose logs never hit
	// NVM: after a crash they are gone — and they were never
	// acknowledged as durable, so that is the correct semantics.
	cfg := testConfig()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.PausePersist()
	time.Sleep(10 * time.Millisecond) // persist loop parks at the gate
	for i := uint64(0); i < 20; i++ {
		s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil })
	}
	if d := s.Durable(); d != 0 {
		t.Fatalf("durable = %d with persist paused", d)
	}
	dev := restoreInto(s)
	s.ResumePersist()
	s.Close()

	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < 20; i++ {
			if v := tx.Load(i * 8); v != 0 {
				t.Errorf("addr %d = %d: unacknowledged tx survived crash", i*8, v)
			}
		}
		return nil
	})
	if c := s2.Clock(); c != 0 {
		t.Errorf("recovered clock = %d, want 0", c)
	}
}

func TestCrashMidPipelineBankInvariant(t *testing.T) {
	cfg := testConfig()
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const accounts = 16
	const initial = 50
	init, _ := s.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < accounts; i++ {
			tx.Store(i*8, initial)
		}
		return nil
	})
	s.WaitDurable(init)
	// Freeze Reproduce mid-run so the crash happens with a deep log.
	s.PauseReproduce()
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	var last uint64
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*40503 + 11
			for i := 0; i < 100; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				src := (rng >> 30) % accounts
				dst := (rng >> 10) % accounts
				if src == dst {
					continue
				}
				tid, err := s.Run(w, func(tx *Tx) error {
					b := tx.Load(src * 8)
					if b == 0 {
						tx.Abort()
					}
					tx.Store(src*8, b-1)
					tx.Store(dst*8, tx.Load(dst*8)+1)
					return nil
				})
				if err == nil {
					lastMu.Lock()
					if tid > last {
						last = tid
					}
					lastMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	s.WaitDurable(last)
	time.Sleep(20 * time.Millisecond)
	dev := restoreInto(s)
	s.ResumeReproduce()
	s.Close()

	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AuditRecovery(last); err != nil {
		t.Errorf("durable regressed: %v", err)
	}
	s2.Run(0, func(tx *Tx) error {
		var sum uint64
		for i := uint64(0); i < accounts; i++ {
			sum += tx.Load(i * 8)
		}
		if sum != accounts*initial {
			t.Errorf("sum after crash+recovery = %d, want %d", sum, accounts*initial)
		}
		return nil
	})
}

func TestGroupCombination(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 50
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 200 transactions all hammering the same 4 words: combination
	// should collapse most entries. They commit while Persist is paused,
	// so the resumed coordinator finds them all ready and seals four
	// full groups.
	var last uint64
	s.PausePersist()
	for i := uint64(0); i < 200; i++ {
		last, _ = s.Run(0, func(tx *Tx) error {
			tx.Store((i%4)*8, i)
			return nil
		})
	}
	s.ResumePersist()
	s.WaitDurable(last)
	s.Close()
	st := s.Stats()
	if st.RawEntries != 200 {
		t.Fatalf("raw entries = %d", st.RawEntries)
	}
	if st.CombEntries >= st.RawEntries/10 {
		t.Fatalf("combination ineffective: %d -> %d", st.RawEntries, st.CombEntries)
	}
	// Final state must still be correct.
	dev := restoreInto(s)
	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Run(0, func(tx *Tx) error {
		// Last writes to words 0..3 were i=196..199.
		for w := uint64(0); w < 4; w++ {
			want := 196 + w
			if v := tx.Load(w * 8); v != want {
				t.Errorf("word %d = %d, want %d", w, v, want)
			}
		}
		return nil
	})
}

func TestCompressionEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 100
	cfg.Compress = true
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Committed under PausePersist, so the groups seal full.
	var last uint64
	s.PausePersist()
	for i := uint64(0); i < 500; i++ {
		last, _ = s.Run(0, func(tx *Tx) error {
			tx.Store((i%64)*8, 7) // compressible payload
			return nil
		})
	}
	s.ResumePersist()
	s.WaitDurable(last)
	s.Close()
	dev := restoreInto(s)
	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Run(0, func(tx *Tx) error {
		for w := uint64(0); w < 64; w++ {
			if v := tx.Load(w * 8); v != 7 {
				t.Errorf("word %d = %d", w, v)
			}
		}
		return nil
	})
}

func TestRunAfterClosePanics(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Run(0, func(tx *Tx) error { return nil })
}

func TestRecoverRejectsGarbage(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20})
	dev.Store8(0, 0xbad)
	dev.Persist(0, 8)
	if _, err := Recover(dev, testConfig()); err == nil {
		t.Fatal("garbage pool accepted")
	}
}

func TestPagedShadowEndToEnd(t *testing.T) {
	for _, kind := range []ShadowKind{ShadowSW, ShadowHW} {
		cfg := testConfig()
		cfg.Shadow = kind
		cfg.ShadowBytes = 32 << 10 // 8 frames of 4K over 1MB data: heavy paging
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Touch many pages, forcing eviction and swap-in waits.
		var last uint64
		for i := uint64(0); i < 200; i++ {
			addr := (i % 100) * 8192 // stride across pages
			last, _ = s.Run(int(i)%cfg.Threads, func(tx *Tx) error {
				tx.Store(addr, tx.Load(addr)+1)
				return nil
			})
		}
		s.WaitDurable(last)
		// Each of the 100 addresses incremented twice.
		s.Run(0, func(tx *Tx) error {
			for i := uint64(0); i < 100; i++ {
				if v := tx.Load(i * 8192); v != 2 {
					t.Errorf("kind %d: addr %d = %d, want 2", kind, i*8192, v)
				}
			}
			return nil
		})
		st := s.ShadowStats()
		if st.Faults == 0 {
			t.Errorf("kind %d: no faults recorded", kind)
		}
		s.Close()
	}
}

func TestStatsCounters(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		s.Run(0, func(tx *Tx) error {
			tx.Store(i*8, i)
			tx.Store(i*8+512, i)
			return nil
		})
	}
	s.Close()
	st := s.Stats()
	if st.Writes != 20 {
		t.Errorf("writes = %d", st.Writes)
	}
	if st.Committed != 10 {
		t.Errorf("committed = %d", st.Committed)
	}
	if st.Persist.Groups == 0 || st.LogBytes == 0 {
		t.Errorf("groups=%d logbytes=%d", st.Persist.Groups, st.LogBytes)
	}
	if st.Device.BytesFlushed == 0 {
		t.Errorf("no NVM writes recorded")
	}
}

// TestStatsCountersExactUnderConflicts: the Perform counters are per
// thread and summed by Stats, and must stay exact when two threads
// conflict. Writes counts every dtmWrite of every attempt, aborted ones
// included, so each thread counts its own Store calls; Committed counts
// the Runs that committed with writes. On the STM, slot 0 holds the hot
// word's stripe until slot 1 has retried once, so at least one conflict
// abort is certain; the contended loop after it adds more, and user
// aborts, error returns and read-only transactions that must count no
// commit.
func TestStatsCountersExactUnderConflicts(t *testing.T) {
	const (
		rounds = 2000
		hot    = 0
	)
	errUser := errors.New("user error")
	for _, engine := range []EngineKind{EngineSTM, EngineHTM} {
		cfg := testConfig()
		cfg.Threads = 2
		cfg.Engine = engine
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stores, commits [2]uint64 // each written by its slot's goroutine only
		// store counts a Store call once its arguments are evaluated: a
		// Load that conflicts first never reaches it.
		store := func(slot int, tx *Tx, addr, val uint64) {
			stores[slot]++
			tx.Store(addr, val)
		}
		var attempts1 atomic.Int64
		held := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			first := true
			if _, err := s.Run(0, func(tx *Tx) error {
				store(0, tx, hot, tx.Load(hot)+1)
				if first {
					first = false
					close(held)
					for engine == EngineSTM && attempts1.Load() < 2 {
						runtime.Gosched()
					}
				}
				return nil
			}); err != nil {
				t.Error(err)
			}
			commits[0]++
		}()
		go func() {
			defer wg.Done()
			<-held
			if _, err := s.Run(1, func(tx *Tx) error {
				attempts1.Add(1)
				store(1, tx, hot, tx.Load(hot)+1)
				return nil
			}); err != nil {
				t.Error(err)
			}
			commits[1]++
		}()
		wg.Wait()
		if engine == EngineSTM && s.Engine().Stats().Aborts == 0 {
			t.Fatal("stm: the held stripe forced no conflict abort")
		}

		wg.Add(2)
		for slot := 0; slot < 2; slot++ {
			go func(slot int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					switch i % 10 {
					case 7: // user abort after a write: rolled back, still counted
						_, err := s.Run(slot, func(tx *Tx) error {
							store(slot, tx, hot, tx.Load(hot)+1)
							tx.Abort()
							return nil
						})
						if !errors.Is(err, stm.ErrAborted) {
							t.Errorf("slot %d: abort returned %v", slot, err)
						}
					case 8: // error return after a write
						_, err := s.Run(slot, func(tx *Tx) error {
							store(slot, tx, hot, tx.Load(hot)+1)
							return errUser
						})
						if !errors.Is(err, errUser) {
							t.Errorf("slot %d: error return gave %v", slot, err)
						}
					case 9: // read-only: no write, no commit counted
						if _, err := s.Run(slot, func(tx *Tx) error { tx.Load(hot); return nil }); err != nil {
							t.Errorf("slot %d: %v", slot, err)
						}
					default:
						if _, err := s.Run(slot, func(tx *Tx) error {
							store(slot, tx, hot, tx.Load(hot)+1)
							store(slot, tx, uint64(64+slot*64+i%4*8), uint64(i))
							return nil
						}); err != nil {
							t.Errorf("slot %d: %v", slot, err)
						}
						commits[slot]++
					}
				}
			}(slot)
		}
		wg.Wait()
		st := s.Stats()
		s.Close()
		if want := stores[0] + stores[1]; st.Writes != want {
			t.Errorf("engine %d: Writes = %d, want %d (every Store of every attempt)", engine, st.Writes, want)
		}
		if want := commits[0] + commits[1]; st.Committed != want {
			t.Errorf("engine %d: Committed = %d, want %d", engine, st.Committed, want)
		}
		t.Logf("engine %d: %d writes, %d commits, %d conflict aborts", engine, st.Writes, st.Committed, st.TM.Aborts)
	}
}
