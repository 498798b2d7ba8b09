package stm

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"dudetm/internal/word"
)

// flatSpace is a trivial Space for tests, with the atomic word access
// every Space implementation must provide (optimistic TM readers race
// with writers by design and rely on word atomicity).
type flatSpace struct{ b []byte }

func newFlat(size int) *flatSpace { return &flatSpace{b: word.Alloc(uint64(size))} }

func (f *flatSpace) Load8(addr uint64) uint64 { return word.Load(f.b, addr) }

func (f *flatSpace) Store8(addr, val uint64) { word.Store(f.b, addr, val) }

// engines returns both TM implementations over a fresh space.
func engines(size int) map[string]TM {
	return map[string]TM{
		"stm": New(newFlat(size), Config{OrecCount: 1 << 12}),
		"htm": NewHTM(newFlat(size), HTMConfig{}),
	}
}

func TestSingleThreadReadWrite(t *testing.T) {
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			tid, err := e.Run(0, func(tx Tx) error {
				tx.Store(0, 41)
				tx.Store(8, tx.Load(0)+1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if tid == 0 {
				t.Fatal("write transaction got tid 0")
			}
			_, err = e.Run(0, func(tx Tx) error {
				if tx.Load(0) != 41 || tx.Load(8) != 42 {
					t.Errorf("got %d,%d", tx.Load(0), tx.Load(8))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadOwnWrite(t *testing.T) {
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			_, err := e.Run(0, func(tx Tx) error {
				tx.Store(16, 7)
				if got := tx.Load(16); got != 7 {
					t.Errorf("read own write = %d", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUserAbortRollsBack(t *testing.T) {
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			if _, err := e.Run(0, func(tx Tx) error {
				tx.Store(0, 100)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			_, err := e.Run(0, func(tx Tx) error {
				tx.Store(0, 999)
				tx.Abort()
				return nil
			})
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
			e.Run(0, func(tx Tx) error {
				if v := tx.Load(0); v != 100 {
					t.Errorf("abort leaked: %d", v)
				}
				return nil
			})
		})
	}
}

func TestErrorReturnRollsBackWithoutRetry(t *testing.T) {
	wantErr := errors.New("business rule")
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			calls := 0
			_, err := e.Run(0, func(tx Tx) error {
				calls++
				tx.Store(0, 5)
				return wantErr
			})
			if !errors.Is(err, wantErr) {
				t.Fatalf("err = %v", err)
			}
			if calls != 1 {
				t.Fatalf("fn called %d times, want 1", calls)
			}
			e.Run(0, func(tx Tx) error {
				if v := tx.Load(0); v != 0 {
					t.Errorf("error path leaked: %d", v)
				}
				return nil
			})
		})
	}
}

func TestPanicPropagatesAfterRollback(t *testing.T) {
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("recover = %v", r)
					}
				}()
				e.Run(0, func(tx Tx) error {
					tx.Store(0, 1)
					panic("boom")
				})
			}()
			e.Run(0, func(tx Tx) error {
				if v := tx.Load(0); v != 0 {
					t.Errorf("panic path leaked: %d", v)
				}
				return nil
			})
		})
	}
}

func TestReadOnlyDoesNotAdvanceClock(t *testing.T) {
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			e.Run(0, func(tx Tx) error { tx.Store(0, 1); return nil })
			before := e.Clock()
			tid, err := e.Run(0, func(tx Tx) error { tx.Load(0); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if e.Clock() != before {
				t.Fatalf("clock advanced by read-only tx")
			}
			if tid > before {
				t.Fatalf("read-only tid %d > clock %d", tid, before)
			}
		})
	}
}

func TestSequentialTidsMonotonic(t *testing.T) {
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			var last uint64
			for i := 0; i < 100; i++ {
				tid, err := e.Run(0, func(tx Tx) error {
					tx.Store(0, uint64(i))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if tid <= last {
					t.Fatalf("tid %d not > %d", tid, last)
				}
				last = tid
			}
			if e.Clock() != last {
				t.Fatalf("clock %d != last tid %d", e.Clock(), last)
			}
		})
	}
}

func TestConcurrentCounter(t *testing.T) {
	const workers, iters = 8, 500
	for name, e := range engines(4096) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			tids := make([][]uint64, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tid, err := e.Run(w, func(tx Tx) error {
							tx.Store(0, tx.Load(0)+1)
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
						tids[w] = append(tids[w], tid)
					}
				}(w)
			}
			wg.Wait()
			e.Run(0, func(tx Tx) error {
				if v := tx.Load(0); v != workers*iters {
					t.Errorf("counter = %d, want %d", v, workers*iters)
				}
				return nil
			})
			// All write tids must be unique.
			var all []uint64
			for _, ts := range tids {
				all = append(all, ts...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			for i := 1; i < len(all); i++ {
				if all[i] == all[i-1] {
					t.Fatalf("duplicate tid %d", all[i])
				}
			}
		})
	}
}

func TestBankInvariant(t *testing.T) {
	const accounts = 64
	const workers, iters = 4, 400
	const initial = 1000
	for name, e := range engines(accounts * 8) {
		t.Run(name, func(t *testing.T) {
			e.Run(0, func(tx Tx) error {
				for i := 0; i < accounts; i++ {
					tx.Store(uint64(i*8), initial)
				}
				return nil
			})
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Auditor: scans total in a transaction; must always be conserved.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					e.Run(workers, func(tx Tx) error {
						var sum uint64
						for i := 0; i < accounts; i++ {
							sum += tx.Load(uint64(i * 8))
						}
						if sum != accounts*initial {
							t.Errorf("invariant broken: sum=%d", sum)
						}
						return nil
					})
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := uint64(w*2654435761 + 1)
					for i := 0; i < iters; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						src := (rng >> 33) % accounts
						dst := (rng >> 13) % accounts
						if src == dst {
							continue
						}
						e.Run(w, func(tx Tx) error {
							s := tx.Load(src * 8)
							if s == 0 {
								tx.Abort()
							}
							tx.Store(src*8, s-1)
							tx.Store(dst*8, tx.Load(dst*8)+1)
							return nil
						})
					}
				}(w)
			}
			// Let workers finish, then stop the auditor.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			// Workers are wg members too; signal auditor once workers drain.
			// Simpler: wait for workers via separate group is overkill; the
			// auditor loops until stop, so close stop after a full pass.
			close(stop)
			<-done
			// Final audit.
			e.Run(0, func(tx Tx) error {
				var sum uint64
				for i := 0; i < accounts; i++ {
					sum += tx.Load(uint64(i * 8))
				}
				if sum != accounts*initial {
					t.Errorf("final sum=%d", sum)
				}
				return nil
			})
		})
	}
}

func TestTornPairInvariant(t *testing.T) {
	// Writers keep words X and Y equal inside every transaction; readers
	// must never observe X != Y.
	const workers, iters = 4, 300
	for name, e := range engines(64) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if w%2 == 0 {
							e.Run(w, func(tx Tx) error {
								v := tx.Load(0) + 1
								tx.Store(0, v)
								tx.Store(8, v)
								return nil
							})
						} else {
							e.Run(w, func(tx Tx) error {
								if x, y := tx.Load(0), tx.Load(8); x != y {
									t.Errorf("torn read: %d != %d", x, y)
								}
								return nil
							})
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestSlotOutOfRangePanics(t *testing.T) {
	for name, e := range engines(64) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			e.Run(1000, func(tx Tx) error { return nil })
		})
	}
}

func TestSTMOrecCountValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two orec count")
		}
	}()
	New(newFlat(64), Config{OrecCount: 3})
}

func TestHTMFallbackCounted(t *testing.T) {
	sp := newFlat(64)
	e := NewHTM(sp, HTMConfig{MaxRetries: 0}) // MaxRetries 0 -> default 5
	e = NewHTM(sp, HTMConfig{MaxRetries: 1})
	const workers, iters = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e.Run(w, func(tx Tx) error {
					tx.Store(0, tx.Load(0)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if v := sp.Load8(0); v != workers*iters {
		t.Fatalf("counter = %d", v)
	}
	// With contention and MaxRetries=1 some fallbacks are expected, but
	// zero is also legal on a lightly loaded machine; just read stats.
	_ = e.Stats()
}

func TestStatsCommitsCount(t *testing.T) {
	for name, e := range engines(64) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				e.Run(0, func(tx Tx) error { tx.Store(0, 1); return nil })
			}
			if s := e.Stats(); s.Commits != 10 {
				t.Fatalf("commits = %d", s.Commits)
			}
		})
	}
}

func TestWriteWriteConflictSerializes(t *testing.T) {
	// Two slots repeatedly read-modify-write two words in opposite
	// order; with encounter-time locking and suicide contention
	// management this must not deadlock and must preserve atomicity.
	for name, e := range engines(64) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						e.Run(w, func(tx Tx) error {
							if w == 0 {
								tx.Store(0, tx.Load(0)+1)
								tx.Store(8, tx.Load(8)+1)
							} else {
								tx.Store(8, tx.Load(8)+1)
								tx.Store(0, tx.Load(0)+1)
							}
							return nil
						})
					}
				}(w)
			}
			wg.Wait()
			e.Run(0, func(tx Tx) error {
				if x, y := tx.Load(0), tx.Load(8); x != 1000 || y != 1000 {
					t.Errorf("got %d,%d want 1000,1000", x, y)
				}
				return nil
			})
		})
	}
}

// TestOrecStripes pins the four-word orec stripe on two slots. One lock
// covers the 32-byte stripe of four aligned words: writers of words in
// different stripes never conflict, so their transactions commit with
// no abort at all, and writers of different words in one stripe
// conflict on the shared lock but lose no update. Run it under -race.
func TestOrecStripes(t *testing.T) {
	const rounds = 2000
	e := New(newFlat(256), Config{OrecCount: 1 << 12, MaxSlots: 2})
	if e.orecFor(0) != e.orecFor(24) || e.orecFor(24) == e.orecFor(32) {
		t.Fatal("an orec must cover exactly the four aligned words of a 32-byte stripe")
	}
	// increment has each slot bump its own word rounds times.
	increment := func(addrs [2]uint64) {
		var wg sync.WaitGroup
		for slot := 0; slot < 2; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				a := addrs[slot]
				for i := 0; i < rounds; i++ {
					if _, err := e.Run(slot, func(tx Tx) error {
						tx.Store(a, tx.Load(a)+1)
						return nil
					}); err != nil {
						t.Error(err)
					}
				}
			}(slot)
		}
		wg.Wait()
		e.Run(0, func(tx Tx) error {
			for _, a := range addrs {
				if v := tx.Load(a); v != rounds {
					t.Errorf("word %d = %d after %d increments: an update was lost", a, v, rounds)
				}
			}
			return nil
		})
	}

	increment([2]uint64{0, 32}) // different stripes
	if a := e.Stats().Aborts; a != 0 {
		t.Errorf("writers of different stripes aborted %d times, want 0", a)
	}
	increment([2]uint64{64 + 8, 64 + 16}) // different words of one stripe
	t.Logf("same-stripe writers: %d conflict aborts", e.Stats().Aborts)
}
