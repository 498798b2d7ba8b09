package dudetm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dudetm/internal/redolog"
)

// runWithin runs fn as one transaction on slot 0 and fails the test if
// Run has not returned within five seconds.
func runWithin(t *testing.T, s *System, fn func(*Tx) error) (uint64, error) {
	t.Helper()
	type result struct {
		tid uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		tid, err := s.Run(0, fn)
		done <- result{tid, err}
	}()
	select {
	case r := <-done:
		return r.tid, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5 s")
		return 0, nil
	}
}

// TestGroupSealsAtRecordLimit commits eight transactions that each fit
// a log record while Persist is paused, so the coordinator finds them
// all ready at once: sealing on GroupSize alone would put 16 K entries,
// twice the log, in one group and panic in its append. It must
// seal by the record limit instead — here one transaction per group —
// and every write must reach the durable image.
func TestGroupSealsAtRecordLimit(t *testing.T) {
	const txns, words = 8, 2048
	cfg := testConfig()
	cfg.VLogEntries, cfg.GroupSize = 1<<16, 64
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if limit := redolog.MaxGroupEntries(cfg.LogBufBytes); words > limit || 2*words <= limit {
		t.Fatalf("record limit %d entries: a %d-word transaction must fit it and two must not", limit, words)
	}
	s.PausePersist()
	var last uint64
	for i := uint64(0); i < txns; i++ {
		if last, err = s.Run(0, func(tx *Tx) error {
			for j := uint64(0); j < words; j++ {
				tx.Store((i*words+j)*8, i<<32|j)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	groups := s.PersistStats().Groups
	s.ResumePersist()
	if err := s.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if got := s.PersistStats().Groups - groups; got != txns {
		t.Errorf("%d transactions of %d words persisted as %d groups, want %d", txns, words, got, txns)
	}
	s.Crash()
	s2, err := Recover(restoreInto(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < txns; i++ {
			for j := uint64(0); j < words; j++ {
				if v := tx.Load((i*words + j) * 8); v != i<<32|j {
					t.Fatalf("tx %d word %d = %#x after recovery, want %#x", i, j, v, i<<32|j)
				}
			}
		}
		return nil
	})
}

// TestOversizedTxFails holds Run to its per-transaction limit on every
// mode and engine. A transaction one write past the limit fails with
// ErrTxTooLarge — it neither waits forever for ring space only its own
// end mark could free nor hands the Persist step a group larger than
// the log — and is rolled back with nothing logged, while the pool
// keeps serving; one of exactly the limit's writes commits and
// recovers. Two limits are driven: the volatile ring's (64 entries,
// ModeAsync only: ModeSync logs a transaction without it) and one log
// record's (4 094 scattered words in a 64 KiB log, whose record then
// fills the whole buffer).
func TestOversizedTxFails(t *testing.T) {
	for name, base := range variants() {
		if !strings.HasSuffix(name, "/flat") {
			continue
		}
		for _, lim := range []struct {
			name        string
			vlogEntries int
			want        int
		}{
			{"ring", 64, 63},
			{"record", 8192, redolog.MaxGroupEntries(64 << 10)},
		} {
			t.Run(name+"/"+lim.name, func(t *testing.T) {
				cfg := base
				cfg.VLogEntries = lim.vlogEntries
				s, err := Create(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := lim.want
				if cfg.Mode == ModeSync && lim.name == "ring" {
					want = redolog.MaxGroupEntries(cfg.LogBufBytes)
				}
				if got := s.maxTxWrites; got != want {
					t.Fatalf("maxTxWrites = %d, want %d", got, want)
				}
				// Scattered words: no two share a run, so every entry
				// costs the encoding's worst case.
				write := func(n int, val uint64) func(*Tx) error {
					return func(tx *Tx) error {
						for i := 0; i < n; i++ {
							tx.Store(uint64(i)*16, val)
						}
						return nil
					}
				}
				first, err := runWithin(t, s, write(10, 1))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.WaitDurable(first); err != nil {
					t.Fatal(err)
				}
				before := s.Stats()
				if _, err := runWithin(t, s, write(want+1, 2)); !errors.Is(err, ErrTxTooLarge) {
					t.Fatalf("transaction of %d writes: err = %v, want ErrTxTooLarge", want+1, err)
				}
				after := s.Stats()
				if after.Committed != before.Committed || after.LogBytes != before.LogBytes || after.Clock != before.Clock {
					t.Fatalf("refused transaction left a trace: committed %d -> %d, log bytes %d -> %d, clock %d -> %d",
						before.Committed, after.Committed, before.LogBytes, after.LogBytes, before.Clock, after.Clock)
				}
				runWithin(t, s, func(tx *Tx) error {
					for i := uint64(0); i < 10; i++ {
						if v := tx.Load(i * 16); v != 1 {
							t.Fatalf("word %d = %d after the refused transaction, want 1", i, v)
						}
					}
					return nil
				})
				last, err := runWithin(t, s, write(want, 3))
				if err != nil {
					t.Fatalf("transaction of exactly %d writes: %v", want, err)
				}
				if err := s.WaitDurable(last); err != nil {
					t.Fatal(err)
				}
				s.Crash()
				s2, err := Recover(restoreInto(s), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				s2.Run(0, func(tx *Tx) error {
					for i := uint64(0); i < uint64(want); i++ {
						if v := tx.Load(i * 16); v != 3 {
							t.Fatalf("word %d = %d after recovery, want 3", i, v)
						}
					}
					return nil
				})
			})
		}
	}
}

// TestDefaultRingCapsTransaction pins the transaction cap of an
// unreplicated pool at the default ring size: 16 383 writes, one short of
// the 16 Ki-entry ring (the end mark takes the last slot). A transaction
// of 16 384 writes fails with ErrTxTooLarge and is rolled back, and the
// next write still becomes durable. Only the data size departs from the
// defaults, so the pool stays small.
func TestDefaultRingCapsTransaction(t *testing.T) {
	const limit = 1<<14 - 1
	s, err := Create(Config{DataSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.maxTxWrites != limit {
		t.Fatalf("maxTxWrites = %d, want %d", s.maxTxWrites, limit)
	}
	if _, err := runWithin(t, s, func(tx *Tx) error {
		for i := uint64(0); i <= limit; i++ {
			tx.Store(i*8, i+1)
		}
		return nil
	}); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("transaction of %d writes: err = %v, want ErrTxTooLarge", limit+1, err)
	}
	if st := s.Stats(); st.Committed != 0 || st.Clock != 0 {
		t.Fatalf("refused transaction left a trace: committed %d, clock %d", st.Committed, st.Clock)
	}
	runWithin(t, s, func(tx *Tx) error {
		for i := uint64(0); i <= limit; i++ {
			if v := tx.Load(i * 8); v != 0 {
				t.Fatalf("word %d = %d after the refused transaction, want 0", i, v)
			}
		}
		return nil
	})
	last, err := runWithin(t, s, func(tx *Tx) error { tx.Store(8, 42); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s2, err := Recover(restoreInto(s), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Run(0, func(tx *Tx) error {
		if v0, v1 := tx.Load(0), tx.Load(8); v0 != 0 || v1 != 42 {
			t.Errorf("after recovery words 0, 1 = %d, %d; want 0, 42", v0, v1)
		}
		return nil
	})
}
