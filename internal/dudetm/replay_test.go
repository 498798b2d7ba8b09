package dudetm

import (
	"bytes"
	"testing"
	"time"

	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// replayShapes is one combined group whose runs hit every boundary the
// run-wise replay cuts at: cache lines, the runChunk staging buffer, plus the orders only a GroupSize-1 group
// can hold (descending and duplicate addresses).
func replayShapes() []redolog.Entry {
	var es []redolog.Entry
	add := func(addr uint64, n int) {
		for i := 0; i < n; i++ {
			es = append(es, redolog.Entry{Addr: addr + 8*uint64(i), Val: 0xc0de_0000_0000 | uint64(len(es)+1)})
		}
	}
	add(0x1000, 16)                // a 128-byte record: two whole lines
	add(0x2038, 2)                 // straddles a line boundary mid-run
	add(0x3008, 3)                 // inside one line
	add(0x40f8, 10)                // last word of a line, then the next line and a bit
	add(0x5000, 4*runChunk+5)      // longer than the staging buffer
	add(0x3020, 1)                 // a lone write into a line an earlier run dirtied
	add(0x1010, 2)                 // duplicates of the first run: last writer must win
	add(0x9040, 1)                 // descending lone writes
	add(0x9038, 1)                 //   (adjacent, but not a run: wrong order)
	add(0x9030, 1)                 //
	add(0xa000+3*pmem.LineSize, 8) // whole lines, out of order
	add(0xa000+1*pmem.LineSize, 8) //
	add(0xa000+2*pmem.LineSize, 8) //
	add(0xa000+0*pmem.LineSize, 8) //
	add(0xb000+pmem.LineSize-8, 1) // two lone writes either side of a line boundary
	add(0xb000+pmem.LineSize+8, 1) //
	return es
}

// TestRunWiseReplayMatchesWordWise holds the run-wise replay primitive
// to the word-at-a-time semantics it replaced: for a group whose runs
// straddle cache lines and the staging buffer, the persisted data image
// and the number of lines written back must be exactly what one Store8
// per entry followed by one write-back per dirty line leaves.
func TestRunWiseReplayMatchesWordWise(t *testing.T) {
	entries := replayShapes()
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Hold the Reproduce gate, as the loop itself does around every
	// replay: nothing else touches data.
	s.PauseReproduce()
	base, size := s.lay.dataOff, s.lay.dataSize

	// Reference: word-wise on a bare device of the same geometry.
	ref := pmem.New(pmem.Config{Size: s.dev.Size()})
	for _, e := range entries {
		ref.Store8(base+e.Addr, e.Val)
	}
	rb := ref.NewBatch()
	for _, e := range entries {
		rb.Flush(base+e.Addr, 8)
	}
	rb.Fence()
	want := ref.PersistedImage()[base : base+size]
	wantLines := ref.Stats().LinesFlushed

	dataLines := func() uint64 {
		for _, r := range s.dev.RegionStats() {
			if r.Name == "data" {
				return r.LinesFlushed
			}
		}
		t.Fatal("no data region")
		return 0
	}
	before := dataLines()
	reported := s.replayEpoch(s.dev.NewBatch(), []repoMsg{{g: &redolog.Group{Entries: entries}}})
	gotLines := dataLines() - before
	got := s.dev.PersistedImage()[base : base+size]
	s.ResumeReproduce()
	s.Close()

	if !bytes.Equal(got, want) {
		for off := 0; off < len(got); off += 8 {
			if !bytes.Equal(got[off:off+8], want[off:off+8]) {
				t.Fatalf("persisted data differs from word-wise replay at %#x: %x, want %x",
					off, got[off:off+8], want[off:off+8])
			}
		}
	}
	if gotLines != wantLines {
		t.Errorf("%d lines flushed, word-wise replay flushes %d", gotLines, wantLines)
	}
	if reported != wantLines {
		t.Errorf("replay reported %d lines, want %d", reported, wantLines)
	}

}

// TestEntryCountersStillCountWords: the run encoding changed how
// entries are serialized and replayed, not what the counters mean — a
// 16-word record is sixteen log entries before and after combination
// and sixteen entries replayed by recovery, not one run.
func TestEntryCountersStillCountWords(t *testing.T) {
	const txs, words = 20, 16
	cfg := testConfig()
	cfg.GroupSize = 1
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.PauseReproduce()
	var last uint64
	for i := uint64(0); i < txs; i++ {
		last, err = s.Run(0, func(tx *Tx) error {
			for j := uint64(0); j < words; j++ {
				tx.Store(i*words*8+j*8, i<<8|j)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.WaitDurable(last)
	time.Sleep(20 * time.Millisecond) // let the persist loop go idle
	st := s.Stats()
	if st.RawEntries != txs*words || st.CombEntries != txs*words {
		t.Errorf("raw/combined entries = %d/%d, want %d words each", st.RawEntries, st.CombEntries, txs*words)
	}
	// One header word per transaction's run instead of one per entry.
	if perTx := st.LogBytes / txs; perTx >= 16*words {
		t.Errorf("log bytes per tx = %d: the record's run was not encoded as one run", perTx)
	}
	dev := restoreInto(s)
	s.ResumeReproduce()
	s.Close()

	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Stats().Recovery
	if rec.EntriesReplayed != txs*words || rec.GroupsReplayed != txs {
		t.Errorf("recovery replayed %d entries in %d groups, want %d in %d",
			rec.EntriesReplayed, rec.GroupsReplayed, txs*words, txs)
	}
	if err := s2.AuditRecovery(last); err != nil {
		t.Error(err)
	}
	s2.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < txs; i++ {
			for j := uint64(0); j < words; j++ {
				if got := tx.Load(i*words*8 + j*8); got != i<<8|j {
					t.Fatalf("tx %d word %d = %#x after recovery", i, j, got)
				}
			}
		}
		return nil
	})
}
