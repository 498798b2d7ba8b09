package main

import (
	"testing"

	"dudetm/internal/dudetm"
	"dudetm/internal/pmem"
)

// TestVerifyReport pins `forensics -verify`: the report decoded from a
// crash image passes against a recovery of that image, and a report
// whose frontier was altered is refused.
func TestVerifyReport(t *testing.T) {
	s, err := dudetm.Create(dudetm.Config{DataSize: 1 << 20, Threads: 1, LogBufBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(0); i < 30; i++ {
		if last, err = s.Run(0, func(tx *dudetm.Tx) error { tx.Store(i*8, i+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	img := s.Crash()

	dev := pmem.New(pmem.Config{Size: uint64(len(img))})
	dev.Restore(img)
	rep, err := dudetm.Forensics(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogFrontier < last {
		t.Fatalf("report frontier %d below acked tid %d", rep.LogFrontier, last)
	}
	if err := verifyReport(img, rep); err != nil {
		t.Errorf("matching report refused: %v", err)
	}
	for _, frontier := range []uint64{rep.LogFrontier - 1, rep.LogFrontier + 1} {
		altered := *rep
		altered.LogFrontier = frontier
		if err := verifyReport(img, &altered); err == nil {
			t.Errorf("report with frontier %d accepted; recovery restores %d", frontier, rep.LogFrontier)
		}
	}
}
