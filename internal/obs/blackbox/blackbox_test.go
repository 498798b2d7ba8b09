package blackbox

import (
	"hash/crc32"
	"testing"

	"dudetm/internal/pmem"
)

func newRing(t *testing.T, entries uint64) (*pmem.Device, *Recorder) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: Size(entries) + 4096})
	Format(dev, 0, entries)
	r, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dev, r
}

func TestStampSyncDecode(t *testing.T) {
	dev, r := newRing(t, 8)
	r.Stamp(KindBoot, 0, 1, 0)
	r.Stamp(KindStall, 1, 4, 4)
	r.Stamp(KindStall, 2, 5, 4)
	r.Sync()

	dev.Crash()
	recs, torn, err := Decode(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Errorf("torn = %d, want 0", torn)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	want := []struct {
		kind    Kind
		a, b, c uint64
	}{
		{KindBoot, 0, 1, 0},
		{KindStall, 1, 4, 4},
		{KindStall, 2, 5, 4},
	}
	for i, w := range want {
		got := recs[i]
		if got.Seq != uint64(i+1) || got.Kind != w.kind || got.A != w.a || got.B != w.b || got.C != w.c {
			t.Errorf("recs[%d] = %+v, want seq %d kind %v a/b/c %d/%d/%d",
				i, got, i+1, w.kind, w.a, w.b, w.c)
		}
		if got.At == 0 {
			t.Errorf("recs[%d] has no timestamp", i)
		}
	}
}

func TestUnsyncedStampLostOnCrash(t *testing.T) {
	dev, r := newRing(t, 8)
	r.Stamp(KindBoot, 1, 1, 1)
	r.Sync()
	r.Stamp(KindStall, 1, 0, 0) // never synced
	dev.Crash()
	recs, torn, err := Decode(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != KindBoot {
		t.Fatalf("decoded %v, want only the synced boot stamp", recs)
	}
	if torn != 0 {
		t.Errorf("torn = %d, want 0 (lost line reverts to zero, not garbage)", torn)
	}
}

func TestWrapKeepsNewestAndResumes(t *testing.T) {
	dev, r := newRing(t, 4)
	for i := uint64(1); i <= 10; i++ {
		r.Stamp(KindStall, i, 0, 0)
	}
	r.Sync()
	recs, _, err := Decode(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("decoded %d records, want ring capacity 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("recs[%d].Seq = %d, want %d (newest survive, in order)", i, rec.Seq, want)
		}
	}

	// Reopening resumes after the highest surviving stamp.
	r2, err := Open(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2.Stamp(KindBoot, 0, 0, 0)
	r2.Sync()
	recs, _, _ = Decode(dev, 0)
	last := recs[len(recs)-1]
	if last.Seq != 11 || last.Kind != KindBoot {
		t.Errorf("post-reopen tail = %+v, want boot at seq 11", last)
	}
}

func TestTornSlotCounted(t *testing.T) {
	dev, r := newRing(t, 8)
	r.Stamp(KindStall, 1, 0, 0)
	r.Sync()
	// Corrupt one word of a second, half-written stamp: the slot CRC
	// fails, so it must count as torn, not decode as an event.
	r.Stamp(KindStall, 2, 0, 0)
	dev.Store8(HeaderBytes+2*SlotBytes+24, 0xdeadbeef)
	r.Sync()
	recs, torn, err := Decode(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 {
		t.Errorf("torn = %d, want 1", torn)
	}
	if len(recs) != 1 || recs[0].A != 1 {
		t.Errorf("recs = %v, want only the intact stamp", recs)
	}
}

// TestStampPathAllocs pins the acceptance criterion: zero allocations on
// the steady-state stamp path, including the write-back. One lap
// around the ring warms the device's per-line bookkeeping (the simulated
// cache saves a persisted copy the first time each line is dirtied — a
// cold-start cost with no real-hardware counterpart, recycled thereafter).
func TestStampPathAllocs(t *testing.T) {
	_, r := newRing(t, 64)
	for i := 0; i < 64; i++ {
		r.Stamp(KindStall, 0, 0, 0)
	}
	r.Sync()
	if n := testing.AllocsPerRun(1000, func() {
		r.Stamp(KindStall, 1, 2, 3)
	}); n != 0 {
		t.Errorf("Stamp allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.Stamp(KindStall, 1, 2, 3)
		r.Sync()
	}); n != 0 {
		t.Errorf("Stamp+Sync allocates %.1f objects per call, want 0", n)
	}
}

// TestRetiredKindsKeepTheirNumbers pins the on-media compatibility rule:
// kinds 2-6 (group-seal, fence-begin, persist-fence, durable, recycle)
// are retired, not renumbered, so the surviving kinds keep the values
// rings written before the retirement used, and a retired stamp still
// decodes and says what it is.
func TestRetiredKindsKeepTheirNumbers(t *testing.T) {
	for k, want := range map[Kind]string{
		1: "boot", 2: "retired-2", 3: "retired-3", 4: "retired-4",
		5: "retired-5", 6: "retired-6", 7: "stall", 8: "kind-8",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint64(k), got, want)
		}
	}
	if KindBoot != 1 || KindStall != 7 {
		t.Errorf("live kinds renumbered: boot %d stall %d", KindBoot, KindStall)
	}
	dev, r := newRing(t, 8)
	r.Stamp(Kind(2), 1, 4, 4) // a pre-retirement group-seal slot, byte for byte
	r.Stamp(Kind(5), 4, 0, 0) // a pre-retirement durable-advance slot
	r.Stamp(KindStall, 1, 4, 4)
	r.Sync()
	recs, torn, err := Decode(dev, 0)
	if err != nil || torn != 0 || len(recs) != 3 {
		t.Fatalf("Decode = %v, %d torn, %v; want all three stamps", recs, torn, err)
	}
	if recs[0].Kind != 2 || recs[0].A != 1 || recs[0].B != 4 || recs[1].Kind != 5 || recs[1].A != 4 || recs[2].Kind != KindStall {
		t.Errorf("decoded %+v, want the two retired stamps then the stall", recs)
	}
}

// TestSlotCRCMatchesStdlib pins the hand-rolled stamp-path CRC to the
// stdlib implementation the decoder uses.
func TestSlotCRCMatchesStdlib(t *testing.T) {
	b := make([]byte, 56)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	if got, want := slotCRC(b), crc32.Checksum(b, crcTable); got != want {
		t.Fatalf("slotCRC = %#x, crc32.Checksum = %#x", got, want)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4096})
	if _, err := Open(dev, 0); err == nil {
		t.Error("Open accepted an unformatted region")
	}
	Format(dev, 0, 8)
	dev.Store8(8, 999) // corrupt the entry count under the CRC
	dev.Persist(8, 8)
	if _, err := Open(dev, 0); err == nil {
		t.Error("Open accepted a corrupt header")
	}
}
