package redolog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"dudetm/internal/pmem"
)

// --- Line-aligned records ---

// randomGroupEntries builds n entries mixing 16-word runs (a record
// overwrite), lone scattered words and compressible values.
func randomGroupEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	base := 8 * uint64(rng.Intn(1<<16))
	for i := range es {
		addr := base + 8*uint64(i%16)
		if i%16 == 0 {
			base = 8 * uint64(rng.Intn(1<<16))
		}
		if rng.Intn(4) == 0 {
			addr = 8 * uint64(rng.Intn(1<<20))
		}
		val := rng.Uint64()
		if rng.Intn(2) == 0 {
			val %= 4
		}
		es[i] = Entry{Addr: addr, Val: val}
	}
	return es
}

// TestRecordsLineAlignedAcrossWraps appends random-size groups through
// several laps of the buffer, compression on and off, keeping a few
// records live across the end: every record starts on a line, the log
// region writes back exactly Σ ⌈recLen/64⌉·64 bytes — no line twice, no
// padding stored, whether or not the record runs past the end — and
// Scan returns every live record as appended.
func TestRecordsLineAlignedAcrossWraps(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dev := newLogDev()
		dev.SetRegions([]pmem.Region{{Name: "log", Addr: testBase, Size: testSize}})
		w := newTestWriter(dev, compress)
		rng := rand.New(rand.NewSource(5))
		var live []*Group
		var want uint64
		straddled := 0
		for tid := uint64(1); w.Tail() < 5*testSize; tid++ {
			// At most three records of ≤ 1.7 KB live: the append never
			// waits.
			for len(live) > 2 {
				w.Recycle(live[0].EndPos, live[0].Seq+1, live[0].MaxTid)
				live = live[1:]
			}
			start, bytesBefore := w.Tail(), w.BytesAppended()
			g := &Group{MinTid: tid, MaxTid: tid, Entries: randomGroupEntries(rng, rng.Intn(101))}
			span := w.AppendGroup(g)
			n := w.BytesAppended() - bytesBefore
			if start%pmem.LineSize != 0 || span != lineUp(n) || g.EndPos != start+span {
				t.Fatalf("compress=%v tid %d: record of %d B at %d took %d B of log, ends at %d", compress, tid, n, start, span, g.EndPos)
			}
			if start%testSize+span > testSize {
				straddled++
			}
			want += span
			live = append(live, g)
		}
		if straddled == 0 {
			t.Fatalf("compress=%v: no record ran past the end of the buffer", compress)
		}
		if got := dev.RegionStats()[0].BytesFlushed; got != want {
			t.Errorf("compress=%v: log region flushed %d B, want Σ ⌈recLen/64⌉·64 = %d B", compress, got, want)
		}
		dev.Crash()
		res := scanAll(t, dev)
		if res.Torn || len(res.Groups) != len(live) {
			t.Fatalf("compress=%v: scan found %d groups (torn %v), want %d", compress, len(res.Groups), res.Torn, len(live))
		}
		for i, g := range res.Groups {
			if !reflect.DeepEqual(g, *live[i]) {
				t.Fatalf("compress=%v: group %d scans as %+v, appended %+v", compress, i, g, *live[i])
			}
		}
	}
}

// TestCheckRegion pins the log geometry NewWriter and Scan accept:
// whole lines, at least a page, at most what the 32-bit length fields
// describe.
func TestCheckRegion(t *testing.T) {
	for _, tc := range []struct {
		base, size uint64
		ok         bool
	}{
		{64, 4096, true},
		{0, 1 << 32, true},
		{8, 4096, false},
		{64, 4096 + 8, false},
		{64, 2048, false},
		{64, 1<<32 + 64, false},
	} {
		if err := CheckRegion(tc.base, tc.size); (err == nil) != tc.ok {
			t.Errorf("CheckRegion(%d, %d) = %v, want ok %v", tc.base, tc.size, err, tc.ok)
		}
	}
	if _, err := NewWriter(newLogDev(), testMeta, testBase+8, testSize-64, false); err == nil {
		t.Error("NewWriter accepted a log base off a line")
	}
}

// --- Scan on arbitrary bytes ---

// fuzzLogSize is FuzzScan's log region: the smallest CheckRegion allows.
const fuzzLogSize = minLogSize

// fuzzLogDev writes log under a valid metadata block naming head line
// headLine and sequence headSeq.
func fuzzLogDev(headLine uint32, headSeq, reproTid uint64, log []byte) *pmem.Device {
	dev := pmem.New(pmem.Config{Size: testBase + fuzzLogSize})
	dev.Store(testBase, log[:min(len(log), fuzzLogSize)])
	var mb [MetaSize]byte
	binary.LittleEndian.PutUint64(mb[0:], uint64(headLine)*pmem.LineSize)
	binary.LittleEndian.PutUint64(mb[8:], headSeq)
	binary.LittleEndian.PutUint64(mb[16:], reproTid)
	binary.LittleEndian.PutUint64(mb[24:], uint64(crc32.Checksum(mb[:24], crcTable)))
	dev.Store(testMeta, mb[:])
	return dev
}

// FuzzScan holds the scanner to its trust-boundary contract (it reads
// crash images): whatever the log bytes under a valid metadata block,
// Scan never panics, allocates no more than the region's size beyond
// the entries it returns (and the payloads they decompress from), and
// every group it returns re-encodes to the very bytes it was read from,
// ending where the next record starts. The seeds are real logs: fresh,
// wrapped with records across the end, compressed, torn.
func FuzzScan(f *testing.F) {
	for i, compress := range []bool{false, true, false, true} {
		dev := pmem.New(pmem.Config{Size: testBase + fuzzLogSize})
		w, err := NewWriter(dev, testMeta, testBase, fuzzLogSize, compress)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		groups := 3 + 10*i
		for tid := uint64(1); tid <= uint64(groups); tid++ {
			g := &Group{MinTid: 100 * tid, MaxTid: 100*tid + uint64(rng.Intn(3)), Entries: randomGroupEntries(rng, rng.Intn(40))}
			w.AppendGroup(g)
			if tid+3 <= uint64(groups) {
				w.Recycle(g.EndPos, g.Seq+1, g.MaxTid)
			}
		}
		var mb [MetaSize]byte
		dev.Load(testMeta, mb[:])
		log := make([]byte, fuzzLogSize)
		dev.Load(testBase, log)
		head := uint32(binary.LittleEndian.Uint64(mb[0:]) / pmem.LineSize)
		seq, repro := binary.LittleEndian.Uint64(mb[8:]), binary.LittleEndian.Uint64(mb[16:])
		f.Add(head, seq, repro, log)
		torn := append([]byte(nil), log...)
		torn[(w.Tail()-pmem.LineSize)%fuzzLogSize] ^= 1 // the last record's last line
		f.Add(head, seq, repro, torn)
	}
	f.Add(uint32(0), uint64(1), uint64(0), []byte{})
	f.Add(uint32(3), uint64(1), uint64(0), bytes.Repeat([]byte{0xff}, fuzzLogSize))

	f.Fuzz(func(t *testing.T, headLine uint32, headSeq, reproTid uint64, log []byte) {
		dev := fuzzLogDev(headLine, headSeq, reproTid, log)
		var res ScanResult
		var err error
		// Scan allocates the same every time; the least of three reads
		// leaves out what the fuzzing engine allocates beside it.
		alloc := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err = Scan(dev, testMeta, testBase, fuzzLogSize)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			t.Fatalf("valid metadata refused: %v", err)
		}
		var out uint64 // bytes of the entries Scan returns
		pos := uint64(headLine) * pmem.LineSize
		for i := range res.Groups {
			g := &res.Groups[i]
			out += uint64(cap(g.Entries)) * uint64(unsafe.Sizeof(Entry{}))
			found := false
			for _, compress := range []bool{false, true} {
				rec, _, ok := encodeRecord(nil, nil, g, g.Seq, compress, maxPayload(fuzzLogSize))
				if !ok {
					t.Fatalf("group %d does not re-encode within the record limit", i)
				}
				media := make([]byte, len(rec))
				loadWrapped(dev, testBase, fuzzLogSize, pos%fuzzLogSize, media)
				if bytes.Equal(rec, media) && g.EndPos == pos+lineUp(uint64(len(rec))) {
					found = true
				}
			}
			if !found {
				t.Fatalf("group %d (seq %d, tids [%d,%d], %d entries, end %d) does not re-encode to its bytes at %d",
					i, g.Seq, g.MinTid, g.MaxTid, len(g.Entries), g.EndPos, pos)
			}
			pos = g.EndPos
		}
		// Decoded entries take 16 B per payload word, so a payload
		// decompressed into takes at most half its entries' bytes.
		groups := uint64(cap(res.Groups)) * uint64(unsafe.Sizeof(Group{}))
		if alloc > fuzzLogSize+groups+out+out/2+1024 {
			t.Fatalf("scan of a %d-byte log allocated %d B for %d B of entries", fuzzLogSize, alloc, out)
		}
	})
}
