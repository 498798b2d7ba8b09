package redolog

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// --- Entry serialization (run encoding) ---

// maxEntryAddr is the highest address the format carries: a run must
// end below 2^48.
const maxEntryAddr = 1<<runAddrBits - 16

// entriesFromBytes turns arbitrary bytes into a valid entry slice with
// every shape the encoder must preserve: ascending runs, singletons,
// descending addresses, duplicate addresses, a run longer than MaxRun
// and addresses at the 2^48 boundary. It is the generator shared by the
// round-trip test (random bytes) and the fuzzer (corpus bytes).
func entriesFromBytes(data []byte) []Entry {
	var out []Entry
	addr := uint64(4096)
	val := uint64(1)
	long := false
	emit := func(a uint64) {
		out = append(out, Entry{Addr: a, Val: val * 0x9e3779b97f4a7c15})
		val++
	}
	for len(data) >= 2 {
		op, arg := data[0]%7, uint64(data[1])
		data = data[2:]
		switch op {
		case 0: // ascending run
			for i := uint64(0); i <= arg%40; i++ {
				emit(addr)
				addr += 8
			}
		case 1: // lone write somewhere else
			addr += 8 * (2 + arg)
			emit(addr)
			addr += 16
		case 2: // descending addresses: never a run
			for i := uint64(0); i <= arg%8 && addr >= 16; i++ {
				addr -= 8
				emit(addr)
			}
			addr += 8 * (arg + 16)
		case 3: // duplicate address, back to back
			emit(addr)
			emit(addr)
			addr += 8
		case 4: // re-write an address logged earlier
			if len(out) > 0 {
				emit(out[int(arg)%len(out)].Addr)
			}
		case 5: // a run that must split at MaxRun words (once per script)
			if long {
				continue
			}
			long = true
			for i := uint64(0); i < MaxRun+1+arg; i++ {
				emit(addr)
				addr += 8
			}
		case 6: // the last words below 2^48
			for a := uint64(maxEntryAddr) - 8*(arg%4); a <= maxEntryAddr; a += 8 {
				emit(a)
			}
		}
	}
	return out
}

func TestEntryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		script := make([]byte, 2*(1+rng.Intn(12)))
		rng.Read(script)
		entries := entriesFromBytes(script)
		got, ok := DecodeEntries(AppendEntries(nil, entries))
		if !ok {
			t.Fatalf("round %d: own encoding rejected", round)
		}
		if len(got) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(got, entries)) {
			t.Fatalf("round %d: decode(encode(x)) != x (%d vs %d entries)", round, len(got), len(entries))
		}
	}
}

func TestEntryCodecSizes(t *testing.T) {
	run := func(addr uint64, n int) []Entry {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Addr: addr + 8*uint64(i), Val: uint64(i) + 1}
		}
		return es
	}
	for _, tc := range []struct {
		name    string
		entries []Entry
		want    int
	}{
		{"empty", nil, 0},
		{"lone write", run(64, 1), 16},
		{"128-byte record", run(4096, 16), 8 + 8*16},
		{"two runs", append(run(64, 3), run(640, 2)...), (8 + 8*3) + (8 + 8*2)},
		{"descending pair", []Entry{{Addr: 72, Val: 1}, {Addr: 64, Val: 2}}, 32},
		{"duplicate pair", []Entry{{Addr: 64, Val: 1}, {Addr: 64, Val: 2}}, 32},
		{"exactly MaxRun", run(0, MaxRun), 8 + 8*MaxRun},
		{"MaxRun+1 splits", run(0, MaxRun+1), 8 + 8*MaxRun + 16},
		{"last word below 2^48", run(maxEntryAddr, 1), 16},
		{"run ending below 2^48", run(maxEntryAddr-56, 8), 8 + 64},
	} {
		b := AppendEntries([]byte("prefix"), tc.entries)
		if !bytes.HasPrefix(b, []byte("prefix")) {
			t.Fatalf("%s: AppendEntries clobbered dst", tc.name)
		}
		b = b[len("prefix"):]
		if len(b) != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(b), tc.want)
		}
		got, ok := DecodeEntries(b)
		if !ok || len(got) != len(tc.entries) {
			t.Fatalf("%s: decode ok=%v, %d entries, want %d", tc.name, ok, len(got), len(tc.entries))
		}
		for i := range got {
			if got[i] != tc.entries[i] {
				t.Fatalf("%s: entry %d = %+v, want %+v", tc.name, i, got[i], tc.entries[i])
			}
		}
	}
}

func TestEncoderRefusesUnencodableAddress(t *testing.T) {
	for name, es := range map[string][]Entry{
		"unaligned":           {{Addr: 12, Val: 1}},
		"at 2^48":             {{Addr: 1 << runAddrBits, Val: 1}},
		"last word of 2^48":   {{Addr: 1<<runAddrBits - 8, Val: 1}},
		"run reaching 2^48":   {{Addr: maxEntryAddr, Val: 1}, {Addr: maxEntryAddr + 8, Val: 2}},
		"ring end-mark value": {{Addr: txEndAddr, Val: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: encoded an address the decoder would refuse", name)
				}
			}()
			AppendEntries(nil, es)
		}()
	}
}

// words builds a payload from raw little-endian words.
func words(ws ...uint64) []byte {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func TestDecodeEntriesRejects(t *testing.T) {
	hdr := func(addr uint64, n int) uint64 { return addr | uint64(n-1)<<runAddrBits }
	for name, payload := range map[string][]byte{
		"not whole words":       make([]byte, 17),
		"header only":           words(hdr(64, 1)),
		"run overruns payload":  words(hdr(64, 3), 1, 2),
		"second run overruns":   words(hdr(64, 1), 1, hdr(128, 2), 2),
		"forged maximal count":  words(hdr(64, MaxRun), 1),
		"unaligned address":     words(hdr(68, 1), 1),
		"address at 2^48 - 8":   words(hdr(1<<runAddrBits-8, 1), 1),
		"run reaches 2^48":      words(hdr(maxEntryAddr, 2), 1, 2),
		"trailing partial word": append(words(hdr(64, 1), 1), 0, 0, 0),
	} {
		if es, ok := DecodeEntries(payload); ok {
			t.Errorf("%s: accepted as %d entries", name, len(es))
		}
	}
	if es, ok := DecodeEntries(nil); !ok || len(es) != 0 {
		t.Errorf("empty payload: ok=%v, %d entries", ok, len(es))
	}
}

// A forged count must not buy memory: 16 bytes claiming a 65 536-word
// run may not allocate the 1 MiB that run would decode to.
func TestDecodeEntriesAllocationBounded(t *testing.T) {
	forged := words(uint64(64)|uint64(MaxRun-1)<<runAddrBits, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, ok := DecodeEntries(forged); ok {
			t.Fatal("forged count accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 256 {
		t.Fatalf("decoding a 16-byte forged payload allocated %d bytes", per)
	}
}

// FuzzDecodeEntries holds the decoder to its trust-boundary contract
// (it reads crash images and replication frames): arbitrary bytes never
// panic and never decode to more entries than the payload has words,
// whatever decodes re-encodes to something that decodes identically,
// and encode→decode is the identity on every entry shape the generator
// builds from the same bytes.
func FuzzDecodeEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 17))
	f.Add(words(64, 1))
	f.Add(words(uint64(64)|3<<runAddrBits, 1, 2, 3, 4, 4096, 9))
	f.Add(words(uint64(64)|uint64(MaxRun-1)<<runAddrBits, 1))
	f.Add(words(maxEntryAddr, 7))
	f.Add(words(maxEntryAddr+8, 7))
	f.Add([]byte{0, 15, 1, 3, 2, 5, 3, 0, 4, 1, 0, 7}) // runs, lone, descending, duplicates
	f.Add([]byte{5, 0})                                // > MaxRun words in one stretch
	f.Add([]byte{6, 3, 0, 2})                          // the 2^48 boundary
	f.Fuzz(func(t *testing.T, data []byte) {
		if es, ok := DecodeEntries(data); ok {
			if len(es) > len(data)/8 {
				t.Fatalf("%d entries from %d bytes", len(es), len(data))
			}
			again, ok := DecodeEntries(AppendEntries(nil, es))
			if !ok || len(again) != len(es) {
				t.Fatalf("re-encoded payload decodes ok=%v to %d entries, want %d", ok, len(again), len(es))
			}
			for i := range es {
				if again[i] != es[i] {
					t.Fatalf("entry %d: %+v != %+v after re-encode", i, again[i], es[i])
				}
			}
		}
		if len(data) > 64 {
			data = data[:64] // bound the generator, not the decoder
		}
		entries := entriesFromBytes(data)
		got, ok := DecodeEntries(AppendEntries(nil, entries))
		if !ok || len(got) != len(entries) {
			t.Fatalf("own encoding: ok=%v, %d entries, want %d", ok, len(got), len(entries))
		}
		for i := range got {
			if got[i] != entries[i] {
				t.Fatalf("entry %d: %+v, want %+v", i, got[i], entries[i])
			}
		}
	})
}

func TestRunLen(t *testing.T) {
	es := []Entry{{Addr: 64}, {Addr: 72}, {Addr: 80}, {Addr: 96}, {Addr: 88}, {Addr: 88}}
	for _, tc := range []struct{ from, max, want int }{
		{0, 10, 3}, {0, 2, 2}, {0, 0, 0}, {2, 10, 1}, {3, 10, 1}, {4, 10, 1}, {5, 10, 1}, {6, 10, 0},
	} {
		if got := RunLen(es[tc.from:], tc.max); got != tc.want {
			t.Errorf("RunLen(es[%d:], %d) = %d, want %d", tc.from, tc.max, got, tc.want)
		}
	}
}

// --- Torn tails under the run encoding ---

// TestScanTornTailEveryWordBoundary is the deterministic version of the
// crash the fuzzers might reach: the last record — several runs, one of
// them straddling many words — persisted only up to an 8-byte boundary,
// for every boundary, over never-written space, over the stale records
// of a wrapped log, and running past the end of a wrapped buffer. The
// record framing (sequence number + CRC over header and payload) must
// hide every partial image: Scan returns exactly the N-1 earlier groups,
// never a shortened or mis-addressed run, and reports Torn as soon as
// the record's sequence word (word 1) is on media — and the torn
// record's claimed tid range exactly when the two tid words behind it
// (words 2 and 3) are too, never what a stale lap left under them.
func TestScanTornTailEveryWordBoundary(t *testing.T) {
	last := func() []Entry {
		var es []Entry
		add := func(addr uint64, n int) {
			for i := 0; i < n; i++ {
				es = append(es, Entry{Addr: addr + 8*uint64(i), Val: 0xa5a5_0000_0000_0000 | uint64(len(es))})
			}
		}
		add(4096, 16) // a 128-byte record overwrite
		add(64, 1)    // a lone header word
		add(8192, 40) // a run across five lines
		add(4096, 2)  // duplicates of the first run
		return es
	}()
	for _, compress := range []bool{false, true} {
		for _, layout := range []string{"fresh", "wrapped", "straddling"} {
			dev := newLogDev()
			w := newTestWriter(dev, compress)
			// A pool this far into its life: tids dwarf a record's byte
			// length, so a stale lap's words under the tid words cannot
			// pass for a range above the previous group.
			tid := uint64(1) << 20
			appendSpan := func(entries []Entry, txns uint64) (*Group, uint64) {
				g := &Group{MinTid: tid, MaxTid: tid + txns - 1, Entries: entries}
				tid += txns
				return g, w.AppendGroup(g)
			}
			appendGroup := func(entries []Entry) (*Group, uint64) { return appendSpan(entries, 1) }
			rng := rand.New(rand.NewSource(11))
			if layout != "fresh" {
				// Fill and recycle the log until the tail has wrapped, so
				// the records below land on stale ones.
				for w.Tail() < 2*testSize {
					es := make([]Entry, 1+rng.Intn(20))
					for i := range es {
						es[i] = Entry{Addr: 8 * uint64(rng.Intn(1<<20)), Val: rng.Uint64()}
					}
					g, _ := appendGroup(es)
					w.Recycle(g.EndPos, g.Seq+1, g.MaxTid)
				}
			}
			if layout == "straddling" {
				// One-line records until the three two-line records
				// below leave the last one four lines before the end.
				for w.Tail()%testSize != testSize-10*64 {
					g, _ := appendGroup([]Entry{{Addr: 8, Val: 1}})
					w.Recycle(g.EndPos, g.Seq+1, g.MaxTid)
				}
			}
			const n = 4
			var want [][]Entry
			for i := 0; i < n-1; i++ {
				es := []Entry{{Addr: 8 * uint64(i), Val: rng.Uint64()}, {Addr: 8 * uint64(i+1), Val: rng.Uint64()}, {Addr: 800, Val: 3}}
				appendGroup(es)
				want = append(want, es)
			}
			before := dev.PersistedImage()
			g, length := appendSpan(last, 3)
			after := dev.PersistedImage()
			start := (g.EndPos - length) % testSize
			if straddles := start+length > testSize; straddles != (layout == "straddling") {
				t.Fatalf("%s layout: record at %d of %d bytes straddles the end: %v", layout, start, length, straddles)
			}
			word := func(j uint64) uint64 { return testBase + (start+8*j)%testSize }
			for k := uint64(0); k <= length/8; k++ {
				img := append([]byte(nil), after...)
				whole := true
				for j := k; j < length/8; j++ {
					a := word(j)
					copy(img[a:a+8], before[a:a+8])
					whole = whole && bytes.Equal(before[a:a+8], after[a:a+8])
				}
				d2 := newLogDev()
				d2.Restore(img)
				res := scanAll(t, d2)
				wantGroups, wantTorn := n-1, k > 1 // word 1 of the header is seq
				if whole {
					wantGroups, wantTorn = n, false
				}
				if len(res.Groups) != wantGroups || res.Torn != wantTorn {
					t.Fatalf("compress=%v %s, %d of %d words persisted: %d groups torn=%v, want %d torn=%v",
						compress, layout, k, length/8, len(res.Groups), res.Torn, wantGroups, wantTorn)
				}
				var wantMin, wantMax uint64
				if wantTorn && k > 3 { // words 2 and 3 hold minTid and maxTid's low word
					wantMin, wantMax = g.MinTid, g.MaxTid
				}
				if res.TornMinTid != wantMin || res.TornMaxTid != wantMax {
					t.Fatalf("compress=%v %s, %d of %d words persisted: torn claim [%d,%d], want [%d,%d]",
						compress, layout, k, length/8, res.TornMinTid, res.TornMaxTid, wantMin, wantMax)
				}
				for i, es := range want {
					if !reflect.DeepEqual(res.Groups[i].Entries, es) {
						t.Fatalf("%d words persisted: group %d entries changed", k, i)
					}
				}
				if whole && !reflect.DeepEqual(res.Groups[n-1].Entries, last) {
					t.Fatalf("whole record decodes to different entries")
				}
			}
		}
	}
}
