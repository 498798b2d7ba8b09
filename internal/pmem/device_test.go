package pmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestDev(size uint64) *Device {
	return New(Config{Size: size})
}

func TestNewRoundsSizeToLine(t *testing.T) {
	d := New(Config{Size: 100})
	if d.Size() != 128 {
		t.Fatalf("size = %d, want 128", d.Size())
	}
}

func TestNewZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d := newTestDev(4096)
	msg := []byte("hello persistent world")
	d.Store(100, msg)
	got := make([]byte, len(msg))
	d.Load(100, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestStore8Load8(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(8, 0xdeadbeefcafe)
	if v := d.Load8(8); v != 0xdeadbeefcafe {
		t.Fatalf("got %#x", v)
	}
}

func TestStore8UnalignedPanics(t *testing.T) {
	d := newTestDev(4096)
	for _, f := range []func(){
		func() { d.Store8(60, 1) },
		func() { d.Load8(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on unaligned word access")
				}
			}()
			f()
		}()
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newTestDev(128)
	for _, f := range []func(){
		func() { d.Store8(128, 1) },
		func() { d.Store8(124, 1) },
		func() { d.Load8(121) },
		func() { d.Store(120, make([]byte, 16)) },
		func() { d.Load(129, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCrashDiscardsUnflushed(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(0, 42)
	d.Crash()
	if v := d.Load8(0); v != 0 {
		t.Fatalf("unflushed store survived crash: %d", v)
	}
}

func TestCrashKeepsPersisted(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(0, 42)
	d.Persist(0, 8)
	d.Store8(0, 43) // dirty again, not persisted
	d.Crash()
	if v := d.Load8(0); v != 42 {
		t.Fatalf("got %d, want last persisted 42", v)
	}
}

func TestCrashRevertsToLastPersistedNotOriginal(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(64, 1)
	d.Persist(64, 8)
	d.Store8(64, 2)
	d.Persist(64, 8)
	d.Store8(64, 3)
	d.Crash()
	if v := d.Load8(64); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
}

func TestFlushWithoutFenceStillDurableInModel(t *testing.T) {
	// In this model FlushRange alone moves data to the durable image;
	// Fence only orders/stalls. A crash between flush and fence may keep
	// the data (real CLWB may also have written back). Verify flush makes
	// the line clean.
	d := newTestDev(4096)
	d.Store8(0, 7)
	d.FlushRange(0, 8)
	d.Crash()
	if v := d.Load8(0); v != 7 {
		t.Fatalf("flushed line reverted: %d", v)
	}
}

func TestFlushRangeCoversWholeLines(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(0, 1)
	d.Store8(56, 2)         // same line
	n := d.FlushRange(0, 1) // flushing any byte of the line flushes the line
	if n != LineSize {
		t.Fatalf("flushed %d bytes, want %d", n, LineSize)
	}
	d.Crash()
	if d.Load8(0) != 1 || d.Load8(56) != 2 {
		t.Fatal("line contents lost")
	}
}

func TestFlushCleanLineWritesNothing(t *testing.T) {
	d := newTestDev(4096)
	if n := d.FlushRange(0, 4096); n != 0 {
		t.Fatalf("flushed %d bytes from clean device", n)
	}
	if s := d.Stats(); s.BytesFlushed != 0 {
		t.Fatalf("BytesFlushed = %d", s.BytesFlushed)
	}
}

func TestStatsCounting(t *testing.T) {
	d := newTestDev(4096)
	d.Store(512, make([]byte, 100)) // earlier traffic the deltas exclude
	d.Persist(512, 100)
	before := d.Stats()
	d.Store8(0, 1)
	d.Store(100, []byte{1, 2, 3})
	d.Persist(0, 8)
	s := d.Stats()
	if n := s.Stores - before.Stores; n != 2 {
		t.Errorf("Stores = %d, want 2", n)
	}
	if n := s.BytesStored - before.BytesStored; n != 11 {
		t.Errorf("BytesStored = %d, want 11", n)
	}
	if n := s.BytesFlushed - before.BytesFlushed; n != LineSize {
		t.Errorf("BytesFlushed = %d, want %d", n, LineSize)
	}
	if n := s.LinesFlushed - before.LinesFlushed; n != 1 {
		t.Errorf("LinesFlushed = %d, want 1", n)
	}
	if n := s.Fences - before.Fences; n != 1 {
		t.Errorf("Fences = %d, want 1", n)
	}
}

func TestBatchAccumulates(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(0, 1)
	d.Store8(1024, 2)
	b := d.NewBatch()
	b.Flush(0, 8)
	b.Flush(1024, 8)
	b.Fence()
	if s := d.Stats(); s.Fences != 1 || s.BytesFlushed != 2*LineSize {
		t.Fatalf("stats %+v", s)
	}
	d.Crash()
	if d.Load8(0) != 1 || d.Load8(1024) != 2 {
		t.Fatal("batched flush not durable")
	}
}

func TestDelayModel(t *testing.T) {
	d := New(Config{
		Size:         4096,
		WriteLatency: 200 * time.Microsecond,
		Bandwidth:    GB,
		DelayEnabled: true,
	})
	d.Store8(0, 1)
	start := time.Now()
	d.Persist(0, 8)
	if el := time.Since(start); el < 200*time.Microsecond {
		t.Fatalf("persist returned after %v, want >= 200us", el)
	}
}

func TestDelayBandwidthDominates(t *testing.T) {
	// 1 MB at 1 GB/s is ~1 ms >> 10us latency.
	d := New(Config{
		Size:         1 << 21,
		WriteLatency: 10 * time.Microsecond,
		Bandwidth:    GB,
		DelayEnabled: true,
	})
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	d.Store(0, buf)
	start := time.Now()
	d.Persist(0, 1<<20)
	if el := time.Since(start); el < 900*time.Microsecond {
		t.Fatalf("persist of 1MB took %v, want >= ~1ms", el)
	}
}

func TestDelayDisabledIsFast(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(0, 1)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		d.Store8(0, uint64(i))
		d.Persist(0, 8)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("disabled delay model too slow: %v", el)
	}
}

func TestPersistedImageMatchesCrash(t *testing.T) {
	d := newTestDev(4096)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(4096/8)) * 8
		d.Store8(addr, rng.Uint64())
		if rng.Intn(3) == 0 {
			d.Persist(addr, 8)
		}
	}
	img := d.PersistedImage()
	d.Crash()
	cur := make([]byte, 4096)
	d.Load(0, cur)
	if !bytes.Equal(img, cur) {
		t.Fatal("PersistedImage disagrees with post-crash contents")
	}
}

func TestRestore(t *testing.T) {
	d := newTestDev(4096)
	d.Store8(0, 99)
	d.Persist(0, 8)
	img := d.PersistedImage()

	d2 := newTestDev(4096)
	d2.Store8(8, 1) // dirty state to be discarded
	d2.Restore(img)
	if v := d2.Load8(0); v != 99 {
		t.Fatalf("restored value = %d", v)
	}
	if n := d2.DirtyLines(); n != 0 {
		t.Fatalf("dirty lines after restore = %d", n)
	}
	d2.Crash()
	if v := d2.Load8(0); v != 99 {
		t.Fatal("restored image not treated as persisted")
	}
}

func TestRestoreSizeMismatchPanics(t *testing.T) {
	d := newTestDev(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Restore(make([]byte, 128))
}

func TestConcurrentDisjointStores(t *testing.T) {
	d := newTestDev(1 << 20)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * (1 << 20 / workers)
			for i := uint64(0); i < 1000; i++ {
				addr := base + (i%1024)*8
				d.Store8(addr, i)
				if i%7 == 0 {
					d.Persist(addr, 8)
				}
			}
		}(w)
	}
	wg.Wait()
	d.Crash()
	// "Must not corrupt" means every word reads either zero (store was
	// discarded) or the exact value its worker wrote — never a torn or
	// foreign value — and every explicitly persisted word survives.
	for w := 0; w < workers; w++ {
		base := uint64(w) * (1 << 20 / workers)
		for i := uint64(0); i < 1000; i++ {
			addr := base + (i%1024)*8
			got := d.Load8(addr)
			if got != 0 && got != i {
				t.Fatalf("worker %d addr %d: got %d, want 0 or %d", w, addr, got, i)
			}
			if i%7 == 0 && got != i {
				t.Fatalf("worker %d addr %d: persisted store lost (got %d, want %d)", w, addr, got, i)
			}
		}
	}
}

func TestConcurrentSameLineFirstWriteRace(t *testing.T) {
	// Two goroutines race to dirty the same clean line; the saved copy
	// must be the persisted (zero) content, so a crash restores zeros.
	for iter := 0; iter < 100; iter++ {
		d := newTestDev(4096)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				d.Store8(uint64(w*8), 0xff)
			}(w)
		}
		wg.Wait()
		d.Crash()
		if d.Load8(0) != 0 || d.Load8(8) != 0 {
			t.Fatal("crash restored non-persisted content")
		}
	}
}

// TestPersistedImageDuringStores takes persisted images while another
// goroutine first-touches and writes back lines, as a replica's ingest
// may during a snapshot. Every image word must be zero or a value the
// writer stored at that address.
func TestPersistedImageDuringStores(t *testing.T) {
	const size, lines = 1 << 16, 1 << 16 / LineSize
	d := newTestDev(size)
	done := make(chan struct{})
	defer func() { <-done }()
	go func() {
		defer close(done)
		for i := uint64(1); i <= 20000; i++ {
			addr := (i%lines)*LineSize + i%(LineSize/8)*8
			d.Store8(addr, i)
			if i%3 != 0 {
				d.FlushRange(addr, 8)
			}
		}
	}()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			if snaps == 0 {
				t.Fatal("the writer finished before the first snapshot")
			}
			return
		default:
		}
		img := d.PersistedImage()
		for addr := uint64(0); addr < size; addr += 8 {
			v := binary.LittleEndian.Uint64(img[addr:])
			if v != 0 && (v%lines)*LineSize+v%(LineSize/8)*8 != addr {
				t.Fatalf("image word at %d holds %d, stored elsewhere", addr, v)
			}
		}
	}
}

func TestQuickPersistedSurvivesCrash(t *testing.T) {
	// Property: any persisted word survives any later unpersisted noise.
	f := func(vals []uint64, noise []uint64) bool {
		d := newTestDev(1 << 16)
		want := map[uint64]uint64{}
		for i, v := range vals {
			addr := (uint64(i) % (1 << 13)) * 8
			d.Store8(addr, v)
			d.Persist(addr, 8)
			want[addr] = v
		}
		for i, v := range noise {
			addr := (uint64(i) % (1 << 13)) * 8
			d.Store8(addr, v)
		}
		d.Crash()
		for addr, v := range want {
			if d.Load8(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	d := newTestDev(128)
	d.Store8(0, 0x0102030405060708)
	b := make([]byte, 8)
	d.Load(0, b)
	if binary.LittleEndian.Uint64(b) != 0x0102030405060708 {
		t.Fatal("layout mismatch")
	}
	if b[0] != 0x08 {
		t.Fatalf("not little-endian: b[0]=%#x", b[0])
	}
}

// TestPersistIsFlushPlusFence pins the contract the persistorder
// analyzer relies on when it treats Persist as a complete terminator:
// Persist(addr, n) must be exactly FlushRange(addr, n) followed by
// Fence(bytes) — identical counter movement, identical durable image.
func TestPersistIsFlushPlusFence(t *testing.T) {
	cases := []struct {
		name  string
		addr  uint64
		n     uint64
		store func(d *Device)
	}{
		{"single word", 64, 8, func(d *Device) { d.Store8(64, 42) }},
		{"whole line", 128, 64, func(d *Device) { d.Store(128, bytes.Repeat([]byte{7}, 64)) }},
		{"spans three lines", 60, 140, func(d *Device) { d.Store(60, bytes.Repeat([]byte{9}, 140)) }},
		{"partial dirty range", 0, 512, func(d *Device) { d.Store8(256, 1) }},
		{"clean range", 0, 256, func(d *Device) {}},
		{"zero length", 64, 0, func(d *Device) { d.Store8(64, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			persisted := newTestDev(4096)
			manual := newTestDev(4096)
			tc.store(persisted)
			tc.store(manual)

			persisted.Persist(tc.addr, tc.n)
			manual.Fence(manual.FlushRange(tc.addr, tc.n))

			ps, ms := persisted.Stats(), manual.Stats()
			if ps != ms {
				t.Errorf("stats diverge: Persist %+v, FlushRange+Fence %+v", ps, ms)
			}
			if pd, md := persisted.DirtyLines(), manual.DirtyLines(); pd != md {
				t.Errorf("dirty lines diverge: Persist %d, FlushRange+Fence %d", pd, md)
			}
			if !bytes.Equal(persisted.PersistedImage(), manual.PersistedImage()) {
				t.Error("durable images diverge")
			}
		})
	}
}
