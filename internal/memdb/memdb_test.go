package memdb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// flatCtx is a non-transactional Ctx over a flat word array: structure
// logic is tested here; transactional behaviour is exercised by the
// engine test suites.
type flatCtx struct{ w []uint64 }

func newCtx(size uint64) *flatCtx { return &flatCtx{w: make([]uint64, size/8)} }

func (c *flatCtx) Load(addr uint64) uint64 {
	if addr%8 != 0 {
		panic("unaligned")
	}
	return c.w[addr/8]
}

func (c *flatCtx) Store(addr, val uint64) {
	if addr%8 != 0 {
		panic("unaligned")
	}
	c.w[addr/8] = val
}

func (c *flatCtx) Abort() { panic("abort") }

// --- Heap ---

func TestHeapAllocBasics(t *testing.T) {
	ctx := newCtx(1 << 16)
	h := Heap{Base: 0, Size: 1 << 16}
	h.Format(ctx)
	a, err := h.Alloc(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a%8 != 0 || b%8 != 0 {
		t.Fatal("unaligned allocation")
	}
	if b < a+104 {
		t.Fatalf("overlap: a=%d b=%d", a, b)
	}
	if got := h.BlockSize(ctx, a); got != 104 {
		t.Fatalf("BlockSize = %d, want 104 (rounded)", got)
	}
}

func TestHeapFreeReuse(t *testing.T) {
	ctx := newCtx(1 << 16)
	h := Heap{Base: 0, Size: 1 << 16}
	h.Format(ctx)
	a, _ := h.Alloc(ctx, 64)
	h.Free(ctx, a)
	b, _ := h.Alloc(ctx, 64)
	if b != a {
		t.Fatalf("freed block not reused: %d != %d", b, a)
	}
}

func TestHeapSplit(t *testing.T) {
	ctx := newCtx(1 << 16)
	h := Heap{Base: 0, Size: 1 << 16}
	h.Format(ctx)
	a, _ := h.Alloc(ctx, 256)
	h.Free(ctx, a)
	b, _ := h.Alloc(ctx, 32) // should split the 256 block
	if b != a {
		t.Fatalf("split block at %d, want %d", b, a)
	}
	c, _ := h.Alloc(ctx, 32) // remainder serves this one
	if !(c > b && c < a+264) {
		t.Fatalf("remainder not reused: c=%d", c)
	}
}

func TestHeapOOM(t *testing.T) {
	ctx := newCtx(4096)
	h := Heap{Base: 0, Size: 512}
	h.Format(ctx)
	if _, err := h.Alloc(ctx, 1024); err != ErrOutOfMemory {
		t.Fatalf("err = %v", err)
	}
	// Fill exactly, then fail.
	var last uint64
	for {
		a, err := h.Alloc(ctx, 32)
		if err != nil {
			break
		}
		last = a
	}
	if last == 0 {
		t.Fatal("no allocation succeeded")
	}
}

// TestHeapLineAlignment pins the wilderness padding rule: a payload
// starts on a 64 B line exactly when that makes it span fewer lines and
// the padded block still fits. bump+8 is where an unpadded payload
// would start.
func TestHeapLineAlignment(t *testing.T) {
	const at = 1024 // a line boundary well inside the heap
	cases := []struct {
		name   string
		n, off uint64 // payload size; unpadded payload offset in its line
		want   uint64 // payload offset from at
		size   uint64 // heap size (0 = 64 KiB)
	}{
		{"128 B record unaligned: 3 lines -> 2", 128, 8, 64, 0},
		{"128 B record worst case: 3 lines -> 2", 128, 56, 64, 0},
		{"128 B record already aligned", 128, 0, 0, 0},
		{"8 B word never straddles", 8, 56, 56, 0},
		{"16 B pair inside a line", 16, 40, 40, 0},
		{"16 B pair straddling: 2 lines -> 1", 16, 56, 64, 0},
		{"272 B node spanning 5 lines unpadded", 272, 48, 48, 0},
		{"272 B node spanning 6 lines: padded to 5", 272, 56, 64, 0},
		{"64 B line-sized block", 64, 8, 64, 0},
		// The padded block would run past the end; the unpadded one fits.
		{"pad that does not fit", 128, 8, 8, at + 8 + 128},
	}
	for _, c := range cases {
		size := c.size
		if size == 0 {
			size = 1 << 16
		}
		ctx := newCtx(1 << 16)
		h := Heap{Base: 0, Size: size}
		h.Format(ctx)
		ctx.Store(8, at+c.off-8) // bump pointer: the next block's header
		a, err := h.Alloc(ctx, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a != at+c.want {
			t.Errorf("%s: payload at %d (line offset %d), want %d", c.name, a, a%64, at+c.want)
		}
		if got := h.BlockSize(ctx, a); got != c.n {
			t.Errorf("%s: BlockSize = %d, want %d", c.name, got, c.n)
		}
		if bump := ctx.Load(8); bump != a+c.n {
			t.Errorf("%s: bump pointer %d, want %d", c.name, bump, a+c.n)
		}
	}

	// A run of 128 B records: every payload on a line, 192 B apart.
	ctx := newCtx(1 << 16)
	h := Heap{Base: 0, Size: 1 << 16}
	h.Format(ctx)
	prev := uint64(0)
	for i := 0; i < 16; i++ {
		a, err := h.Alloc(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if a%64 != 0 || (i > 0 && a-prev != 192) {
			t.Fatalf("record %d at %d (previous %d), want line-aligned at a 192 B stride", i, a, prev)
		}
		prev = a
	}
}

// TestHeapQuickNoOverlap allocates and frees a random mix of the sizes
// the repository uses (words, KV blobs, 128 B records, B+-tree nodes)
// and arbitrary ones. No two live blocks may overlap, headers included,
// and every live payload keeps what was written into it.
func TestHeapQuickNoOverlap(t *testing.T) {
	sizes := []uint64{8, 16, 112, 128, 272}
	f := func(ops []uint16) bool {
		ctx := newCtx(1 << 20)
		h := Heap{Base: 0, Size: 1 << 20}
		h.Format(ctx)
		type blk struct{ addr, size, tag uint64 }
		var live []blk
		for k, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				n := uint64(op%500) + 1
				if op%2 == 0 {
					n = sizes[int(op/2)%len(sizes)]
				}
				a, err := h.Alloc(ctx, n)
				if err != nil {
					continue
				}
				rn := (n + 7) &^ 7
				if rn < 8 {
					rn = 8
				}
				if h.BlockSize(ctx, a) < rn {
					return false
				}
				for _, b := range live {
					if a-8 < b.addr+b.size && b.addr-8 < a+rn {
						return false // overlap
					}
				}
				b := blk{a, rn, uint64(k) << 32}
				for w := uint64(0); w < rn; w += 8 {
					ctx.Store(a+w, b.tag|w)
				}
				live = append(live, b)
			} else {
				i := int(op) % len(live)
				h.Free(ctx, live[i].addr)
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, b := range live {
			for w := uint64(0); w < b.size; w += 8 {
				if ctx.Load(b.addr+w) != b.tag|w {
					return false // clobbered
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapUnpaddedImage runs the allocator over a heap laid out without
// line padding — 128 B records packed at a 136 B stride, with every
// other one on the free list — as an image written before the padding
// rule holds it. Freed blocks are reused where they lie, the wilderness
// continues line-aligned past them, and no block overlaps another.
func TestHeapUnpaddedImage(t *testing.T) {
	ctx := newCtx(1 << 16)
	h := Heap{Base: 0, Size: 1 << 16}
	var free []uint64
	head := uint64(0)
	bp := uint64(heapMeta)
	var kept []uint64
	for i := 0; i < 8; i++ {
		ctx.Store(bp, 128)
		if i%2 == 0 {
			ctx.Store(bp+8, head) // free: link into the list
			head = bp
			free = append(free, bp+8)
		} else {
			ctx.Store(bp+8, uint64(i)) // live: a record's first word
			kept = append(kept, bp+8)
		}
		bp += 136
	}
	ctx.Store(0, head)
	ctx.Store(8, bp)

	// The free list hands back the old, unaligned blocks, newest first.
	for i := len(free) - 1; i >= 0; i-- {
		a, err := h.Alloc(ctx, 128)
		if err != nil {
			t.Fatal(err)
		}
		if a != free[i] {
			t.Fatalf("free-list alloc at %d, want the unpadded block at %d", a, free[i])
		}
	}
	// The wilderness picks up after the old blocks, line-aligned.
	a, err := h.Alloc(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	if a < bp+8 || a%64 != 0 {
		t.Fatalf("wilderness alloc at %d, want a line-aligned payload past %d", a, bp+8)
	}
	// Freeing an old block and allocating again reuses it.
	h.Free(ctx, kept[1])
	if b, _ := h.Alloc(ctx, 128); b != kept[1] {
		t.Fatalf("freed unpadded block not reused: %d != %d", b, kept[1])
	}
	for i, k := range kept {
		if i != 1 && ctx.Load(k) != uint64(2*i+1) {
			t.Errorf("live record at %d clobbered: %d", k, ctx.Load(k))
		}
		if h.BlockSize(ctx, k) != 128 {
			t.Errorf("block at %d lost its header", k)
		}
	}
}

// --- HashTable ---

func TestHashTableBasics(t *testing.T) {
	ctx := newCtx(1 << 16)
	h := NewHashTable(0, 256)
	if err := h.Put(ctx, 1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := h.Get(ctx, 1); !ok || v != 100 {
		t.Fatalf("got %d,%v", v, ok)
	}
	h.Put(ctx, 1, 200) // update
	if v, _ := h.Get(ctx, 1); v != 200 {
		t.Fatalf("update failed: %d", v)
	}
	if _, ok := h.Get(ctx, 2); ok {
		t.Fatal("phantom key")
	}
	if !h.Delete(ctx, 1) {
		t.Fatal("delete failed")
	}
	if _, ok := h.Get(ctx, 1); ok {
		t.Fatal("deleted key visible")
	}
	if h.Delete(ctx, 1) {
		t.Fatal("double delete succeeded")
	}
}

func TestHashTableCollisionsAndTombstones(t *testing.T) {
	ctx := newCtx(1 << 16)
	h := NewHashTable(0, 8)
	// Fill to capacity.
	for k := uint64(1); k <= 8; k++ {
		if err := h.Put(ctx, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Put(ctx, 9, 90); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	// Delete one; the slot must be reusable despite the tombstone.
	h.Delete(ctx, 3)
	if err := h.Put(ctx, 9, 90); err != nil {
		t.Fatalf("tombstone not reused: %v", err)
	}
	for k := uint64(1); k <= 9; k++ {
		if k == 3 {
			continue
		}
		if v, ok := h.Get(ctx, k); !ok || v != k*10 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
}

func TestHashTableReservedKeysPanic(t *testing.T) {
	ctx := newCtx(1 << 12)
	h := NewHashTable(0, 8)
	for _, k := range []uint64{0, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("reserved key accepted")
				}
			}()
			h.Put(ctx, k, 1)
		}()
	}
}

func TestHashTableQuickVsMap(t *testing.T) {
	f := func(ops []struct {
		K uint16
		V uint64
		D bool
	}) bool {
		ctx := newCtx(1 << 20)
		h := NewHashTable(0, 1<<12)
		model := map[uint64]uint64{}
		for _, op := range ops {
			k := uint64(op.K) + 1
			if op.D {
				got := h.Delete(ctx, k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			} else {
				if h.Put(ctx, k, op.V) != nil {
					return false
				}
				model[k] = op.V
			}
		}
		for k, v := range model {
			if got, ok := h.Get(ctx, k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- BPlusTree ---

func newTree(t *testing.T) (*flatCtx, BPlusTree) {
	t.Helper()
	ctx := newCtx(8 << 20)
	h := Heap{Base: 64, Size: 8<<20 - 64}
	h.Format(ctx)
	tr := BPlusTree{RootPtr: 0, Heap: h}
	if err := tr.Format(ctx); err != nil {
		t.Fatal(err)
	}
	return ctx, tr
}

func TestBTreeSequentialInserts(t *testing.T) {
	ctx, tr := newTree(t)
	const n = 5000
	for i := uint64(1); i <= n; i++ {
		if err := tr.Put(ctx, i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := tr.Get(ctx, i); !ok || v != i*2 {
			t.Fatalf("key %d: %d,%v", i, v, ok)
		}
	}
	if _, ok := tr.Get(ctx, n+1); ok {
		t.Fatal("phantom key")
	}
}

func TestBTreeReverseInserts(t *testing.T) {
	ctx, tr := newTree(t)
	for i := uint64(3000); i >= 1; i-- {
		if err := tr.Put(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 3000; i++ {
		if v, ok := tr.Get(ctx, i); !ok || v != i {
			t.Fatalf("key %d: %d,%v", i, v, ok)
		}
	}
}

func TestBTreeUpdate(t *testing.T) {
	ctx, tr := newTree(t)
	tr.Put(ctx, 42, 1)
	tr.Put(ctx, 42, 2)
	if v, _ := tr.Get(ctx, 42); v != 2 {
		t.Fatalf("v = %d", v)
	}
}

func TestBTreeDelete(t *testing.T) {
	ctx, tr := newTree(t)
	for i := uint64(1); i <= 1000; i++ {
		tr.Put(ctx, i, i)
	}
	for i := uint64(2); i <= 1000; i += 2 {
		if !tr.Delete(ctx, i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := uint64(1); i <= 1000; i++ {
		v, ok := tr.Get(ctx, i)
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d visible", i)
		}
		if i%2 == 1 && (!ok || v != i) {
			t.Fatalf("key %d lost: %d,%v", i, v, ok)
		}
	}
	if tr.Delete(ctx, 2) {
		t.Fatal("double delete succeeded")
	}
	// Reinsert deleted keys.
	for i := uint64(2); i <= 1000; i += 2 {
		if err := tr.Put(ctx, i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(2); i <= 1000; i += 2 {
		if v, ok := tr.Get(ctx, i); !ok || v != i*3 {
			t.Fatalf("reinserted key %d: %d,%v", i, v, ok)
		}
	}
}

func TestBTreeScan(t *testing.T) {
	ctx, tr := newTree(t)
	rng := rand.New(rand.NewSource(5))
	model := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(10000)) + 1
		tr.Put(ctx, k, k*7)
		model[k] = k * 7
	}
	var got []uint64
	tr.Scan(ctx, 100, 5000, func(k, v uint64) bool {
		if v != k*7 {
			t.Fatalf("scan value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	var want []uint64
	for k := range model {
		if k >= 100 && k < 5000 {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBTreeScanEarlyStop(t *testing.T) {
	ctx, tr := newTree(t)
	for i := uint64(1); i <= 100; i++ {
		tr.Put(ctx, i, i)
	}
	n := 0
	tr.Scan(ctx, 1, 101, func(k, v uint64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestBTreeQuickVsMap(t *testing.T) {
	f := func(seed int64, opCount uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := newCtx(16 << 20)
		h := Heap{Base: 64, Size: 16<<20 - 64}
		h.Format(ctx)
		tr := BPlusTree{RootPtr: 0, Heap: h}
		if tr.Format(ctx) != nil {
			return false
		}
		model := map[uint64]uint64{}
		for i := 0; i < int(opCount); i++ {
			k := uint64(rng.Intn(500)) + 1
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint64()
				if tr.Put(ctx, k, v) != nil {
					return false
				}
				model[k] = v
			case 2:
				got := tr.Delete(ctx, k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			}
		}
		for k, v := range model {
			if got, ok := tr.Get(ctx, k); !ok || got != v {
				return false
			}
		}
		// Scan must agree with the sorted model.
		var keys []uint64
		tr.Scan(ctx, 0, ^uint64(0), func(k, _ uint64) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != len(model) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
