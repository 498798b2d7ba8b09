package memdb

// Heap is a transactional first-fit allocator over a region of the
// persistent pool. Its metadata (free-list head, bump pointer) and block
// headers live inside the region and are read and written through the
// transaction context, so an allocation or free is atomic and durable
// with the transaction that performs it — this replaces the paper's
// separate per-thread pmalloc/pfree log (§3.5) with a strictly stronger
// mechanism: allocator state can never disagree with the data structures
// that use it.
//
// Region layout:
//
//	Base+0   free-list head (0 = empty)
//	Base+8   bump pointer (next never-allocated address)
//	Base+16  start of block storage
//
// A block is [size uint64][payload size bytes]; a free block stores the
// next free block's address in its first payload word. Freed blocks are
// not coalesced (allocation patterns in the benchmarks are uniform).
//
// A block carved from the wilderness starts its payload on a 64 B cache
// line whenever that makes the payload span fewer lines: a 128 B record
// then occupies 2 lines instead of 3, so Reproduce writes back 128 B per
// overwrite, not 192. The header sits in the last word of the previous
// line and the skipped bytes stay unused. A block that spans as few lines
// unpadded (an 8 B word, a 272 B B+-tree node at most offsets) is not
// padded. The layout is unchanged and nothing walks the heap, so a heap
// built without the padding stays valid.
type Heap struct {
	// Base is the pool-logical address of the region.
	Base uint64
	// Size is the region length in bytes.
	Size uint64
}

const (
	heapMeta     = 16
	minPayload   = 8
	splitReserve = 16 // split only if the remainder fits a header + payload
	lineBytes    = 64
)

// lines returns the number of cache lines the n bytes at addr span.
func lines(addr, n uint64) uint64 {
	return (addr+n-1)/lineBytes - addr/lineBytes + 1
}

// Format initializes the heap metadata. It must run in a transaction
// before the first Alloc (typically once, right after pool creation).
func (h Heap) Format(ctx Ctx) {
	ctx.Store(h.Base, 0)
	ctx.Store(h.Base+8, h.Base+heapMeta)
}

// Alloc allocates n bytes (rounded up to a multiple of 8, minimum 8) and
// returns the payload address.
func (h Heap) Alloc(ctx Ctx, n uint64) (uint64, error) {
	n = (n + 7) &^ 7
	if n < minPayload {
		n = minPayload
	}
	// First fit over the free list.
	prev := h.Base // address of the word pointing at the current block
	for b := ctx.Load(prev); b != 0; {
		size := ctx.Load(b)
		if size >= n {
			next := ctx.Load(b + 8)
			if size >= n+8+splitReserve {
				// Split the tail into a new free block.
				nb := b + 8 + n
				ctx.Store(nb, size-n-8)
				ctx.Store(nb+8, next)
				ctx.Store(prev, nb)
				ctx.Store(b, n)
			} else {
				ctx.Store(prev, next)
			}
			return b + 8, nil
		}
		prev = b + 8
		b = ctx.Load(prev)
	}
	// Extend the wilderness, line-aligning the payload if that saves a
	// line and still fits.
	p := ctx.Load(h.Base+8) + 8
	if a := (p + lineBytes - 1) &^ (lineBytes - 1); lines(a, n) < lines(p, n) && a+n <= h.End() {
		p = a
	}
	if p+n > h.End() {
		return 0, ErrOutOfMemory
	}
	ctx.Store(h.Base+8, p+n)
	ctx.Store(p-8, n)
	return p, nil
}

// Free returns the block at payload address addr to the free list.
func (h Heap) Free(ctx Ctx, addr uint64) {
	b := addr - 8
	ctx.Store(b+8, ctx.Load(h.Base))
	ctx.Store(h.Base, b)
}

// BlockSize returns the payload size of the block at addr.
func (h Heap) BlockSize(ctx Ctx, addr uint64) uint64 {
	return ctx.Load(addr - 8)
}

// End returns the first address past the region.
func (h Heap) End() uint64 { return h.Base + h.Size }
