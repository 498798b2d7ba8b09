// Package shadow implements DudeTM's shadow memory: the shared,
// cross-transaction volatile mirror of persistent memory that the
// Perform step executes on (§3.1, §4.3).
//
// Three configurations are provided:
//
//   - FlatSpace: shadow memory as large as persistent data; the
//     address mapping is the identity ("a constant offset" in the
//     paper). No paging.
//   - PagedSpace in SoftwarePaging mode: a software page table — every
//     access translates through the table and takes a reference on the
//     page, the exact per-access overhead the paper attributes to software paging
//     ("at least two memory accesses per address translation" plus a
//     compare-and-swap on the page reference).
//   - PagedSpace in HardwarePaging mode: simulates Dune/VT-x hardware
//     paging — reads are optimistic (a versioned page-table word is sampled before
//     and after the uninstrumented load, standing in for a free TLB
//     translation), while evictions pay an explicit TLB-shootdown stall,
//     the cost profile that makes hardware paging win with large shadow
//     memory and lose as eviction rate grows (Figure 4).
//
// Pages are never written back on eviction — they are discarded, because
// every update is captured in the redo log. Swapping a page in must wait
// until the Reproduce step has replayed all transactions that touched it
// (the page's touching ID, §4.3).
package shadow

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dudetm/internal/word"
)

// Space is the shadow memory seen by DudeTM: transactional word access
// plus the page-pinning hooks the durable-transaction wrapper uses to
// keep a transaction's written pages resident until commit.
type Space interface {
	// Load8 and Store8 access an 8-aligned word at a pool-logical
	// address (they satisfy stm.Space).
	Load8(addr uint64) uint64
	Store8(addr, val uint64)

	// PinWritePage pins the page containing addr and returns its page
	// index. The caller must balance it with CommitPages or
	// ReleasePages. Pinning the same page multiple times is allowed.
	PinWritePage(addr uint64) uint64

	// CommitPages records tid as the touching ID of the given pages and
	// releases one pin on each.
	CommitPages(pages []uint64, tid uint64)

	// ReleasePages releases one pin on each page without updating
	// touching IDs (abort path).
	ReleasePages(pages []uint64)

	// Stats returns paging counters (zero for FlatSpace).
	Stats() Stats
}

// Source is what a paged space swaps pages in from: the persistent data
// region, plus the Reproduce progress needed for safe swap-in.
type Source interface {
	// ReadPage copies the persistent contents of page into dst.
	ReadPage(page uint64, dst []byte)
	// WaitReproduced blocks until every transaction up to tid has been
	// replayed to persistent data, parking until the Reproduce step
	// wakes it, and reports whether it had to wait.
	WaitReproduced(tid uint64) bool
}

// Stats counts paging activity.
type Stats struct {
	Faults      uint64 // page faults (swap-ins)
	Evictions   uint64 // pages discarded to free a frame
	SwapInWaits uint64 // faults that had to wait for Reproduce
}

// --- FlatSpace ---

// FlatSpace is a full-size shadow memory with identity mapping.
type FlatSpace struct {
	buf []byte
}

// NewFlat creates a flat shadow space of size bytes, initialized from
// src (pass nil to start zeroed).
func NewFlat(size uint64, src Source, pageSize uint64) *FlatSpace {
	f := &FlatSpace{buf: word.Alloc(size)}
	if src != nil {
		for page := uint64(0); page*pageSize < size; page++ {
			src.ReadPage(page, f.buf[page*pageSize:(page+1)*pageSize])
		}
	}
	return f
}

// Load8 implements Space.
func (f *FlatSpace) Load8(addr uint64) uint64 { return word.Load(f.buf, addr) }

// Store8 implements Space.
func (f *FlatSpace) Store8(addr, val uint64) { word.Store(f.buf, addr, val) }

// PinWritePage implements Space (no-op for a flat space).
func (f *FlatSpace) PinWritePage(addr uint64) uint64 { return 0 }

// CommitPages implements Space (no-op).
func (f *FlatSpace) CommitPages(pages []uint64, tid uint64) {}

// ReleasePages implements Space (no-op).
func (f *FlatSpace) ReleasePages(pages []uint64) {}

// Stats implements Space.
func (f *FlatSpace) Stats() Stats { return Stats{} }

// --- PagedSpace ---

// Mode selects the paging implementation a PagedSpace simulates.
type Mode int

const (
	// SoftwarePaging is software paging: table lookup + page reference
	// count on every access, cheap eviction.
	SoftwarePaging Mode = iota
	// HardwarePaging simulates hardware (Dune/VT-x) paging: optimistic
	// reads with no reference counting, but every eviction pays a
	// simulated TLB-shootdown stall.
	HardwarePaging
)

// PagedConfig configures a PagedSpace.
type PagedConfig struct {
	// Size is the logical (persistent data) size in bytes.
	Size uint64
	// ShadowBytes is the DRAM budget; Size/PageSize frames hold the hot
	// set. Must be at least 8 pages.
	ShadowBytes uint64
	// PageSize is the paging granularity (default 4096).
	PageSize uint64
	// Mode selects software or simulated-hardware paging.
	Mode Mode
	// ShootdownDelay is the simulated cost of a TLB shootdown on
	// eviction in HardwarePaging mode (default 4us; the paper measures
	// a VM exit plus IPIs to all cores).
	ShootdownDelay time.Duration
	// DisableDelays turns off the shootdown stall (unit tests).
	DisableDelays bool
}

// Page-table slot packing: [frame+1 : 28 bits][version : 20][refs : 16].
const (
	refBits   = 16
	verBits   = 20
	refMask   = 1<<refBits - 1
	verShift  = refBits
	verMask   = (1<<verBits - 1) << verShift
	frmShift  = refBits + verBits
	maxFrames = 1<<28 - 2
)

func slotFrame(s uint64) uint64 { return s >> frmShift } // frame+1; 0 = absent
func slotRefs(s uint64) uint64  { return s & refMask }

// bumpVer returns s with the version field incremented (wrapping).
func bumpVer(s uint64) uint64 {
	return (s &^ uint64(verMask)) | ((s + 1<<verShift) & verMask)
}

// PagedSpace is a demand-paged shadow memory over a Source.
type PagedSpace struct {
	cfg    PagedConfig
	src    Source
	slots  []atomic.Uint64 // one per logical page
	touch  []atomic.Uint64 // touching ID per logical page
	frames [][]byte

	freeMu sync.Mutex
	free   []uint64 // free frame indices

	faultLocks [256]sync.Mutex
	hand       atomic.Uint64 // clock hand for eviction

	faults    atomic.Uint64
	evictions atomic.Uint64
	waits     atomic.Uint64

	pageShift uint
	pageMask  uint64
}

// NewPaged creates a demand-paged shadow space.
func NewPaged(cfg PagedConfig, src Source) *PagedSpace {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic("shadow: page size must be a power of two")
	}
	if cfg.ShootdownDelay == 0 {
		cfg.ShootdownDelay = 4 * time.Microsecond
	}
	if cfg.Size%cfg.PageSize != 0 {
		panic("shadow: size must be a multiple of page size")
	}
	nFrames := cfg.ShadowBytes / cfg.PageSize
	if nFrames < 8 {
		panic("shadow: need at least 8 frames")
	}
	if nFrames > maxFrames {
		panic("shadow: too many frames")
	}
	nPages := cfg.Size / cfg.PageSize
	p := &PagedSpace{
		cfg:    cfg,
		src:    src,
		slots:  make([]atomic.Uint64, nPages),
		touch:  make([]atomic.Uint64, nPages),
		frames: make([][]byte, nFrames),
	}
	shift := uint(0)
	for 1<<shift != cfg.PageSize {
		shift++
	}
	p.pageShift = shift
	p.pageMask = cfg.PageSize - 1
	for i := uint64(0); i < nFrames; i++ {
		p.frames[i] = word.Alloc(cfg.PageSize)
		p.free = append(p.free, i)
	}
	return p
}

// Stats implements Space.
func (p *PagedSpace) Stats() Stats {
	return Stats{
		Faults:      p.faults.Load(),
		Evictions:   p.evictions.Load(),
		SwapInWaits: p.waits.Load(),
	}
}

func (p *PagedSpace) pageOf(addr uint64) uint64 { return addr >> p.pageShift }

// acquire pins the page containing addr (refs+1) and returns its frame.
// This is the software-paging access path: a table load plus a CAS.
func (p *PagedSpace) acquire(page uint64) uint64 {
	slot := &p.slots[page]
	for {
		s := slot.Load()
		if f := slotFrame(s); f != 0 {
			if slotRefs(s) == refMask {
				runtime.Gosched() // pathological pin pile-up: full until a holder releases
				continue
			}
			if slot.CompareAndSwap(s, s+1) {
				return f - 1
			}
			continue
		}
		p.fault(page)
	}
}

func (p *PagedSpace) release(page uint64) {
	p.slots[page].Add(^uint64(0)) // refs-1
}

// Load8 implements Space.
func (p *PagedSpace) Load8(addr uint64) uint64 {
	page := p.pageOf(addr)
	off := addr & p.pageMask
	if p.cfg.Mode == HardwarePaging {
		// Optimistic read: sample the versioned slot, do the plain
		// load (the "TLB hit"), and validate frame+version. A frame
		// reused mid-read changes the version and the value is retried.
		slot := &p.slots[page]
		for {
			s := slot.Load()
			f := slotFrame(s)
			if f == 0 {
				p.fault(page)
				continue
			}
			v := word.Load(p.frames[f-1], off)
			if slot.Load()&^uint64(refMask) == s&^uint64(refMask) {
				return v
			}
		}
	}
	f := p.acquire(page)
	v := word.Load(p.frames[f], off)
	p.release(page)
	return v
}

// Store8 implements Space. Stores pin the page in both modes (a store
// into a reused frame would corrupt an unrelated page).
func (p *PagedSpace) Store8(addr, val uint64) {
	page := p.pageOf(addr)
	f := p.acquire(page)
	word.Store(p.frames[f], addr&p.pageMask, val)
	p.release(page)
}

// PinWritePage implements Space.
func (p *PagedSpace) PinWritePage(addr uint64) uint64 {
	page := p.pageOf(addr)
	p.acquire(page)
	return page
}

// CommitPages implements Space: raise each page's touching ID to tid and
// drop the write pin.
func (p *PagedSpace) CommitPages(pages []uint64, tid uint64) {
	for _, page := range pages {
		t := &p.touch[page]
		for {
			cur := t.Load()
			if cur >= tid || t.CompareAndSwap(cur, tid) {
				break
			}
		}
		p.release(page)
	}
}

// ReleasePages implements Space.
func (p *PagedSpace) ReleasePages(pages []uint64) {
	for _, page := range pages {
		p.release(page)
	}
}

// fault swaps the page in, evicting a victim if no frame is free. Safe
// swap-in (§4.3): if the page was modified by transactions Reproduce has
// not replayed yet, wait for Reproduce to catch up before reading the
// persistent copy.
func (p *PagedSpace) fault(page uint64) {
	lk := &p.faultLocks[page%uint64(len(p.faultLocks))]
	lk.Lock()
	defer lk.Unlock()
	if slotFrame(p.slots[page].Load()) != 0 {
		return // another thread faulted it in
	}
	frame := p.allocFrame()

	if p.src.WaitReproduced(p.touch[page].Load()) {
		p.waits.Add(1)
	}
	p.src.ReadPage(page, p.frames[frame])
	p.faults.Add(1)

	slot := &p.slots[page]
	for {
		s := slot.Load() // frame 0, refs may not be 0? absent => refs 0
		ns := bumpVer(s) | (frame+1)<<frmShift
		if slot.CompareAndSwap(s, ns) {
			return
		}
	}
}

// allocFrame pops a free frame or evicts an unpinned resident page.
func (p *PagedSpace) allocFrame() uint64 {
	p.freeMu.Lock()
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		p.freeMu.Unlock()
		return f
	}
	p.freeMu.Unlock()

	// Clock sweep for a resident, unpinned victim.
	n := uint64(len(p.slots))
	for attempt := uint64(0); ; attempt++ {
		page := p.hand.Add(1) % n
		slot := &p.slots[page]
		s := slot.Load()
		f := slotFrame(s)
		if f == 0 || slotRefs(s) != 0 {
			if attempt > 0 && attempt%(8*n) == 0 {
				// Every frame pinned: misconfiguration (shadow memory
				// smaller than the working set of in-flight writes).
				panic(fmt.Sprintf("shadow: no evictable page after %d probes", attempt))
			}
			continue
		}
		if !slot.CompareAndSwap(s, bumpVer(s)&^(uint64(maxFrames+1)<<frmShift)) {
			continue
		}
		p.evictions.Add(1)
		if p.cfg.Mode == HardwarePaging && !p.cfg.DisableDelays {
			// TLB shootdown: a VM exit plus IPIs stall the evictor.
			spinWait(p.cfg.ShootdownDelay)
		}
		return f - 1
	}
}

func spinWait(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}
