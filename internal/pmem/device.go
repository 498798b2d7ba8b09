// Package pmem simulates a byte-addressable non-volatile memory device.
//
// Real persistent memory exposes ordinary loads and stores; stores become
// durable only after the affected cache lines are written back (CLWB /
// CLFLUSHOPT) and ordered by a fence (SFENCE). Portable Go offers no control
// over the CPU cache, so this package models the cache explicitly: every
// store lands in a simulated volatile cache (per-line dirty tracking), and
// only FlushRange followed by Fence makes data durable. The first store to
// a clean line copies the line into a device-sized array of persisted
// contents, where it stays until the line is written back. Crash discards
// all non-persisted lines, reverting them to those saved contents, which
// makes crash-consistency protocols testable instead of assumed.
//
// The device also models the performance of persist barriers the same way
// the DudeTM paper's evaluation does (§5.1): a synchronous persist of a
// batch of writes stalls the caller for
//
//	max(WriteLatency, totalBytes/Bandwidth)
//
// and a persist of a single small write stalls for WriteLatency.
package pmem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"dudetm/internal/word"
)

// LineSize is the cache-line granularity of flushes, matching x86.
const LineSize = 64

const lineShift = 6

// numLocks line locks (line % numLocks) serialize a line's clean->dirty
// copy into the persisted image with its dirty->clean write-back.
const numLocks = 256

// lineLock is one line lock, padded to a cache line of its own: the
// Persist step's log appends and the Reproduce step's replay take
// different locks at once, and must not contend for one line.
type lineLock struct {
	sync.Mutex
	_ [LineSize - 8]byte
}

// Config describes a simulated device.
type Config struct {
	// Size is the capacity of the device in bytes. It is rounded up to a
	// multiple of LineSize.
	Size uint64

	// WriteLatency is the stall applied to each persist barrier,
	// modelling NVM write latency. The paper uses 1000 and 3500 CPU
	// cycles at 3.4 GHz; see Latency1000 and Latency3500.
	WriteLatency time.Duration

	// Bandwidth is the sustained write bandwidth in bytes per second used
	// for batched persists. Zero means unlimited.
	Bandwidth float64

	// DelayEnabled turns the timing model on. When false, persist
	// barriers are free (useful for unit tests).
	DelayEnabled bool
}

// Latency presets matching the paper's emulation (3.4 GHz clock).
const (
	// Latency1000 is 1000 cycles at 3.4 GHz, the paper's optimistic
	// future-NVM write latency (about 300 ns).
	Latency1000 = 294 * time.Nanosecond
	// Latency3500 is 3500 cycles at 3.4 GHz, the paper's PCM-like write
	// latency (about 1 us).
	Latency3500 = 1029 * time.Nanosecond
)

// GB expresses bandwidths in the units the paper sweeps (GB/s).
const GB = float64(1 << 30)

// Stats is a snapshot of device activity counters.
type Stats struct {
	// Stores counts store operations issued to the device.
	Stores uint64
	// BytesStored counts bytes written by stores (durable or not).
	BytesStored uint64
	// BytesFlushed counts bytes of dirty lines made durable; this is the
	// NVM write traffic the paper reports.
	BytesFlushed uint64
	// LinesFlushed counts dirty cache lines written back.
	LinesFlushed uint64
	// Fences counts persist barriers.
	Fences uint64
	// DelayNanos is the total simulated stall time in nanoseconds.
	DelayNanos uint64
}

// Region names a sub-range of the device for per-region accounting:
// the pool layout registers its header, log, flight-recorder and data
// regions so flush/fence/byte traffic can be attributed to each.
type Region struct {
	Name string
	Addr uint64
	Size uint64
}

// RegionStats is the per-region slice of the activity counters. A fence
// is attributed to a region when the flush traffic it orders touched
// that region (Persist, or a Batch whose Flush calls covered it);
// standalone Fence calls order traffic the device cannot attribute and
// count only in the global total.
type RegionStats struct {
	Name         string
	Stores       uint64
	BytesStored  uint64
	BytesFlushed uint64
	LinesFlushed uint64
	Fences       uint64
}

// regionCtr is the live counter block of one configured region.
type regionCtr struct {
	name      string
	idx       int
	addr, end uint64

	stores       atomic.Uint64
	bytesStored  atomic.Uint64
	bytesFlushed atomic.Uint64
	linesFlushed atomic.Uint64
	fences       atomic.Uint64
}

// Device is a simulated NVM device. All methods are safe for concurrent
// use; concurrent stores to overlapping ranges race exactly as concurrent
// unsynchronized stores to real memory would.
//
// data holds what a load sees. saved, as large as the device, holds the
// persisted contents of every line whose dirty bit is set; its bytes for
// clean lines are stale and never read. Only the pages of lines that were
// ever dirtied become resident.
type Device struct {
	cfg   Config
	data  []byte
	saved []byte
	dirty []uint32 // atomic bitset, one bit per line
	locks [numLocks]lineLock

	stores       atomic.Uint64
	bytesStored  atomic.Uint64
	bytesFlushed atomic.Uint64
	linesFlushed atomic.Uint64
	fences       atomic.Uint64
	delayNanos   atomic.Uint64

	regions atomic.Pointer[[]*regionCtr]
}

// SetRegions installs named sub-ranges for per-region accounting;
// subsequent stores, flushes and attributable fences are credited to the
// region containing their start address. At most 64 regions are
// supported (a Batch tracks touched regions in one word). Replaces any
// previous configuration; counters start at zero.
func (d *Device) SetRegions(regions []Region) {
	if len(regions) > 64 {
		panic("pmem: at most 64 regions")
	}
	rs := make([]*regionCtr, 0, len(regions))
	for i, r := range regions {
		d.check(r.Addr, r.Size)
		rs = append(rs, &regionCtr{name: r.Name, idx: i, addr: r.Addr, end: r.Addr + r.Size})
	}
	d.regions.Store(&rs)
}

// regionOf returns the configured region containing addr, or nil.
func (d *Device) regionOf(addr uint64) *regionCtr {
	rs := d.regions.Load()
	if rs == nil {
		return nil
	}
	for _, r := range *rs {
		if addr >= r.addr && addr < r.end {
			return r
		}
	}
	return nil
}

// RegionStats snapshots the per-region counters (nil when SetRegions was
// never called).
func (d *Device) RegionStats() []RegionStats {
	rs := d.regions.Load()
	if rs == nil {
		return nil
	}
	out := make([]RegionStats, 0, len(*rs))
	for _, r := range *rs {
		out = append(out, RegionStats{
			Name:         r.name,
			Stores:       r.stores.Load(),
			BytesStored:  r.bytesStored.Load(),
			BytesFlushed: r.bytesFlushed.Load(),
			LinesFlushed: r.linesFlushed.Load(),
			Fences:       r.fences.Load(),
		})
	}
	return out
}

// New creates a device of the configured size, zero-filled and fully
// persisted.
func New(cfg Config) *Device {
	if cfg.Size == 0 {
		panic("pmem: zero-size device")
	}
	cfg.Size = (cfg.Size + LineSize - 1) &^ uint64(LineSize-1)
	return &Device{
		cfg:   cfg,
		data:  word.Alloc(cfg.Size),
		saved: make([]byte, cfg.Size),
		dirty: make([]uint32, (cfg.Size>>lineShift+31)/32),
	}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.cfg.Size }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) check(addr, n uint64) {
	if addr+n > d.cfg.Size || addr+n < addr {
		panic(fmt.Sprintf("pmem: access [%d,%d) out of range (size %d)", addr, addr+n, d.cfg.Size))
	}
}

func (d *Device) lineDirty(line uint64) bool {
	return atomic.LoadUint32(&d.dirty[line/32])&(1<<(line%32)) != 0
}

// cleanLine clears line's dirty bit. Caller holds the line's lock.
func (d *Device) cleanLine(line uint64) {
	atomic.AndUint32(&d.dirty[line/32], ^uint32(1<<(line%32)))
}

// dirtyWords is the length of the dirty bitset.
func (d *Device) dirtyWords() uint64 { return (d.cfg.Size>>lineShift + 31) / 32 }

// forEachDirty calls fn for every dirty line, holding the line's lock;
// fn may clean the line.
func (d *Device) forEachDirty(fn func(line uint64)) {
	for w := uint64(0); w < d.dirtyWords(); w++ {
		for set := atomic.LoadUint32(&d.dirty[w]); set != 0; set &= set - 1 {
			line := w*32 + uint64(bits.TrailingZeros32(set))
			mu := &d.locks[line%numLocks]
			mu.Lock()
			if d.lineDirty(line) {
				fn(line)
			}
			mu.Unlock()
		}
	}
}

// markDirty ensures the persisted copy of line is saved before the caller
// modifies it.
func (d *Device) markDirty(line uint64) {
	if d.lineDirty(line) {
		return
	}
	mu := &d.locks[line%numLocks]
	mu.Lock()
	if !d.lineDirty(line) {
		// Copy word-atomically: a concurrent Store8 to another word of
		// this line may be in flight (its dirty-bit check can race with
		// a flush clearing the bit), and either snapshot is a legal
		// "persisted" image for a store concurrent with a write-back.
		base := line << lineShift
		for o := base; o < base+LineSize; o += 8 {
			binary.LittleEndian.PutUint64(d.saved[o:], word.Load(d.data, o))
		}
		// Publish the bit only after the persisted copy is saved, so a
		// concurrent fast-path store cannot modify the line first.
		atomic.OrUint32(&d.dirty[line/32], 1<<(line%32))
	}
	mu.Unlock()
}

// Store writes b at addr. The write is volatile until the covering lines
// are flushed and fenced.
func (d *Device) Store(addr uint64, b []byte) {
	n := uint64(len(b))
	if n == 0 {
		return
	}
	d.check(addr, n)
	for line := addr >> lineShift; line <= (addr+n-1)>>lineShift; line++ {
		d.markDirty(line)
	}
	copy(d.data[addr:], b)
	d.countStore(addr, n)
}

// countStore accounts one store operation of n bytes at addr, globally
// and to the region containing addr.
func (d *Device) countStore(addr, n uint64) {
	d.stores.Add(1)
	d.bytesStored.Add(n)
	if r := d.regionOf(addr); r != nil {
		r.stores.Add(1)
		r.bytesStored.Add(n)
	}
}

// Store8 atomically writes the 8-byte word at addr, which must be
// 8-aligned — modelling the single-copy atomicity of aligned stores on
// real hardware. Optimistic TM readers may race with this store and
// detect the conflict afterwards.
func (d *Device) Store8(addr, val uint64) {
	d.check(addr, 8)
	d.markDirty(addr >> lineShift)
	word.Store(d.data, addr, val)
	d.countStore(addr, 8)
}

// StoreRun writes vals as consecutive 8-byte words starting at addr,
// which must be 8-aligned. Each word is stored single-copy atomically,
// exactly as len(vals) Store8 calls would store it, but the persisted
// copy is saved once per covered line and the run is accounted once —
// the replay paths store whole contiguous runs, and per-word
// bookkeeping was most of their cost.
func (d *Device) StoreRun(addr uint64, vals []uint64) {
	n := 8 * uint64(len(vals))
	if n == 0 {
		return
	}
	d.check(addr, n)
	for line := addr >> lineShift; line <= (addr+n-1)>>lineShift; line++ {
		d.markDirty(line)
	}
	for i, v := range vals {
		word.Store(d.data, addr+8*uint64(i), v)
	}
	d.countStore(addr, n)
}

// Load reads len(b) bytes at addr into b, observing the latest (possibly
// unpersisted) contents, as a CPU load through the cache would.
func (d *Device) Load(addr uint64, b []byte) {
	d.check(addr, uint64(len(b)))
	copy(b, d.data[addr:])
}

// Load8 atomically reads the 8-byte word at addr, which must be
// 8-aligned.
func (d *Device) Load8(addr uint64) uint64 {
	d.check(addr, 8)
	return word.Load(d.data, addr)
}

// FlushRange writes back all dirty lines covering [addr, addr+n), like a
// sequence of CLWB instructions. It returns the number of bytes written
// back. The write-back is not ordered until a subsequent Fence.
func (d *Device) FlushRange(addr, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	d.check(addr, n)
	var bytes uint64
	for line := addr >> lineShift; line <= (addr+n-1)>>lineShift; line++ {
		if !d.lineDirty(line) {
			continue
		}
		mu := &d.locks[line%numLocks]
		mu.Lock()
		if d.lineDirty(line) {
			d.cleanLine(line)
			bytes += LineSize
		}
		mu.Unlock()
	}
	if bytes > 0 {
		d.bytesFlushed.Add(bytes)
		d.linesFlushed.Add(bytes / LineSize)
		if r := d.regionOf(addr); r != nil {
			r.bytesFlushed.Add(bytes)
			r.linesFlushed.Add(bytes / LineSize)
		}
	}
	return bytes
}

// Fence orders previously issued flushes (SFENCE) and stalls the caller
// according to the delay model: max(WriteLatency, bytes/Bandwidth), where
// bytes is the write-back volume being ordered by this fence.
func (d *Device) Fence(bytes uint64) {
	d.fences.Add(1)
	if !d.cfg.DelayEnabled {
		return
	}
	delay := d.cfg.WriteLatency
	if d.cfg.Bandwidth > 0 && bytes > 0 {
		bw := time.Duration(float64(bytes) / d.cfg.Bandwidth * float64(time.Second))
		if bw > delay {
			delay = bw
		}
	}
	if delay > 0 {
		spinWait(delay)
		d.delayNanos.Add(uint64(delay))
	}
}

// Persist flushes and fences a single range: the paper's "persist
// operation" (CLWB ... SFENCE) used once per transaction or per update.
func (d *Device) Persist(addr, n uint64) {
	b := d.FlushRange(addr, n)
	if r := d.regionOf(addr); r != nil {
		r.fences.Add(1)
	}
	d.Fence(b)
}

// Batch accumulates flushes whose ordering cost is paid by one fence, the
// pattern used when persisting a whole redo log at once. Flush may be
// called from multiple goroutines concurrently (the sharded Reproduce
// appliers share one batch); Fence must be called by a single goroutine
// after joining all flushers, mirroring how SFENCE orders the CLWBs the
// issuing core has observed.
type Batch struct {
	d     *Device
	bytes atomic.Uint64
	// touched is a bitmask of region indices this batch flushed, so the
	// closing fence can be attributed to every region it orders.
	touched atomic.Uint64
}

// NewBatch starts a flush batch.
func (d *Device) NewBatch() *Batch { return &Batch{d: d} }

// Flush writes back the dirty lines of the range, accumulating volume.
func (b *Batch) Flush(addr, n uint64) {
	b.bytes.Add(b.d.FlushRange(addr, n))
	if r := b.d.regionOf(addr); r != nil {
		b.touched.Or(1 << uint(r.idx))
	}
}

// Fence orders the batch and stalls for max(latency, volume/bandwidth).
// It returns the write-back volume it ordered, in bytes. The batch can
// be reused afterwards.
func (b *Batch) Fence() uint64 {
	if mask := b.touched.Swap(0); mask != 0 {
		if rs := b.d.regions.Load(); rs != nil {
			for _, r := range *rs {
				if mask&(1<<uint(r.idx)) != 0 {
					r.fences.Add(1)
				}
			}
		}
	}
	bytes := b.bytes.Swap(0)
	b.d.Fence(bytes)
	return bytes
}

// Crash simulates a power failure: every line not made durable reverts to
// its last persisted contents. The caller must have quiesced all other
// users of the device.
func (d *Device) Crash() {
	d.forEachDirty(func(line uint64) {
		off := line << lineShift
		copy(d.data[off:off+LineSize], d.saved[off:])
		d.cleanLine(line)
	})
}

// PersistedImage returns a copy of the durable contents of the device:
// what a crash right now would leave behind. Stores may run concurrently,
// as a replica's ingest can during a snapshot; the image is then exact
// only for the lines they leave alone.
func (d *Device) PersistedImage() []byte {
	img := make([]byte, d.cfg.Size)
	for o := uint64(0); o < d.cfg.Size; o += 8 {
		binary.LittleEndian.PutUint64(img[o:], word.Load(d.data, o))
	}
	d.forEachDirty(func(line uint64) {
		off := line << lineShift
		copy(img[off:off+LineSize], d.saved[off:])
	})
	return img
}

// Restore loads img as the fully persisted contents of the device,
// discarding all current state. It is used to remount a pool image after
// a simulated crash in a separate process or example.
func (d *Device) Restore(img []byte) {
	if uint64(len(img)) != d.cfg.Size {
		panic("pmem: restore image size mismatch")
	}
	for i := range d.locks {
		d.locks[i].Lock()
	}
	copy(d.data, img)
	for w := uint64(0); w < d.dirtyWords(); w++ {
		atomic.StoreUint32(&d.dirty[w], 0)
	}
	for i := range d.locks {
		d.locks[i].Unlock()
	}
}

// DirtyLines reports the number of lines that would be lost on a crash.
func (d *Device) DirtyLines() int {
	n := 0
	for w := uint64(0); w < d.dirtyWords(); w++ {
		n += bits.OnesCount32(atomic.LoadUint32(&d.dirty[w]))
	}
	return n
}

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats {
	return Stats{
		Stores:       d.stores.Load(),
		BytesStored:  d.bytesStored.Load(),
		BytesFlushed: d.bytesFlushed.Load(),
		LinesFlushed: d.linesFlushed.Load(),
		Fences:       d.fences.Load(),
		DelayNanos:   d.delayNanos.Load(),
	}
}

// spinWait busy-waits for roughly dur. time.Sleep has coarse granularity
// (often 1 ms in containers) while NVM persist latencies are hundreds of
// nanoseconds, so a calibrated spin is the only faithful option — the
// paper's emulation loops on RDTSC for the same reason.
func spinWait(dur time.Duration) {
	start := time.Now()
	for time.Since(start) < dur {
	}
}
