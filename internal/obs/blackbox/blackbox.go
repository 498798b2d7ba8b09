// Package blackbox is a persistent flight recorder: a small append-only
// ring of fixed-size milestone records stored inside the simulated NVM
// device, in its own pool region. The live pipeline stamps it at the
// rare milestones the redo log does not already record (boot, watchdog
// stall); after a crash, the surviving stamps and the log records are
// what is left of what the pipeline was doing when power failed, and the
// forensics pass decodes both into the CrashReport. Nothing is stamped
// per group: the log's own records and metadata carry the durable and
// reproduced frontiers.
//
// Durability discipline: each record occupies exactly one cache line, so
// it persists atomically, and carries a CRC-32C so a line that never made
// it out of the cache (or was half-written when the recorder was lapped)
// reads as a torn slot rather than a bogus event. Stamps are volatile
// stores until Sync writes the pending slots back and fences them. The
// stamp path takes one mutex and allocates nothing.
package blackbox

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"dudetm/internal/pmem"
)

// Ring layout on the device, starting at the region offset:
//
//	[0,  64)                 header (magic, entries, crc), one line
//	[64, 64+entries*64)      record slots, one line each; slot = seq % entries
const (
	ringMagic = 0x4455444542423031 // "DUDEBB01"

	// HeaderBytes is the size of the ring header.
	HeaderBytes = 64
	// SlotBytes is the size of one record slot: one cache line, so a
	// record persists atomically.
	SlotBytes = 64
)

// Record slot layout (little-endian uint64 fields):
//
//	[ 0] seq    (1-based; 0 marks a never-written slot)
//	[ 8] kind
//	[16] at     (wall clock, Unix nanoseconds)
//	[24] a
//	[32] b
//	[40] c
//	[48] reserved (zero)
//	[56] crc    (CRC-32C of bytes [0,56))

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// slotCRC is a byte-at-a-time CRC-32C, identical to
// crc32.Checksum(b, crcTable). The stdlib entry point dispatches through
// an arch-specific function variable, which escape analysis cannot see
// through, so a stack slot buffer passed to it would be forced to the
// heap — and the stamp path must not allocate.
func slotCRC(b []byte) uint32 {
	crc := ^uint32(0)
	for _, v := range b {
		crc = crcTable[byte(crc)^v] ^ (crc >> 8)
	}
	return ^crc
}

// Kind identifies a pipeline milestone.
type Kind uint64

const (
	// KindBoot marks a mount (Create or Recover); a is the start
	// transaction ID, b the mode. Forensics analyzes only stamps after
	// the last boot — earlier epochs may reuse transaction IDs that were
	// discarded by recovery.
	KindBoot Kind = iota + 1
	// Kinds 2-6 are retired, not renumbered: rings written before the
	// retirement still hold them and must keep decoding. 2-4 (group-seal,
	// fence-begin, persist-fence; a/b were the group's MinTid/MaxTid)
	// restated what the fenced log record carries; 5 (durable advance, a
	// the frontier) restated the log scan's frontier, and 6 (log recycle,
	// a/b/c the log index, next sequence and reproduced watermark) the
	// ReproTid each log's metadata persists.
	_
	_
	_
	_
	_
	// KindStall marks a watchdog stall episode; a encodes the stage
	// (1 persist, 2 reproduce), b/c the durable/reproduced frontiers.
	KindStall
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindBoot:
		return "boot"
	case 2, 3, 4, 5, 6:
		return fmt.Sprintf("retired-%d", uint64(k))
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("kind-%d", uint64(k))
}

// Record is one decoded flight-recorder stamp.
type Record struct {
	Seq  uint64
	Kind Kind
	At   int64 // Unix nanoseconds
	A    uint64
	B    uint64
	C    uint64
}

// Size returns the device bytes a ring with the given slot count
// occupies.
func Size(entries uint64) uint64 { return HeaderBytes + entries*SlotBytes }

// Recorder appends milestone records to the ring. Stamp may be called
// from any pipeline goroutine; a single mutex serializes slot claims
// (milestones are per-mount or per-stall events, so the lock is never
// contended).
type Recorder struct {
	dev     *pmem.Device
	base    uint64 // first slot address
	entries uint64

	mu      sync.Mutex
	seq     uint64 // next sequence to claim (1-based)
	flushed uint64 // first sequence not yet written back
}

// Format initializes the ring header at off with the given slot count
// and persists it. The slots are left as-is: a fresh device reads as
// zero (empty), and reformatting over old stamps is prevented by the
// sequence numbers restarting — callers create rings only on fresh
// pools.
func Format(dev *pmem.Device, off, entries uint64) {
	if entries == 0 {
		panic("blackbox: zero-entry ring")
	}
	var b [HeaderBytes]byte
	binary.LittleEndian.PutUint64(b[0:], ringMagic)
	binary.LittleEndian.PutUint64(b[8:], entries)
	crc := crc32.Checksum(b[:16], crcTable)
	binary.LittleEndian.PutUint64(b[16:], uint64(crc))
	dev.Store(off, b[:])
	dev.Persist(off, HeaderBytes)
}

// readRingHeader validates the header at off and returns the slot count.
func readRingHeader(dev *pmem.Device, off uint64) (uint64, error) {
	var b [HeaderBytes]byte
	dev.Load(off, b[:])
	if binary.LittleEndian.Uint64(b[0:]) != ringMagic {
		return 0, fmt.Errorf("blackbox: bad ring magic at %#x", off)
	}
	if uint64(crc32.Checksum(b[:16], crcTable)) != binary.LittleEndian.Uint64(b[16:]) {
		return 0, fmt.Errorf("blackbox: corrupt ring header at %#x", off)
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

// Open mounts the ring at off for recording, resuming the sequence after
// the highest surviving stamp so reboots never reuse a sequence number.
func Open(dev *pmem.Device, off uint64) (*Recorder, error) {
	entries, err := readRingHeader(dev, off)
	if err != nil {
		return nil, err
	}
	r := &Recorder{dev: dev, base: off + HeaderBytes, entries: entries}
	recs, _, err := Decode(dev, off)
	if err != nil {
		return nil, err
	}
	r.seq = 1
	if n := len(recs); n > 0 {
		r.seq = recs[n-1].Seq + 1
	}
	r.flushed = r.seq
	return r, nil
}

// Entries returns the ring's slot count.
func (r *Recorder) Entries() uint64 { return r.entries }

func (r *Recorder) slotAddr(seq uint64) uint64 {
	return r.base + (seq%r.entries)*SlotBytes
}

// Stamp appends one milestone record. The store is volatile until a
// later Sync; a crash before then loses the stamp, exactly as it loses
// any other unflushed line. Allocation-free.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (r *Recorder) Stamp(kind Kind, a, b, c uint64) {
	at := time.Now().UnixNano()
	r.mu.Lock()
	var buf [SlotBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], r.seq)
	binary.LittleEndian.PutUint64(buf[8:], uint64(kind))
	binary.LittleEndian.PutUint64(buf[16:], uint64(at))
	binary.LittleEndian.PutUint64(buf[24:], a)
	binary.LittleEndian.PutUint64(buf[32:], b)
	binary.LittleEndian.PutUint64(buf[40:], c)
	binary.LittleEndian.PutUint64(buf[56:], uint64(slotCRC(buf[:56])))
	r.dev.Store(r.slotAddr(r.seq), buf[:])
	r.seq++
	r.mu.Unlock()
}

// Sync writes the pending stamps back and fences them, so they are on
// stable media before the caller proceeds. Allocation-free.
//
//dudelint:fencebudget 1
//dudelint:noalloc
func (r *Recorder) Sync() {
	r.mu.Lock()
	lo, hi := r.flushed, r.seq
	var bytes uint64
	if hi-lo >= r.entries {
		// The recorder lapped itself since the last Sync; every slot is
		// pending.
		bytes = r.dev.FlushRange(r.base, r.entries*SlotBytes)
	} else {
		for s := lo; s < hi; s++ {
			bytes += r.dev.FlushRange(r.slotAddr(s), SlotBytes)
		}
	}
	r.flushed = hi
	r.mu.Unlock()
	r.dev.Fence(bytes)
}

// Decode reads every surviving record from the ring at off — typically
// from a crash image — returning them in sequence order plus the count
// of torn slots (written but failing their CRC: a stamp that was in the
// cache, or mid-overwrite, when power failed).
func Decode(dev *pmem.Device, off uint64) ([]Record, int, error) {
	entries, err := readRingHeader(dev, off)
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	torn := 0
	buf := make([]byte, SlotBytes)
	for i := uint64(0); i < entries; i++ {
		dev.Load(off+HeaderBytes+i*SlotBytes, buf)
		seq := binary.LittleEndian.Uint64(buf[0:])
		kind := binary.LittleEndian.Uint64(buf[8:])
		if seq == 0 && kind == 0 {
			continue // never written
		}
		want := binary.LittleEndian.Uint64(buf[56:])
		if uint64(crc32.Checksum(buf[:56], crcTable)) != want {
			torn++
			continue
		}
		recs = append(recs, Record{
			Seq:  seq,
			Kind: Kind(kind),
			At:   int64(binary.LittleEndian.Uint64(buf[16:])),
			A:    binary.LittleEndian.Uint64(buf[24:]),
			B:    binary.LittleEndian.Uint64(buf[32:]),
			C:    binary.LittleEndian.Uint64(buf[40:]),
		})
	}
	sortRecords(recs)
	return recs, torn, nil
}

// sortRecords orders by sequence (insertion sort: the ring reads out
// nearly sorted — at most one rotation point).
func sortRecords(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j-1].Seq > recs[j].Seq; j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
}
