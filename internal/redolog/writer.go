package redolog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"dudetm/internal/lz4"
	"dudetm/internal/park"
	"dudetm/internal/pmem"
)

// Persistent log record layout (little-endian). Every record starts on
// a 64-byte line of the log buffer, so its write-back is exactly
// ⌈(headerSize+payloadLen)/64⌉ lines and never re-flushes a line the
// previous record already wrote back:
//
//	[ 0] payloadLen u32   (payload bytes stored after the header)
//	[ 4] rawLen     u32   (run-encoded payload bytes; != payloadLen
//	                       iff the payload is lz4-compressed)
//	[ 8] seq        u64   (per-log record sequence number, never reused)
//	[16] minTid     u64
//	[24] maxTid     u32   (its low 32 bits: a group spans fewer than
//	                       2^32 tids, so minTid fixes the rest)
//	[28] crc        u32   (CRC-32C of [0,28) + payload)
//
// The padding up to the next line is never stored. A record that does
// not fit before the end of the buffer continues at its start: the
// header never straddles (the buffer is whole lines), the payload may.
//
// A record is written, flushed, and fenced as one persist barrier — the
// single persist ordering per transaction/group that redo logging needs.
// On recovery a record is valid iff its checksum matches and its sequence
// number is the expected successor, which makes torn tails and stale
// recycled records detectable without a second "commit" fence.
const (
	headerSize = 32

	// MaxEntryBytes is the most one entry adds to a run-encoded
	// payload: a lone write's header word and value word.
	MaxEntryBytes = 16

	// minLogSize and maxLogSize bound a log region: one 4 KiB page at
	// least, and no more than the 32-bit length fields can describe.
	minLogSize = 4096
	maxLogSize = 1 << 32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Group is a unit of persistence: the combined writes of one or more
// consecutive transactions, replayed atomically.
type Group struct {
	Seq     uint64
	MinTid  uint64
	MaxTid  uint64
	Entries []Entry
	// EndPos is the writer position just past this group's record; the
	// reproducer passes it to Recycle once the group has been replayed.
	EndPos uint64
}

// CheckRegion reports whether dev[base:base+size) can hold a log: base
// and size whole 64-byte lines, size within [4 KiB, 4 GiB].
func CheckRegion(base, size uint64) error {
	if base%pmem.LineSize != 0 || size%pmem.LineSize != 0 {
		return fmt.Errorf("redolog: log region at %#x of %d bytes is not line-aligned (base and size must be multiples of %d)", base, size, pmem.LineSize)
	}
	if size < minLogSize || size > maxLogSize {
		return fmt.Errorf("redolog: log size %d outside [%d, %d]", size, minLogSize, uint64(maxLogSize))
	}
	return nil
}

// maxPayload is the largest payload, raw or compressed, a record may
// carry in a log of size bytes: the record then fills the whole buffer.
func maxPayload(size uint64) uint64 { return size - headerSize }

// MaxGroupEntries is the record limit in entries: the most entries a
// group may hold and still fit one record of a log of size bytes
// whatever their addresses, at the run encoding's worst case of 16
// bytes per entry (compression only ever shrinks a record). Run refuses
// a transaction past it and the Persist coordinator seals a group
// before it would cross it.
func MaxGroupEntries(size uint64) int { return int(maxPayload(size) / MaxEntryBytes) }

// lineUp rounds n up to whole lines: the log space a record of n bytes
// occupies.
func lineUp(n uint64) uint64 { return (n + pmem.LineSize - 1) &^ (pmem.LineSize - 1) }

// Writer appends groups to a circular persistent log buffer on a
// simulated NVM device.
type Writer struct {
	dev  *pmem.Device
	meta uint64 // metadata block address (MetaSize bytes)
	base uint64
	size uint64

	tail uint64        // next write position (monotonic, line-aligned)
	seq  uint64        // next record sequence number
	head park.Frontier // oldest live byte (monotonic), advanced by Recycle

	halted atomic.Bool // set by Halt

	compress bool
	rec      []byte // the record being appended: header, then payload
	comp     []byte

	bytesAppended atomic.Uint64 // record bytes written (header + payload, after combine/compress)
}

// MetaSize is the size of a log's metadata block:
// [headPos][headSeq][reproTid][crc] little-endian. reproTid is the global
// Reproduce watermark at the time of the recycle — the anchor recovery
// starts its dense, ID-ordered replay from.
const MetaSize = 32

// NewWriter initializes a fresh, empty log over dev[base:base+size) with
// its metadata block at meta, refusing a region CheckRegion refuses. The
// metadata is persisted before returning.
func NewWriter(dev *pmem.Device, meta, base, size uint64, compress bool) (*Writer, error) {
	if err := CheckRegion(base, size); err != nil {
		return nil, err
	}
	w := &Writer{dev: dev, meta: meta, base: base, size: size, seq: 1, compress: compress}
	w.persistMeta(0, 1, 0)
	return w, nil
}

// resumeWriter reconstructs a writer after recovery: the log restarts
// empty at position pos with the next sequence number seq (sequence
// numbers are never reused, so stale pre-crash records can never be
// mistaken for live ones).
func resumeWriter(dev *pmem.Device, meta, base, size uint64, compress bool, pos, seq, reproTid uint64) *Writer {
	w := &Writer{dev: dev, meta: meta, base: base, size: size, seq: seq, compress: compress, tail: pos}
	w.head.Store(pos)
	w.persistMeta(pos, seq, reproTid)
	return w
}

func (w *Writer) persistMeta(headPos, headSeq, reproTid uint64) {
	var b [MetaSize]byte
	binary.LittleEndian.PutUint64(b[0:], headPos)
	binary.LittleEndian.PutUint64(b[8:], headSeq)
	binary.LittleEndian.PutUint64(b[16:], reproTid)
	crc := crc32.Checksum(b[:24], crcTable)
	binary.LittleEndian.PutUint64(b[24:], uint64(crc))
	w.dev.Store(w.meta, b[:])
	w.dev.Persist(w.meta, MetaSize)
}

// BytesAppended returns the total record bytes appended so far — header
// plus payload, the NVM log traffic after combination and compression,
// not counting the padding to the next line. Safe to read concurrently
// with AppendGroup.
func (w *Writer) BytesAppended() uint64 { return w.bytesAppended.Load() }

// Tail returns the current write position (monotonic bytes).
func (w *Writer) Tail() uint64 { return w.tail }

// encodeRecord appends the record of g, with sequence number seq, to
// dst: the header, then the run-encoded payload, lz4-compressed when
// compress is set and that shrinks it (comp is the compression scratch).
// It returns the record and the scratch, or ok false — nothing appended —
// when the raw payload exceeds limit.
func encodeRecord(dst, comp []byte, g *Group, seq uint64, compress bool, limit uint64) (rec, comp2 []byte, ok bool) {
	off := len(dst)
	rec = AppendEntries(append(dst, make([]byte, headerSize)...), g.Entries)
	raw := uint64(len(rec) - off - headerSize)
	if raw > limit {
		return dst, comp, false
	}
	if compress && raw > 64 {
		comp = lz4.Compress(comp[:0], rec[off+headerSize:])
		if len(comp) < int(raw) {
			rec = append(rec[:off+headerSize], comp...)
		}
	}
	h, payload := rec[off:off+headerSize], rec[off+headerSize:]
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], uint32(raw))
	binary.LittleEndian.PutUint64(h[8:], seq)
	binary.LittleEndian.PutUint64(h[16:], g.MinTid)
	binary.LittleEndian.PutUint32(h[24:], uint32(g.MaxTid))
	crc := crc32.Update(crc32.Checksum(h[:28], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(h[28:], crc)
	return rec, comp, true
}

// AppendGroup serializes, optionally compresses, and persists a group
// with a single fence. It sets g.Seq and g.EndPos, blocks until the
// buffer has space (i.e., until Recycle catches up), and returns the
// log space the record took, in bytes (whole lines). Once the writer is
// halted, even while it waits for space, it returns 0 and writes
// nothing. A group of more than MaxGroupEntries entries may not fit a
// record; one that does not, or that spans 2^32 tids, panics.
//
//dudelint:fencebudget 1
func (w *Writer) AppendGroup(g *Group) uint64 {
	if w.halted.Load() {
		return 0
	}
	if g.MaxTid-g.MinTid >= 1<<32 {
		panic(fmt.Sprintf("redolog: group tids [%d,%d] span 2^32 or more", g.MinTid, g.MaxTid))
	}
	var ok bool
	w.rec, w.comp, ok = encodeRecord(w.rec[:0], w.comp, g, w.seq, w.compress, maxPayload(w.size))
	if !ok {
		panic(fmt.Sprintf("redolog: group of %d entries exceeds the record limit of a %d-byte log", len(g.Entries), w.size))
	}
	n := uint64(len(w.rec))
	span := lineUp(n)
	if !w.waitSpace(span) {
		return 0
	}

	// A record past the end of the buffer continues at its start; both
	// pieces start on a line, so the write-back is span/64 lines.
	batch := w.dev.NewBatch()
	off := w.tail % w.size
	first := min(n, w.size-off)
	w.dev.Store(w.base+off, w.rec[:first])
	batch.Flush(w.base+off, first)
	if first < n {
		w.dev.Store(w.base, w.rec[first:])
		batch.Flush(w.base, n-first)
	}
	batch.Fence()

	g.Seq = w.seq
	w.seq++
	w.tail += span
	g.EndPos = w.tail
	w.bytesAppended.Add(n)
	return span
}

// waitSpace blocks until n bytes are free past tail; it reports false
// if the writer is halted first.
func (w *Writer) waitSpace(n uint64) bool {
	return w.tail+n-w.head.Load() <= w.size || w.head.Wait(w.tail+n-w.size, &w.halted)
}

// Halt makes every later AppendGroup, and one waiting for log space,
// return without writing: power failed before the append. Crash calls
// it, since Reproduce stops recycling.
func (w *Writer) Halt() {
	w.halted.Store(true)
	w.head.Wake()
}

// Waiting reports whether an AppendGroup is parked waiting for log space.
func (w *Writer) Waiting() bool { return w.head.Parked() > 0 }

// Recycle frees the log up to pos (a Group.EndPos) whose records have all
// been replayed to persistent data, and persists the new head so recovery
// skips them. seq is the sequence number of the first live record.
//
// The persist ordering here is the only one Reproduce needs: the head may
// only advance after the replayed data updates are themselves persistent
// (§3.4) — the caller fences data writes before calling Recycle.
// reproTid is the global Reproduce watermark being persisted alongside.
//
//dudelint:fencebudget 1
func (w *Writer) Recycle(pos, seq, reproTid uint64) {
	w.persistMeta(pos, seq, reproTid)
	w.head.Store(pos)
}
