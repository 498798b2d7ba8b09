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

// Persistent log record layout (all fields little-endian uint64):
//
//	[ 0] payloadLen          (exact payload bytes; storage is 8-aligned)
//	[ 8] uncompressedLen     (== payloadLen when not compressed)
//	[16] seq                 (per-log record sequence number, never reused)
//	[24] minTid
//	[32] maxTid
//	[40] flags               (flagCompressed)
//	[48] crc                 (CRC-32C of header fields [0,48) + payload)
//
// A record is written, flushed, and fenced as one persist barrier — the
// single persist ordering per transaction/group that redo logging needs.
// On recovery a record is valid iff its checksum matches and its sequence
// number is the expected successor, which makes torn tails and stale
// recycled records detectable without a second "commit" fence.
const (
	headerSize = 56

	flagCompressed = 1 << 0

	// wrapMarker in the first word of a record slot means "the log
	// wraps: continue at the start of the buffer".
	wrapMarker = ^uint64(0)
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

// Writer appends groups to a circular persistent log buffer on a
// simulated NVM device.
type Writer struct {
	dev  *pmem.Device
	meta uint64 // metadata block address (MetaSize bytes)
	base uint64
	size uint64

	tail uint64        // next write position (monotonic)
	seq  uint64        // next record sequence number
	head park.Frontier // oldest live byte (monotonic), advanced by Recycle

	halted atomic.Bool // set by Halt

	compress bool
	scratch  []byte
	comp     []byte

	bytesAppended atomic.Uint64 // serialized record bytes written (after combine/compress)
}

// MetaSize is the size of a log's metadata block:
// [headPos][headSeq][reproTid][crc] little-endian. reproTid is the global
// Reproduce watermark at the time of the recycle — the anchor recovery
// starts its dense, ID-ordered replay from.
const MetaSize = 32

// NewWriter initializes a fresh, empty log over dev[base:base+size) with
// its metadata block at meta. size must be a multiple of 8 and large
// enough for any record. The metadata is persisted before returning.
func NewWriter(dev *pmem.Device, meta, base, size uint64, compress bool) *Writer {
	if size%8 != 0 || size < 4096 {
		panic("redolog: log size must be a multiple of 8 and at least 4096")
	}
	w := &Writer{dev: dev, meta: meta, base: base, size: size, seq: 1, compress: compress}
	w.persistMeta(0, 1, 0)
	return w
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

// BytesAppended returns the total serialized bytes appended so far — the
// NVM log traffic after combination and compression. Safe to read
// concurrently with AppendGroup.
func (w *Writer) BytesAppended() uint64 { return w.bytesAppended.Load() }

// Tail returns the current write position (monotonic bytes).
func (w *Writer) Tail() uint64 { return w.tail }

// AppendGroup serializes, optionally compresses, and persists a group
// with a single fence. It sets g.Seq and g.EndPos, blocks until the
// buffer has space (i.e., until Recycle catches up), and returns the
// serialized record size in bytes. Once the writer is halted, even
// while it waits for space, it returns 0 and writes nothing.
//
//dudelint:fencebudget 1
func (w *Writer) AppendGroup(g *Group) uint64 {
	if w.halted.Load() {
		return 0
	}
	w.scratch = AppendEntries(w.scratch[:0], g.Entries)
	payload := w.scratch
	uncomp := uint64(len(payload))
	var flags uint64
	if w.compress && len(payload) > 64 {
		w.comp = lz4.Compress(w.comp[:0], payload)
		if len(w.comp) < len(payload) {
			payload = w.comp
			flags |= flagCompressed
		}
	}
	payloadLen := uint64(len(payload))
	recSize := headerSize + (payloadLen+7)&^7
	if recSize+8 > w.size {
		panic(fmt.Sprintf("redolog: record of %d bytes exceeds log size %d", recSize, w.size))
	}

	// If the record would cross the end of the buffer, emit a wrap
	// marker and continue at the start. The marker's slack and the
	// record wait for space together, so a halted wait leaves no marker.
	rem := w.size - w.tail%w.size
	if rem >= recSize {
		rem = 0
	}
	if !w.waitSpace(rem + recSize) {
		return 0
	}
	batch := w.dev.NewBatch()
	if rem > 0 {
		markerAddr := w.base + w.tail%w.size
		w.dev.Store8(markerAddr, wrapMarker)
		batch.Flush(markerAddr, 8)
		w.tail += rem
	}

	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], payloadLen)
	binary.LittleEndian.PutUint64(hdr[8:], uncomp)
	binary.LittleEndian.PutUint64(hdr[16:], w.seq)
	binary.LittleEndian.PutUint64(hdr[24:], g.MinTid)
	binary.LittleEndian.PutUint64(hdr[32:], g.MaxTid)
	binary.LittleEndian.PutUint64(hdr[40:], flags)
	crc := crc32.Checksum(hdr[:48], crcTable)
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(crc))

	addr := w.base + w.tail%w.size
	w.dev.Store(addr, hdr[:])
	if len(payload) > 0 {
		w.dev.Store(addr+headerSize, payload)
	}
	batch.Flush(addr, recSize)
	batch.Fence()

	g.Seq = w.seq
	w.seq++
	w.tail += recSize
	g.EndPos = w.tail
	w.bytesAppended.Add(recSize)
	return recSize
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
