package redolog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dudetm/internal/lz4"
	"dudetm/internal/pmem"
)

// ScanResult is the outcome of scanning one persistent log after a crash.
type ScanResult struct {
	// Groups are the valid, complete groups in append order. Incomplete
	// or torn trailing records are dropped (their transactions were
	// never acknowledged as durable).
	Groups []Group
	// NextPos and NextSeq are where a resumed writer continues.
	NextPos uint64
	NextSeq uint64
	// ReproTid is the global Reproduce watermark persisted at this
	// log's last recycle; recovery anchors its replay at the maximum
	// across all logs.
	ReproTid uint64
	// Torn reports that the scan stopped at a half-written record — one
	// carrying the expected sequence number but failing validation — the
	// signature of a crash mid-append rather than a clean log end
	// (sequence numbers start at 1, so zeroed never-written space can
	// never match the expected sequence).
	Torn bool
	// TornMinTid and TornMaxTid are the tid range the torn record's
	// header claims — the group whose append the crash interrupted — or
	// zero when Torn is false or those header words did not reach media
	// (what sits under them is then zeroes or a stale lap's bytes, which
	// the sanity check in Scan refuses short of a coincidence). Evidence
	// for forensics only: the range was never durable, so recovery
	// ignores it.
	TornMinTid, TornMaxTid uint64
}

// maxTornSpan bounds the transactions a torn record may claim; no
// coordinator seals groups anywhere near this large.
const maxTornSpan = 1 << 12

// Scan reads the persistent log at dev[base:base+size) with metadata at
// meta, returning every valid group that has not been recycled. It stops
// at the first record that is torn (bad checksum), stale (wrong sequence
// number), or malformed — everything after that point was not part of
// the durable prefix. It refuses a region CheckRegion refuses and
// metadata that fails its checksum or puts the head off a line.
func Scan(dev *pmem.Device, meta, base, size uint64) (ScanResult, error) {
	if err := CheckRegion(base, size); err != nil {
		return ScanResult{}, err
	}
	var mb [MetaSize]byte
	dev.Load(meta, mb[:])
	headPos := binary.LittleEndian.Uint64(mb[0:])
	headSeq := binary.LittleEndian.Uint64(mb[8:])
	reproTid := binary.LittleEndian.Uint64(mb[16:])
	crc := binary.LittleEndian.Uint64(mb[24:])
	if uint64(crc32.Checksum(mb[:24], crcTable)) != crc || headPos%pmem.LineSize != 0 {
		return ScanResult{}, fmt.Errorf("redolog: corrupt log metadata at %#x", meta)
	}

	res := ScanResult{NextPos: headPos, NextSeq: headSeq, ReproTid: reproTid}
	pos, seq := headPos, headSeq
	var hdr [headerSize]byte
	var minTid, span uint64 // of the record the walk is on
	// The log holds at most size bytes of live records; bound the walk.
	for scanned := uint64(0); scanned < size; {
		idx := pos % size // line-aligned: the header never straddles the end
		dev.Load(base+idx, hdr[:])
		payloadLen := uint64(binary.LittleEndian.Uint32(hdr[0:]))
		rawLen := uint64(binary.LittleEndian.Uint32(hdr[4:]))
		recSeq := binary.LittleEndian.Uint64(hdr[8:])
		minTid = binary.LittleEndian.Uint64(hdr[16:])
		span = uint64(binary.LittleEndian.Uint32(hdr[24:]) - uint32(minTid))
		wantCRC := binary.LittleEndian.Uint32(hdr[28:])
		if recSeq != seq {
			break // stale record or never-written space: clean end of the durable prefix
		}
		// From here on the record claims to be the next one, so any
		// failure is a torn append. Bound the lengths before reading:
		// a torn header can hold garbage.
		n := headerSize + payloadLen
		if n > size-scanned || rawLen > maxPayload(size) || rawLen < payloadLen || rawLen%8 != 0 {
			res.Torn = true
			break
		}
		// Records are disjoint, so the walk's payloads together take at
		// most size bytes, whatever their headers claim.
		payload := make([]byte, payloadLen)
		loadWrapped(dev, base, size, idx+headerSize, payload)
		crc := crc32.Update(crc32.Checksum(hdr[:28], crcTable), crcTable, payload)
		if crc != wantCRC {
			res.Torn = true
			break
		}
		body := payload
		if rawLen != payloadLen {
			dec, err := lz4.Decompress(body, int(rawLen))
			if err != nil {
				res.Torn = true
				break
			}
			body = dec
		}
		entries, ok := DecodeEntries(body)
		if !ok {
			res.Torn = true
			break
		}
		pos += lineUp(n)
		scanned += lineUp(n)
		res.Groups = append(res.Groups, Group{
			Seq:     recSeq,
			MinTid:  minTid,
			MaxTid:  minTid + span,
			Entries: entries,
			EndPos:  pos,
		})
		seq++
	}
	if res.Torn {
		// The walk stopped on the torn record, so minTid and span are
		// its header's. A log's records ascend, so a genuine claim starts
		// above the previous live group (or the log's persisted reproduce
		// watermark) and spans at most a group. A tid word that a stale
		// lap left or that was never written pairs with a genuine one
		// into a span far past that (minTid's low word is above any older
		// maxTid's, and never-written space reads zero).
		prev := reproTid
		if n := len(res.Groups); n > 0 {
			prev = res.Groups[n-1].MaxTid
		}
		if minTid > prev && span < maxTornSpan {
			res.TornMinTid, res.TornMaxTid = minTid, minTid+span
		}
	}
	res.NextPos = pos
	res.NextSeq = seq
	return res, nil
}

// loadWrapped fills b from the log buffer dev[base:base+size) starting
// at offset idx, continuing at the buffer's start past its end.
func loadWrapped(dev *pmem.Device, base, size, idx uint64, b []byte) {
	first := min(uint64(len(b)), size-idx)
	dev.Load(base+idx, b[:first])
	dev.Load(base, b[first:])
}

// Resume creates a writer that continues an existing log after Scan: the
// log restarts empty at res.NextPos with sequence res.NextSeq, so stale
// pre-crash records can never be confused with new ones.
// reproTid is the post-recovery global watermark to persist.
func Resume(dev *pmem.Device, meta, base, size uint64, compress bool, res ScanResult, reproTid uint64) *Writer {
	return resumeWriter(dev, meta, base, size, compress, res.NextPos, res.NextSeq, reproTid)
}
