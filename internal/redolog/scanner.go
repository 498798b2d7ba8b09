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
// the durable prefix.
func Scan(dev *pmem.Device, meta, base, size uint64) (ScanResult, error) {
	var mb [MetaSize]byte
	dev.Load(meta, mb[:])
	headPos := binary.LittleEndian.Uint64(mb[0:])
	headSeq := binary.LittleEndian.Uint64(mb[8:])
	reproTid := binary.LittleEndian.Uint64(mb[16:])
	crc := binary.LittleEndian.Uint64(mb[24:])
	if uint64(crc32.Checksum(mb[:24], crcTable)) != crc {
		return ScanResult{}, fmt.Errorf("redolog: corrupt log metadata at %#x", meta)
	}

	res := ScanResult{NextPos: headPos, NextSeq: headSeq, ReproTid: reproTid}
	pos, seq := headPos, headSeq
	hdr := make([]byte, headerSize)
	var minTid, maxTid uint64 // of the record the walk is on
	// The log holds at most size bytes of live records; bound the walk.
	for scanned := uint64(0); scanned < size; {
		idx := pos % size
		if size-idx < 8 {
			break // cannot even hold a wrap marker; malformed
		}
		first := dev.Load8(base + idx)
		if first == wrapMarker {
			skip := size - idx
			pos += skip
			scanned += skip
			continue
		}
		if size-idx < headerSize {
			break
		}
		dev.Load(base+idx, hdr)
		payloadLen := binary.LittleEndian.Uint64(hdr[0:])
		uncomp := binary.LittleEndian.Uint64(hdr[8:])
		recSeq := binary.LittleEndian.Uint64(hdr[16:])
		minTid = binary.LittleEndian.Uint64(hdr[24:])
		maxTid = binary.LittleEndian.Uint64(hdr[32:])
		flags := binary.LittleEndian.Uint64(hdr[40:])
		wantCRC := binary.LittleEndian.Uint64(hdr[48:])

		// Bound fields before arithmetic: a torn header can hold garbage.
		if payloadLen >= size || uncomp > size<<8 || uncomp%8 != 0 {
			res.Torn = recSeq == seq
			break
		}
		padded := (payloadLen + 7) &^ 7
		if recSeq != seq {
			break // stale record: clean end of the durable prefix
		}
		if headerSize+padded > size-idx {
			res.Torn = true
			break
		}
		payload := make([]byte, payloadLen)
		dev.Load(base+idx+headerSize, payload)
		crc := crc32.Checksum(hdr[:48], crcTable)
		crc = crc32.Update(crc, crcTable, payload)
		if uint64(crc) != wantCRC {
			res.Torn = true
			break
		}
		body := payload
		if flags&flagCompressed != 0 {
			dec, err := lz4.Decompress(body, int(uncomp))
			if err != nil {
				res.Torn = true
				break
			}
			body = dec
		} else if uncomp != payloadLen {
			res.Torn = true
			break
		}
		entries, ok := DecodeEntries(body)
		if !ok {
			res.Torn = true
			break
		}
		recSize := headerSize + padded
		res.Groups = append(res.Groups, Group{
			Seq:     recSeq,
			MinTid:  minTid,
			MaxTid:  maxTid,
			Entries: entries,
			EndPos:  pos + recSize,
		})
		pos += recSize
		scanned += recSize
		seq++
	}
	if res.Torn {
		// The walk stopped on the torn record, so minTid/maxTid are its
		// header's. A log's records ascend, so a genuine claim starts
		// above the previous live group (or the log's persisted reproduce
		// watermark) and spans at most a group.
		prev := reproTid
		if n := len(res.Groups); n > 0 {
			prev = res.Groups[n-1].MaxTid
		}
		if minTid > prev && minTid <= maxTid && maxTid-minTid < maxTornSpan {
			res.TornMinTid, res.TornMaxTid = minTid, maxTid
		}
	}
	res.NextPos = pos
	res.NextSeq = seq
	return res, nil
}

// Resume creates a writer that continues an existing log after Scan: the
// log restarts empty at res.NextPos with sequence res.NextSeq, so stale
// pre-crash records can never be confused with new ones.
// reproTid is the post-recovery global watermark to persist.
func Resume(dev *pmem.Device, meta, base, size uint64, compress bool, res ScanResult, reproTid uint64) *Writer {
	return resumeWriter(dev, meta, base, size, compress, res.NextPos, res.NextSeq, reproTid)
}
