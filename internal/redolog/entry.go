// Package redolog implements DudeTM's redo logs: the per-thread volatile
// rings filled by the Perform step, the cross-transaction write
// combination applied by the Persist step, and the persistent log region
// those groups are flushed to (with the recovery scanner that reads them
// back after a crash).
//
// The volatile and persistent logs are the only channel between shadow
// memory and persistent memory — dirty shadow data is never written back
// directly (§3.1 of the paper).
package redolog

import (
	"encoding/binary"
	"slices"
)

// Entry is one redo-log record: a word write at a pool-logical address.
type Entry struct {
	Addr uint64
	Val  uint64
}

// txEndAddr marks a transaction-end entry inside a volatile ring; its Val
// is the commit transaction ID. Pool addresses are always far below it.
const txEndAddr = ^uint64(0)

// Serialized payload layout (the one layout shared by the persistent
// log, the replication wire and the scanner): entries are run-encoded.
// Every maximal stretch of entries whose addresses ascend by exactly one
// word becomes one run — a header word
//
//	addr | (n-1)<<48
//
// followed by the run's n value words — so a lone write costs 16 bytes
// and a run of n costs 8+8n instead of 16n. Pool addresses are 8-aligned
// and every run ends below 2^48, which leaves the header's top 16 bits
// for the length; a stretch longer than MaxRun words splits. Order is
// preserved exactly (runs are emitted in entry order, never sorted or
// merged), so decoding is the inverse of encoding on every slice the
// combiner can produce, duplicates and descending addresses included.
const (
	runAddrBits = 48
	runAddrMask = 1<<runAddrBits - 1
	// MaxRun is the longest run one header word can describe.
	MaxRun = 1 << (64 - runAddrBits)
)

// RunLen returns the length of the leading run of entries — the maximal
// prefix whose addresses ascend by exactly one word — capped at limit.
// It is 0 only for an empty slice (or limit < 1). The encoder, recovery
// and Reproduce all cut entry slices with it, so what is one run in the
// log is one run-store at replay.
//
//dudelint:noalloc
func RunLen(entries []Entry, limit int) int {
	if len(entries) < limit {
		limit = len(entries)
	}
	if limit < 1 {
		return 0
	}
	n := 1
	for n < limit && entries[n].Addr == entries[n-1].Addr+8 {
		n++
	}
	return n
}

// AppendEntries serializes entries onto dst in the run encoding. It
// panics on an address the format cannot carry (unaligned, or a run
// ending at or beyond 2^48) — no pool address is either.
func AppendEntries(dst []byte, entries []Entry) []byte {
	off := len(dst)
	// Worst case every entry is a lone run: header + value word each.
	dst = slices.Grow(dst, 16*len(entries))
	return dst[:off+encodeRuns(dst[off:off+16*len(entries)], entries)]
}

// encodeRuns writes the run encoding of entries into buf, which must
// hold the worst case, and returns the bytes used.
//
//dudelint:noalloc
func encodeRuns(buf []byte, entries []Entry) int {
	off := 0
	for len(entries) > 0 {
		n := RunLen(entries, MaxRun)
		addr := entries[0].Addr
		if addr&7 != 0 || addr >= 1<<runAddrBits || addr+8*uint64(n) >= 1<<runAddrBits {
			panic("redolog: entry address not encodable (unaligned or beyond 2^48)")
		}
		binary.LittleEndian.PutUint64(buf[off:], addr|uint64(n-1)<<runAddrBits)
		off += 8
		for _, e := range entries[:n] {
			binary.LittleEndian.PutUint64(buf[off:], e.Val)
			off += 8
		}
		entries = entries[n:]
	}
	return off
}

// DecodeEntries parses a payload produced by AppendEntries back into
// word-granular entries. It returns false — never panics, never
// allocates more than len(payload)/8 entries — when the payload is not
// whole words, a header's run overruns the payload, or a run's
// addresses are unaligned or reach 2^48.
func DecodeEntries(payload []byte) ([]Entry, bool) {
	if len(payload)%8 != 0 {
		return nil, false
	}
	// Each run spends one word on its header, so the payload's word
	// count bounds the entry count whatever the headers claim.
	entries := make([]Entry, 0, len(payload)/8)
	for len(payload) > 0 {
		hdr := binary.LittleEndian.Uint64(payload)
		addr, n := hdr&runAddrMask, hdr>>runAddrBits+1
		payload = payload[8:]
		if addr&7 != 0 || addr+8*n >= 1<<runAddrBits || n > uint64(len(payload)/8) {
			return nil, false
		}
		for i := uint64(0); i < n; i++ {
			entries = append(entries, Entry{Addr: addr + 8*i, Val: binary.LittleEndian.Uint64(payload[8*i:])})
		}
		payload = payload[8*n:]
	}
	return entries, true
}
