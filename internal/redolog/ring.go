package redolog

import (
	"sync/atomic"

	"dudetm/internal/park"
)

// Ring is the fixed-length circular volatile redo-log buffer of one
// Perform thread (§3.2): a single producer (the transaction thread)
// appends entries and transaction-end marks; a single consumer (the
// Persist merger) reads complete transactions.
//
// When the ring is full the producer blocks until the consumer frees
// space — the back-pressure the paper describes ("if the buffer is full,
// the Perform thread will be blocked"). The DudeTM-Inf configuration
// simply uses a ring large enough never to fill during a run.
type Ring struct {
	buf  []Entry
	mask uint64

	head park.Frontier // consumer position (monotonic)

	// Producer-private state.
	tail    uint64
	txStart uint64

	// txIndex is a parallel SPSC queue of (tid, endPos) pairs published
	// at each end mark, letting the consumer peek the next transaction's
	// ID in O(1) instead of scanning for the mark.
	txIndex []txRef
	txHead  atomic.Uint64
	txTail  atomic.Uint64
	_pad    [4]uint64
}

type txRef struct {
	tid    uint64
	endPos uint64 // ring position just past the end mark
}

// NewRing creates a ring with the given entry capacity (rounded up to a
// power of two; the paper's default is one million entries per thread).
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	c := uint64(1)
	for c < uint64(capacity) {
		c <<= 1
	}
	return &Ring{
		buf:     make([]Entry, c),
		mask:    c - 1,
		txIndex: make([]txRef, c),
	}
}

// Cap returns the entry capacity of the ring.
func (r *Ring) Cap() int { return len(r.buf) }

// Len returns the number of occupied entry slots (including unpublished
// ones); approximate under concurrency.
func (r *Ring) Len() int { return int(r.tail - r.head.Load()) }

// waitSpace blocks until the consumer frees a slot. Nothing stops the
// wait: Close and Crash require every Run to have returned.
func (r *Ring) waitSpace() {
	if n := uint64(len(r.buf)); r.tail-r.head.Load() >= n {
		r.head.Wait(r.tail-n+1, nil)
	}
}

// Append records a transactional write (dtmWrite). Producer only; blocks
// while the ring is full.
func (r *Ring) Append(addr, val uint64) {
	r.waitSpace()
	r.buf[r.tail&r.mask] = Entry{Addr: addr, Val: val}
	r.tail++
}

// AppendTxEnd appends the end mark of a committed transaction (dtmEnd)
// and publishes the transaction to the consumer. Producer only.
func (r *Ring) AppendTxEnd(tid uint64) {
	r.waitSpace()
	r.buf[r.tail&r.mask] = Entry{Addr: txEndAddr, Val: tid}
	r.tail++
	// The index store below is the publish point: the consumer acquires
	// txTail before touching buf, ordering these plain writes.
	t := r.txTail.Load()
	r.txIndex[t&r.mask] = txRef{tid: tid, endPos: r.tail}
	r.txTail.Store(t + 1)
	r.txStart = r.tail
}

// PopToLastTx discards the entries of the in-flight transaction
// (dtmAbort / a conflict retry). Producer only.
func (r *Ring) PopToLastTx() {
	r.tail = r.txStart
}

// PeekTid returns the commit ID of the next complete transaction without
// consuming it. Consumer only.
func (r *Ring) PeekTid() (uint64, bool) {
	h := r.txHead.Load()
	if h == r.txTail.Load() {
		return 0, false
	}
	return r.txIndex[h&r.mask].tid, true
}

// NextTx returns the entries of the next complete transaction in place,
// as two slices of the ring (b is non-empty only when the transaction
// wraps past the ring's end), and its commit ID. The slots stay owned by
// the consumer until Release, so the caller reads them without a copy.
// It must only be called after PeekTid reported a transaction. Consumer
// only.
func (r *Ring) NextTx() (a, b []Entry, tid uint64) {
	h := r.txHead.Load()
	if h == r.txTail.Load() {
		panic("redolog: NextTx without a pending transaction")
	}
	ref := r.txIndex[h&r.mask]
	head := r.head.Load()
	start, n := head&r.mask, ref.endPos-1-head // n entries, end mark excluded
	if end := start + n; end <= uint64(len(r.buf)) {
		return r.buf[start:end], nil, ref.tid
	}
	return r.buf[start:], r.buf[:start+n-uint64(len(r.buf))], ref.tid
}

// Release frees the slots of the transaction NextTx returned (its end
// mark included) to the producer. The slices NextTx returned are invalid
// afterwards. Consumer only.
func (r *Ring) Release() {
	h := r.txHead.Load()
	r.head.Store(r.txIndex[h&r.mask].endPos)
	r.txHead.Store(h + 1)
}
