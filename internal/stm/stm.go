// Package stm provides the transactional-memory engines DudeTM runs its
// Perform step on.
//
// Engine is a from-scratch, word-based, time-based software TM in the
// TinySTM/LSA family: a global version clock, a hashed ownership-record
// (orec) table with versioned locks, each covering a stripe of four
// aligned words (TinySTM's default: 2^20 locks, LOCK_SHIFT_EXTRA 2, so
// a 128-byte record takes four locks, not sixteen), encounter-time
// locking, and write-through access with an undo list (the variant the
// paper picks for DudeTM because it permits in-place updates; the undo
// list is volatile, so rolling back costs no persist ordering).
//
// HTMEngine simulates Intel RTM: reads and writes are uninstrumented
// except for a single global sequence-lock check, conflicts abort the
// transaction wholesale, and after MaxRetries attempts a global-lock
// fallback runs the transaction exclusively. Transaction IDs are drawn
// from an atomic counter outside conflict detection, replicating the
// estimation methodology of the paper's §5.7 (their proposed hardware
// change makes the HTM ignore conflicts on the ID counter).
//
// Both engines satisfy TM, so every benchmark and every DudeTM mode runs
// unchanged on either.
package stm

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
)

// Space is the memory a TM executes on. DudeTM points it at shadow DRAM;
// baselines point it directly at simulated NVM.
type Space interface {
	Load8(addr uint64) uint64
	Store8(addr, val uint64)
}

// Tx is the per-attempt transaction handle passed to the user function.
// A Tx is only valid during the callback invocation it was passed to.
type Tx interface {
	// Load returns the 8-byte word at addr within the transaction.
	Load(addr uint64) uint64
	// Store transactionally writes the 8-byte word at addr.
	Store(addr, val uint64)
	// Abort rolls the transaction back and makes Run return ErrAborted
	// without retrying. It does not return.
	Abort()
}

// TM is the interface shared by the STM and HTM engines.
type TM interface {
	// Run executes fn as a transaction on behalf of thread slot,
	// retrying on conflicts, and returns the commit timestamp. Read-only
	// transactions commit without advancing the clock and report the
	// snapshot they read from. If fn returns an error or calls Abort,
	// the transaction rolls back and Run returns the error (ErrAborted
	// for Abort) without retrying.
	Run(slot int, fn func(Tx) error) (tid uint64, err error)
	// Clock returns the current global commit clock: the largest
	// transaction ID assigned so far.
	Clock() uint64
	// Stats returns cumulative commit/abort counters.
	Stats() Stats
}

// ErrAborted is returned by Run when the user function called Abort.
var ErrAborted = errors.New("stm: transaction aborted by user")

// Stats counts transaction outcomes.
type Stats struct {
	Commits   uint64 // committed transactions (including read-only)
	Aborts    uint64 // conflict aborts (each retried attempt counts)
	Fallbacks uint64 // HTM transactions that took the global-lock fallback
}

// conflict is the panic payload used to unwind an attempt on a conflict,
// the moral equivalent of TinySTM's longjmp-based rollback.
type conflict struct{}

// userAbort unwinds an attempt when the user calls Abort.
type userAbort struct{}

const (
	// StripeShift maps an address to its orec: one lock covers a
	// 32-byte stripe of four aligned words. Words sharing a stripe
	// conflict with each other (false conflicts), and a transaction
	// that owns a stripe reads and writes all four of its words.
	StripeShift      = 5
	defaultOrecCount = 1 << 20
	defaultMaxSlots  = 64
	maxBackoffSpin   = 1 << 14
)

// Config configures an Engine.
type Config struct {
	// OrecCount is the number of ownership records; must be a power of
	// two. Defaults to 1<<20.
	OrecCount uint64
	// MaxSlots is the maximum number of concurrent Run callers (each
	// must use a distinct slot). Defaults to 64.
	MaxSlots int
	// OnNoopCommit, if set, is called when a write transaction takes a
	// commit timestamp and then fails validation: the timestamp is
	// consumed by a no-op commit (the data was rolled back) and the
	// transaction retries under a new one. Consumers that replay
	// transactions by ID use this to keep the ID sequence dense.
	// Called on the transaction's goroutine with all locks released.
	OnNoopCommit func(slot int, tid uint64)
}

// Engine is the TinySTM-like software TM.
type Engine struct {
	space  Space
	orecs  []atomic.Uint64 // versioned locks: version<<1 | lockbit
	mask   uint64
	clock  atomic.Uint64
	onNoop func(slot int, tid uint64)

	commits atomic.Uint64
	aborts  atomic.Uint64

	txs []sTx // one preallocated transaction per slot
}

// orec encoding: unlocked = version<<1 (even); locked = slot<<1|1 (odd).
func lockedVal(slot int) uint64     { return uint64(slot)<<1 | 1 }
func isLocked(v uint64) bool        { return v&1 == 1 }
func ownerSlot(v uint64) int        { return int(v >> 1) }
func versionOf(v uint64) uint64     { return v >> 1 }
func unlockedVal(ver uint64) uint64 { return ver << 1 }

type readEntry struct {
	orec    *atomic.Uint64
	version uint64
}

type undoEntry struct {
	addr uint64
	old  uint64
}

type lockEntry struct {
	orec        *atomic.Uint64
	prevVersion uint64
}

// sTx is the per-slot transaction state, reused across attempts and
// transactions to avoid allocation in the hot path.
type sTx struct {
	e     *Engine
	slot  int
	rv    uint64
	reads []readEntry
	undo  []undoEntry
	locks []lockEntry
	_pad  [4]uint64 // reduce false sharing between slots
}

// New creates an STM engine over space.
func New(space Space, cfg Config) *Engine {
	if cfg.OrecCount == 0 {
		cfg.OrecCount = defaultOrecCount
	}
	if cfg.OrecCount&(cfg.OrecCount-1) != 0 {
		panic("stm: OrecCount must be a power of two")
	}
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = defaultMaxSlots
	}
	e := &Engine{
		space:  space,
		orecs:  make([]atomic.Uint64, cfg.OrecCount),
		mask:   cfg.OrecCount - 1,
		onNoop: cfg.OnNoopCommit,
		txs:    make([]sTx, cfg.MaxSlots),
	}
	for i := range e.txs {
		e.txs[i] = sTx{
			e:     e,
			slot:  i,
			reads: make([]readEntry, 0, 256),
			undo:  make([]undoEntry, 0, 256),
			locks: make([]lockEntry, 0, 64),
		}
	}
	return e
}

// Clock returns the largest transaction ID assigned so far.
func (e *Engine) Clock() uint64 { return e.clock.Load() }

// SetClock initializes the commit clock, e.g. when resuming a recovered
// pool whose transaction IDs must keep increasing. It must be called
// before any transaction runs.
func (e *Engine) SetClock(v uint64) { e.clock.Store(v) }

// Stats returns cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{Commits: e.commits.Load(), Aborts: e.aborts.Load()}
}

func (e *Engine) orecFor(addr uint64) *atomic.Uint64 {
	return &e.orecs[(addr>>StripeShift)&e.mask]
}

// Run implements TM.
func (e *Engine) Run(slot int, fn func(Tx) error) (uint64, error) {
	if slot < 0 || slot >= len(e.txs) {
		panic("stm: slot out of range")
	}
	tx := &e.txs[slot]
	backoff := 1
	for {
		tx.begin()
		tid, err, retry := tx.attempt(fn)
		if !retry {
			if err == nil {
				e.commits.Add(1)
			}
			return tid, err
		}
		e.aborts.Add(1)
		spin := rand.Intn(backoff)
		for i := 0; i < spin; i++ {
			runtime.Gosched()
		}
		if backoff < maxBackoffSpin {
			backoff <<= 1
		}
	}
}

func (t *sTx) begin() {
	t.rv = t.e.clock.Load()
	t.reads = t.reads[:0]
	t.undo = t.undo[:0]
	t.locks = t.locks[:0]
}

// attempt runs fn once, converting conflict panics into a retry signal.
func (t *sTx) attempt(fn func(Tx) error) (tid uint64, err error, retry bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case conflict:
				tid, err, retry = 0, nil, true
			case userAbort:
				tid, err, retry = 0, ErrAborted, false
			default:
				// Roll back before propagating unexpected panics so
				// the shadow memory is not left with torn updates.
				t.rollback()
				panic(r)
			}
		}
	}()
	if err := fn(Tx(t)); err != nil {
		t.rollback()
		return 0, err, false
	}
	return t.commit()
}

// Abort implements Tx.
func (t *sTx) Abort() {
	t.rollback()
	panic(userAbort{})
}

// conflictAbort rolls back and unwinds for a retry.
func (t *sTx) conflictAbort() {
	t.rollback()
	panic(conflict{})
}

// rollback restores undo values (in reverse) and releases held orecs to
// their pre-lock versions.
func (t *sTx) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		t.e.space.Store8(u.addr, u.old)
	}
	for i := len(t.locks) - 1; i >= 0; i-- {
		l := t.locks[i]
		l.orec.Store(unlockedVal(l.prevVersion))
	}
	t.undo = t.undo[:0]
	t.locks = t.locks[:0]
}

func (t *sTx) ownsOrec(o *atomic.Uint64) bool {
	for i := range t.locks {
		if t.locks[i].orec == o {
			return true
		}
	}
	return false
}

func (t *sTx) prevVersionOf(o *atomic.Uint64) uint64 {
	for i := range t.locks {
		if t.locks[i].orec == o {
			return t.locks[i].prevVersion
		}
	}
	panic("stm: prevVersionOf on unowned orec")
}

// Load implements Tx (tmRead).
func (t *sTx) Load(addr uint64) uint64 {
	o := t.e.orecFor(addr)
	for {
		v1 := o.Load()
		if isLocked(v1) {
			if ownerSlot(v1) == t.slot {
				return t.e.space.Load8(addr) // read own write-through value
			}
			t.conflictAbort()
		}
		val := t.e.space.Load8(addr)
		v2 := o.Load()
		if v1 != v2 {
			continue // raced with a writer; re-sample
		}
		ver := versionOf(v1)
		if ver > t.rv {
			// Snapshot too old: extend it, then re-sample — the value
			// just read predates the extension and may already be
			// stale under the new snapshot (a read-only transaction
			// would otherwise return it unvalidated).
			t.extend()
			continue
		}
		t.reads = append(t.reads, readEntry{orec: o, version: ver})
		return val
	}
}

// Store implements Tx (tmWrite): encounter-time locking, write-through
// with undo.
func (t *sTx) Store(addr, val uint64) {
	o := t.e.orecFor(addr)
	for {
		v := o.Load()
		if isLocked(v) {
			if ownerSlot(v) != t.slot {
				t.conflictAbort()
			}
			break // already own it
		}
		if versionOf(v) > t.rv {
			t.extend()
			// Re-read the orec after a successful extension.
			continue
		}
		if o.CompareAndSwap(v, lockedVal(t.slot)) {
			t.locks = append(t.locks, lockEntry{orec: o, prevVersion: versionOf(v)})
			break
		}
	}
	t.undo = append(t.undo, undoEntry{addr: addr, old: t.e.space.Load8(addr)})
	t.e.space.Store8(addr, val)
}

// extend attempts to advance the read snapshot to the current clock after
// validating every prior read; on failure the transaction aborts.
func (t *sTx) extend() {
	now := t.e.clock.Load()
	if !t.validate() {
		t.conflictAbort()
	}
	t.rv = now
}

// validate checks that every read is still consistent with the snapshot.
func (t *sTx) validate() bool {
	for i := range t.reads {
		r := t.reads[i]
		v := r.orec.Load()
		if isLocked(v) {
			if ownerSlot(v) != t.slot {
				return false
			}
			if t.prevVersionOf(r.orec) != r.version {
				return false
			}
			continue
		}
		if versionOf(v) != r.version {
			return false
		}
	}
	return true
}

// commit finishes the attempt: read-only transactions validate trivially;
// write transactions take a new timestamp, validate reads, and publish
// the new version on all held orecs. The returned ID is the commit
// timestamp — globally unique and monotonically increasing across write
// transactions — and is the order the Reproduce step replays by.
func (t *sTx) commit() (uint64, error, bool) {
	if len(t.locks) == 0 {
		// Read-only: the snapshot rv was continuously valid.
		return t.rv, nil, false
	}
	ts := t.e.clock.Add(1)
	if ts > t.rv+1 && !t.validate() {
		// The clock tick ts is consumed by a no-op commit: the data is
		// rolled back, the locks released, and the attempt retried
		// under a fresh timestamp. OnNoopCommit lets ID-ordered
		// consumers (DudeTM's Reproduce) account for the empty slot.
		t.rollback()
		if t.e.onNoop != nil {
			t.e.onNoop(t.slot, ts)
		}
		return 0, nil, true
	}
	rel := unlockedVal(ts)
	for i := range t.locks {
		t.locks[i].orec.Store(rel)
	}
	t.undo = t.undo[:0]
	t.locks = t.locks[:0]
	return ts, nil, false
}
