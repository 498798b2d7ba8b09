// Package mnemosyne implements a Mnemosyne-style durable transactional
// memory baseline (Volos et al., ASPLOS 2011), as evaluated against
// DudeTM in §5.2.2 of the paper.
//
// Design points that define the baseline's cost profile:
//
//   - Redo logging with write-back access: transactional writes are
//     buffered in a per-transaction write set; every transactional read
//     must first look the address up in that write set — the address-
//     mapping overhead the paper attributes to redo logging.
//   - Transactions execute directly on (simulated) persistent memory;
//     there is no shadow DRAM.
//   - Commit is synchronous: the redo log is flushed and fenced before
//     the transaction returns, then the writes are applied in place,
//     flushed, and the log is truncated. Perform and Persist are not
//     decoupled, so every commit stalls for the NVM write latency.
//
// Concurrency control is the same time-based orec scheme as
// internal/stm, with the same four-word orec stripes, so throughput
// differences against DudeTM come from the durability design, not the
// TM algorithm.
package mnemosyne

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
	"dudetm/internal/stm"
)

// ErrAborted is returned by Run when the user function called Abort.
var ErrAborted = errors.New("mnemosyne: transaction aborted by user")

// Config describes a Mnemosyne-style system.
type Config struct {
	// DataSize is the persistent data region size in bytes.
	DataSize uint64
	// Threads is the number of concurrent Run callers.
	Threads int
	// LogBufBytes is the per-thread persistent redo-log size.
	LogBufBytes uint64
	// OrecCount is the ownership-record table size (power of two).
	OrecCount uint64
	// Pmem carries the NVM timing model; Size is computed.
	Pmem pmem.Config
}

// System is a mounted Mnemosyne-style pool.
type System struct {
	dev     *pmem.Device
	dataOff uint64
	cfg     Config

	orecs []atomic.Uint64
	mask  uint64
	clock atomic.Uint64

	writers []*redolog.Writer
	txs     []mTx

	commits atomic.Uint64
	aborts  atomic.Uint64
}

const (
	logMetaSlot = 64
	maxBackoff  = 1 << 14
)

type conflict struct{}
type userAbort struct{}

type readEntry struct {
	orec    *atomic.Uint64
	version uint64
}

type lockEntry struct {
	orec        *atomic.Uint64
	prevVersion uint64
}

type mTx struct {
	e     *System
	slot  int
	rv    uint64
	reads []readEntry
	locks []lockEntry
	// wset is the redo-log write buffer: the address mapping every
	// tmRead must consult.
	wset   map[uint64]uint64
	worder []redolog.Entry
	_pad   [4]uint64
}

// Create initializes a fresh pool and its simulated device.
func Create(cfg Config) (*System, error) {
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.LogBufBytes == 0 {
		cfg.LogBufBytes = 8 << 20
	}
	if cfg.OrecCount == 0 {
		cfg.OrecCount = 1 << 20
	}
	if cfg.OrecCount&(cfg.OrecCount-1) != 0 {
		return nil, fmt.Errorf("mnemosyne: OrecCount must be a power of two")
	}
	if cfg.DataSize == 0 {
		cfg.DataSize = 64 << 20
	}
	n := uint64(cfg.Threads)
	metaOff := uint64(0)
	logsOff := metaOff + n*logMetaSlot
	dataOff := (logsOff + n*cfg.LogBufBytes + 4095) &^ 4095
	pc := cfg.Pmem
	pc.Size = dataOff + cfg.DataSize
	dev := pmem.New(pc)

	s := &System{
		dev:     dev,
		dataOff: dataOff,
		cfg:     cfg,
		orecs:   make([]atomic.Uint64, cfg.OrecCount),
		mask:    cfg.OrecCount - 1,
		writers: make([]*redolog.Writer, cfg.Threads),
		txs:     make([]mTx, cfg.Threads),
	}
	for i := 0; i < cfg.Threads; i++ {
		w, err := redolog.NewWriter(dev, metaOff+uint64(i)*logMetaSlot,
			logsOff+uint64(i)*cfg.LogBufBytes, cfg.LogBufBytes, false)
		if err != nil {
			return nil, err
		}
		s.writers[i] = w
		s.txs[i] = mTx{
			e:     s,
			slot:  i,
			reads: make([]readEntry, 0, 256),
			locks: make([]lockEntry, 0, 64),
			wset:  make(map[uint64]uint64, 64),
		}
	}
	return s, nil
}

// Device returns the simulated NVM device.
func (s *System) Device() *pmem.Device { return s.dev }

// Clock returns the largest transaction ID assigned so far.
func (s *System) Clock() uint64 { return s.clock.Load() }

// Stats returns commit/abort counters.
func (s *System) Stats() (commits, aborts uint64) {
	return s.commits.Load(), s.aborts.Load()
}

func (s *System) orecFor(addr uint64) *atomic.Uint64 {
	return &s.orecs[(addr>>stm.StripeShift)&s.mask]
}

// Tx is the transaction handle (satisfies memdb.Ctx).
type Tx = mTx

// Run executes fn as a durable transaction; when it returns, the
// transaction is durable (synchronous persist).
func (s *System) Run(slot int, fn func(tx *Tx) error) (uint64, error) {
	tx := &s.txs[slot]
	backoff := 1
	for {
		tx.begin()
		tid, err, retry := tx.attempt(fn)
		if !retry {
			if err == nil {
				s.commits.Add(1)
			}
			return tid, err
		}
		s.aborts.Add(1)
		spin := rand.Intn(backoff)
		for i := 0; i < spin; i++ {
			runtime.Gosched()
		}
		if backoff < maxBackoff {
			backoff <<= 1
		}
	}
}

func (t *mTx) begin() {
	t.rv = t.e.clock.Load()
	t.reads = t.reads[:0]
	t.locks = t.locks[:0]
	t.resetWriteSet()
}

// resetWriteSet empties the write set, reallocating the map if a large
// transaction inflated it (clear() on a huge map sweeps every bucket).
func (t *mTx) resetWriteSet() {
	if len(t.wset) > 256 {
		t.wset = make(map[uint64]uint64, 64)
	} else {
		clear(t.wset)
	}
	t.worder = t.worder[:0]
}

func (t *mTx) attempt(fn func(*Tx) error) (tid uint64, err error, retry bool) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case conflict:
				tid, err, retry = 0, nil, true
			case userAbort:
				tid, err, retry = 0, ErrAborted, false
			default:
				t.rollback()
				panic(r)
			}
		}
	}()
	if err := fn(t); err != nil {
		t.rollback()
		return 0, err, false
	}
	return t.commit()
}

// Load implements the transactional read: write-set lookup first (the
// redo-logging address mapping), then an orec-validated read of
// persistent memory.
func (t *mTx) Load(addr uint64) uint64 {
	if len(t.wset) > 0 {
		if v, ok := t.wset[addr]; ok {
			return v
		}
	}
	o := t.e.orecFor(addr)
	for {
		v1 := o.Load()
		if v1&1 == 1 {
			if int(v1>>1) == t.slot {
				// Locked by us but not in the write set: another word
				// covered by the same orec. Fall through to memory.
				return t.e.dev.Load8(t.e.dataOff + addr)
			}
			t.conflictAbort()
		}
		val := t.e.dev.Load8(t.e.dataOff + addr)
		if o.Load() != v1 {
			continue
		}
		ver := v1 >> 1
		if ver > t.rv {
			// Extend the snapshot, then re-sample: the value read
			// above predates the extension (see stm.(*sTx).Load).
			t.extend()
			continue
		}
		t.reads = append(t.reads, readEntry{orec: o, version: ver})
		return val
	}
}

// Store implements the transactional write: acquire the orec and buffer
// the value in the write set (no in-place update until commit).
func (t *mTx) Store(addr, val uint64) {
	o := t.e.orecFor(addr)
	for {
		v := o.Load()
		if v&1 == 1 {
			if int(v>>1) != t.slot {
				t.conflictAbort()
			}
			break
		}
		if v>>1 > t.rv {
			t.extend()
			continue
		}
		if o.CompareAndSwap(v, uint64(t.slot)<<1|1) {
			t.locks = append(t.locks, lockEntry{orec: o, prevVersion: v >> 1})
			break
		}
	}
	t.wset[addr] = val
	t.worder = append(t.worder, redolog.Entry{Addr: addr, Val: val})
}

// Abort rolls back and makes Run return ErrAborted.
func (t *mTx) Abort() {
	t.rollback()
	panic(userAbort{})
}

func (t *mTx) conflictAbort() {
	t.rollback()
	panic(conflict{})
}

// rollback releases orecs; nothing was written in place, so there is no
// data to restore.
func (t *mTx) rollback() {
	for i := len(t.locks) - 1; i >= 0; i-- {
		l := t.locks[i]
		l.orec.Store(l.prevVersion << 1)
	}
	t.locks = t.locks[:0]
	clear(t.wset)
	t.worder = t.worder[:0]
}

func (t *mTx) extend() {
	now := t.e.clock.Load()
	if !t.validate() {
		t.conflictAbort()
	}
	t.rv = now
}

func (t *mTx) validate() bool {
	for i := range t.reads {
		r := t.reads[i]
		v := r.orec.Load()
		if v&1 == 1 {
			if int(v>>1) != t.slot {
				return false
			}
			ok := false
			for j := range t.locks {
				if t.locks[j].orec == r.orec {
					ok = t.locks[j].prevVersion == r.version
					break
				}
			}
			if !ok {
				return false
			}
			continue
		}
		if v>>1 != r.version {
			return false
		}
	}
	return true
}

// commit persists the redo log synchronously (one fence), applies the
// writes in place, flushes them (second fence), truncates the log, and
// releases the orecs. The transaction is durable when commit returns.
func (t *mTx) commit() (uint64, error, bool) {
	if len(t.locks) == 0 {
		return t.rv, nil, false
	}
	ts := t.e.clock.Add(1)
	if ts > t.rv+1 && !t.validate() {
		t.rollback()
		return 0, nil, true
	}

	// Persist the redo log: the synchronous stall on the critical path.
	w := t.e.writers[t.slot]
	g := &redolog.Group{MinTid: ts, MaxTid: ts, Entries: t.worder}
	w.AppendGroup(g)

	// Apply in place and write back.
	b := t.e.dev.NewBatch()
	for _, e := range t.worder {
		t.e.dev.Store8(t.e.dataOff+e.Addr, e.Val)
	}
	for _, e := range t.worder {
		b.Flush(t.e.dataOff+e.Addr, 8)
	}
	b.Fence()

	// Truncate (recycle) the log now that the data is durable.
	w.Recycle(g.EndPos, g.Seq+1, ts)

	rel := ts << 1
	for i := range t.locks {
		t.locks[i].orec.Store(rel)
	}
	t.locks = t.locks[:0]
	t.resetWriteSet()
	return ts, nil, false
}

// Recover mounts a crashed pool: live redo-log records are replayed in
// transaction-ID order (a missing ID means that transaction persisted no
// log and therefore wrote nothing in place; later independent
// transactions are still valid).
func Recover(dev *pmem.Device, cfg Config) (*System, error) {
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.LogBufBytes == 0 {
		cfg.LogBufBytes = 8 << 20
	}
	n := uint64(cfg.Threads)
	logsOff := n * logMetaSlot
	dataOff := (logsOff + n*cfg.LogBufBytes + 4095) &^ 4095

	var groups []redolog.Group
	results := make([]redolog.ScanResult, cfg.Threads)
	var maxTid uint64
	for i := 0; i < cfg.Threads; i++ {
		res, err := redolog.Scan(dev, uint64(i)*logMetaSlot,
			logsOff+uint64(i)*cfg.LogBufBytes, cfg.LogBufBytes)
		if err != nil {
			return nil, err
		}
		results[i] = res
		groups = append(groups, res.Groups...)
	}
	for _, g := range groups {
		if g.MaxTid > maxTid {
			maxTid = g.MaxTid
		}
	}
	b := dev.NewBatch()
	// Replay in tid order.
	for tid := uint64(1); tid <= maxTid; tid++ {
		for _, g := range groups {
			if g.MinTid != tid {
				continue
			}
			for _, e := range g.Entries {
				dev.Store8(dataOff+e.Addr, e.Val)
			}
			for _, e := range g.Entries {
				b.Flush(dataOff+e.Addr, 8)
			}
		}
	}
	b.Fence()

	s := &System{dev: dev, dataOff: dataOff, cfg: cfg}
	if cfg.OrecCount == 0 {
		cfg.OrecCount = 1 << 20
	}
	s.cfg = cfg
	s.orecs = make([]atomic.Uint64, cfg.OrecCount)
	s.mask = cfg.OrecCount - 1
	s.clock.Store(maxTid)
	s.writers = make([]*redolog.Writer, cfg.Threads)
	s.txs = make([]mTx, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		s.writers[i] = redolog.Resume(dev, uint64(i)*logMetaSlot,
			logsOff+uint64(i)*cfg.LogBufBytes, cfg.LogBufBytes, false, results[i], maxTid)
		s.txs[i] = mTx{
			e:     s,
			slot:  i,
			reads: make([]readEntry, 0, 256),
			locks: make([]lockEntry, 0, 64),
			wset:  make(map[uint64]uint64, 64),
		}
	}
	return s, nil
}
