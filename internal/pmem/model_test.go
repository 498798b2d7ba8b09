package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// model is the reference semantics of a Device: the bytes a load sees,
// the bytes a crash would leave, and the lines that differ between the
// two for want of a write-back.
type model struct {
	cur, per []byte
	dirty    map[uint64]bool
	// flushed marks lines written back at least once, and redirtied
	// counts the reverts of such lines by a crash: the case in which a
	// stale persisted copy from an earlier dirty period could resurface.
	flushed   map[uint64]bool
	redirtied int
}

func newModel(size uint64) *model {
	return &model{cur: make([]byte, size), per: make([]byte, size), dirty: map[uint64]bool{}, flushed: map[uint64]bool{}}
}

func (m *model) store(addr uint64, b []byte) {
	for line := addr >> lineShift; line <= (addr+uint64(len(b))-1)>>lineShift; line++ {
		m.dirty[line] = true
	}
	copy(m.cur[addr:], b)
}

func (m *model) flush(addr, n uint64) uint64 {
	var bytes uint64
	for line := addr >> lineShift; line <= (addr+n-1)>>lineShift; line++ {
		if m.dirty[line] {
			off := line << lineShift
			copy(m.per[off:off+LineSize], m.cur[off:])
			delete(m.dirty, line)
			m.flushed[line] = true
			bytes += LineSize
		}
	}
	return bytes
}

func (m *model) crash() {
	for line := range m.dirty {
		if m.flushed[line] {
			m.redirtied++
		}
	}
	copy(m.cur, m.per)
	m.dirty = map[uint64]bool{}
}

func (m *model) restore(img []byte) {
	copy(m.cur, img)
	copy(m.per, img)
	m.dirty = map[uint64]bool{}
}

// TestDeviceMatchesModel drives a small Device and the reference model
// through the same random operations and compares every observable:
// loads, flush volumes, the persisted image and the dirty-line count.
// Lines are dirtied, flushed and dirtied again many times over, so a
// persisted copy left over from an earlier dirty period would resurface
// in a later crash or image.
func TestDeviceMatchesModel(t *testing.T) {
	const size = 16 * LineSize
	redirtied := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, m := newTestDev(size), newModel(size)
		var ops []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d after %v: %s", seed, ops, fmt.Sprintf(format, args...))
		}
		span := func() (uint64, uint64) {
			addr := uint64(rng.Intn(size))
			return addr, 1 + uint64(rng.Intn(int(min(size-addr, 3*LineSize))))
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 4:
				addr, n := span()
				b := make([]byte, n)
				rng.Read(b)
				d.Store(addr, b)
				m.store(addr, b)
				ops = append(ops, fmt.Sprintf("Store(%d,%d)", addr, n))
			case op < 7:
				addr, v := uint64(rng.Intn(size/8))*8, rng.Uint64()
				d.Store8(addr, v)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				m.store(addr, b[:])
				ops = append(ops, fmt.Sprintf("Store8(%d)", addr))
			case op < 9:
				addr := uint64(rng.Intn(size/8)) * 8
				vals := make([]uint64, 1+rng.Intn(int(min((size-addr)/8, 20))))
				b := make([]byte, 8*len(vals))
				for i := range vals {
					vals[i] = rng.Uint64()
					binary.LittleEndian.PutUint64(b[8*i:], vals[i])
				}
				d.StoreRun(addr, vals)
				m.store(addr, b)
				ops = append(ops, fmt.Sprintf("StoreRun(%d,%d)", addr, len(vals)))
			case op < 12:
				addr, n := span()
				if got, want := d.FlushRange(addr, n), m.flush(addr, n); got != want {
					fail("FlushRange(%d,%d) = %d, want %d", addr, n, got, want)
				}
				ops = append(ops, fmt.Sprintf("FlushRange(%d,%d)", addr, n))
			case op < 14:
				b := d.NewBatch()
				var want uint64
				for i := rng.Intn(3); i >= 0; i-- {
					addr, n := span()
					b.Flush(addr, n)
					want += m.flush(addr, n)
				}
				if got := b.Fence(); got != want {
					fail("Batch.Fence = %d, want %d", got, want)
				}
				ops = append(ops, "Batch")
			case op < 16:
				addr, n := span()
				d.Persist(addr, n)
				m.flush(addr, n)
				ops = append(ops, fmt.Sprintf("Persist(%d,%d)", addr, n))
			case op < 18:
				d.Crash()
				m.crash()
				ops = append(ops, "Crash")
			case op < 19:
				img := make([]byte, size)
				rng.Read(img)
				d.Restore(img)
				m.restore(img)
				ops = append(ops, "Restore")
			default:
				if !bytes.Equal(d.PersistedImage(), m.per) {
					fail("PersistedImage differs from the model")
				}
				ops = append(ops, "PersistedImage")
			}
			cur := make([]byte, size)
			d.Load(0, cur)
			if !bytes.Equal(cur, m.cur) {
				fail("loaded contents differ from the model")
			}
			if got, want := d.DirtyLines(), len(m.dirty); got != want {
				fail("DirtyLines = %d, want %d", got, want)
			}
			if len(ops) > 8 {
				ops = ops[1:]
			}
		}
		if !bytes.Equal(d.PersistedImage(), m.per) {
			t.Fatalf("seed %d: final PersistedImage differs from the model", seed)
		}
		redirtied += m.redirtied
	}
	if redirtied == 0 {
		t.Fatal("no crash reverted a line that had been flushed before")
	}
	t.Logf("crashes reverted %d lines flushed in an earlier dirty period", redirtied)
}
