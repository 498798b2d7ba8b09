// Package persistorder is dudelint analyzer testdata: persist-ordering
// positives and negatives. It lives under testdata so the go tool never
// builds it; only the lint loader type-checks it.
package persistorder

import (
	"sync/atomic"

	"dudetm/internal/pmem"
)

type region struct {
	dev     *pmem.Device
	durable atomic.Uint64
}

// bad1: the store is never flushed before the function returns.
func (r *region) bad1(addr, val uint64) {
	r.dev.Store8(addr, val) // want: never covered by a flush
}

// bad2: the durable ID is published before the data is flushed.
func (r *region) bad2(addr, val uint64) {
	r.dev.Store8(addr, val) // want: published before flushed
	r.durable.Store(val)
	r.dev.Persist(addr, 8)
}

// good1: store then persist.
func (r *region) good1(addr, val uint64) {
	r.dev.Store8(addr, val)
	r.dev.Persist(addr, 8)
}

// good2: store, batch flush+fence, then publish — the legal ordering.
func (r *region) good2(addr uint64, buf []byte) {
	b := r.dev.NewBatch()
	r.dev.Store(addr, buf)
	b.Flush(addr, uint64(len(buf)))
	b.Fence()
	r.durable.Store(addr)
}

// volatileMap has a Store method that is not a persistent store; the
// analyzer must not flag non-device receivers.
type volatileMap map[uint64]uint64

func (m volatileMap) Store(k, v uint64) { m[k] = v }

// good3: a store through a volatile type needs no flush.
func good3(m volatileMap) { m.Store(1, 2) }

// applyTask models one address shard of the sharded Reproduce path:
// an applier stores its shard and flushes into the owner's shared
// batch; the owner fences at the join barrier.
type applyTask struct {
	b *pmem.Batch
}

// good4: the sharded applier — per-shard flushes into the foreign batch
// cover the stores; no suppression needed.
func (r *region) good4(t applyTask, addrs []uint64) {
	for _, a := range addrs {
		r.dev.Store8(a, 1)
	}
	for _, a := range addrs {
		t.b.Flush(a, 8)
	}
}

// bad3: an applier that atomically publishes completion before flushing
// its shard defeats the join barrier — the owner would fence and
// advance the replay frontier over unflushed data.
func (r *region) bad3(t applyTask, done *atomic.Uint64, addrs []uint64) {
	for _, a := range addrs {
		r.dev.Store8(a, 1) // want: published before flushed
	}
	done.Add(1)
	for _, a := range addrs {
		t.b.Flush(a, 8)
	}
}

// --- Interprocedural cases ------------------------------------------

// persistHelper performs the flush+fence for its caller.
func persistHelper(dev *pmem.Device, addr uint64) {
	dev.Persist(addr, 8)
}

// good5: the covering flush lives in a helper — the callee's summary
// covers the store, no suppression needed.
func (r *region) good5(addr, val uint64) {
	r.dev.Store8(addr, val)
	persistHelper(r.dev, addr)
}

// storeHelper leaves its store unflushed: flagged here, and the
// obligation propagates to callers that do not flush.
func storeHelper(dev *pmem.Device, addr, val uint64) {
	dev.Store8(addr, val) // want: never covered by a flush
}

// bad4: the helper's unflushed store surfaces at the call site.
func (r *region) bad4(addr, val uint64) {
	storeHelper(r.dev, addr, val) // want: left unflushed by the call
}

// good6: the caller covers the helper's store, so the obligation
// dissolves here.
func (r *region) good6(addr, val uint64) {
	storeHelper(r.dev, addr, val)
	r.dev.Persist(addr, 8)
}

// publishHelper atomically advances the durable marker.
func publishHelper(r *region, val uint64) {
	r.durable.Store(val)
}

// bad5: the publish is hidden in a helper but still lands between the
// store and its flush.
func (r *region) bad5(addr, val uint64) {
	r.dev.Store8(addr, val) // want: published before flushed
	publishHelper(r, val)
	r.dev.Persist(addr, 8)
}

// --- Run stores -----------------------------------------------------

// bad6: a whole run stored with StoreRun and never written back is as
// lost on Crash() as a single word.
func (r *region) bad6(addr uint64, vals []uint64) {
	r.dev.StoreRun(addr, vals) // want: never covered by a flush
}

// bad7: the run is published before its lines are flushed.
func (r *region) bad7(addr uint64, vals []uint64) {
	r.dev.StoreRun(addr, vals) // want: published before flushed
	r.durable.Store(addr)
	r.dev.Persist(addr, 8*uint64(len(vals)))
}

// good7: the replay primitive's shape — store the run, then flush its
// range into the caller's batch (the caller fences).
func (r *region) good7(t applyTask, addr uint64, vals []uint64) {
	r.dev.StoreRun(addr, vals)
	t.b.Flush(addr, 8*uint64(len(vals)))
}
