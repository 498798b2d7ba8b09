// Package server implements dudesrv: a networked durable key-value
// service over a dudetm.Pool. Clients speak the internal/wire protocol
// over TCP; each request is one durable transaction (GET/PUT/DELETE/
// SCAN, or several ops atomically), executed on the shadow-DRAM B+-tree
// and acknowledged through the pool's own durability notifier
// (Pool.WaitDurableChan) — one ack-frontier advance (one persist fence)
// releases every connection whose transaction it covered, which is how
// the paper's decoupled Persist step turns into server-side commit
// batching, and a wait the pool fails (quorum lost, closed, crashed)
// reaches the client under the pool's name for it.
package server

import (
	"fmt"

	"dudetm"
	"dudetm/internal/memdb"
	"dudetm/internal/wire"
)

// Pool root words used by the store.
const (
	// rootTree holds the B+-tree root node address (0 = unformatted).
	rootTree = 0
)

// store is the keyspace: a B+-tree mapping keys to blob addresses on
// the pool heap. Values are variable-length byte strings packed as
// memdb blobs; a Put frees the previous blob in the same transaction,
// so the heap can never leak across a crash.
type store struct {
	pool *dudetm.Pool
	tree memdb.BPlusTree
	heap memdb.Heap
}

// openStore binds (and, on a fresh pool, formats) the keyspace.
func openStore(pool *dudetm.Pool) (*store, error) {
	st := &store{
		pool: pool,
		tree: memdb.BPlusTree{RootPtr: pool.Root(rootTree), Heap: pool.Heap()},
		heap: pool.Heap(),
	}
	var formatted bool
	if err := pool.View(0, func(tx *dudetm.Tx) error {
		formatted = tx.Load(pool.Root(rootTree)) != 0
		return nil
	}); err != nil {
		return nil, err
	}
	if !formatted {
		if _, err := pool.Update(0, func(tx *dudetm.Tx) error {
			return st.tree.Format(tx)
		}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// writes reports whether the request mutates the keyspace (and so needs
// a durability acknowledgment).
func writes(q *wire.Request) bool {
	for i := range q.Ops {
		switch q.Ops[i].Kind {
		case wire.OpPut, wire.OpDelete:
			return true
		}
	}
	return false
}

// apply executes every op of the request inside tx, in order, filling
// results. It is re-run from scratch on TM conflict retry, so it builds
// its result slice fresh each attempt.
func (st *store) apply(tx *dudetm.Tx, q *wire.Request) ([]wire.OpResult, error) {
	results := make([]wire.OpResult, len(q.Ops))
	for i := range q.Ops {
		op := &q.Ops[i]
		res := &results[i]
		switch op.Kind {
		case wire.OpGet:
			if addr, ok := st.tree.Get(tx, op.Key); ok {
				res.Found = true
				res.Val = st.heap.ReadBlob(tx, addr)
				if res.Val == nil {
					res.Val = []byte{}
				}
			}
		case wire.OpPut:
			if old, ok := st.tree.Get(tx, op.Key); ok {
				res.Found = true
				st.heap.FreeBlob(tx, old)
			}
			addr, err := st.heap.WriteBlob(tx, op.Val)
			if err != nil {
				return nil, err
			}
			if err := st.tree.Put(tx, op.Key, addr); err != nil {
				return nil, err
			}
		case wire.OpDelete:
			if addr, ok := st.tree.Get(tx, op.Key); ok {
				res.Found = true
				st.heap.FreeBlob(tx, addr)
				st.tree.Delete(tx, op.Key)
			}
		case wire.OpScan:
			to := op.ScanTo
			if to == 0 {
				to = ^uint64(0)
			}
			limit := int(op.ScanLimit)
			if limit == 0 || limit > wire.MaxScanPairs {
				limit = wire.MaxScanPairs
			}
			res.Pairs = make([]wire.KV, 0, 16)
			st.tree.Scan(tx, op.Key, to, func(k, addr uint64) bool {
				v := st.heap.ReadBlob(tx, addr)
				if v == nil {
					v = []byte{}
				}
				res.Pairs = append(res.Pairs, wire.KV{Key: k, Val: v})
				return len(res.Pairs) < limit
			})
		default:
			return nil, fmt.Errorf("unknown op kind %d", op.Kind)
		}
	}
	return results, nil
}
