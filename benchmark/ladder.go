package main

import (
	"errors"
	"fmt"
	"time"

	"dudetm"
	"dudetm/internal/memdb"
	"dudetm/internal/server"
	"dudetm/internal/shadow"
	"dudetm/internal/stm"
	"dudetm/internal/wire"
)

// The layer ladder (traced run only): the same seeded single-key
// 100-byte PUT stream, one thread, closed loop, at six rungs from the
// wire codec up to the replicated service. Each rung's cost over the
// one below it is that layer's self time; together they say who owns
// the gap between the library's throughput and the service's.

// ladderBatch is how many operations one timed batch holds: enough that
// reading the clock twice is under a percent of the cheapest rung.
const ladderBatch = 16

// rung runs op in timed batches for dur and records the median wall
// time and the process CPU time per operation.
func rung(m metrics, name string, dur time.Duration, op func() error) error {
	var per []float64
	ops := 0
	cpu0 := cpuNanos()
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		t0 := time.Now()
		for i := 0; i < ladderBatch; i++ {
			if err := op(); err != nil {
				return fmt.Errorf("ladder rung %s: %w", name, err)
			}
		}
		per = append(per, us(int64(time.Since(t0)))/ladderBatch)
		ops += ladderBatch
	}
	m.set("ladder."+name+"_us", median(per), ops)
	m.set("ladder."+name+"_cpu_us", ratio(float64(cpuNanos()-cpu0)/1e3, float64(ops)), ops)
	return nil
}

// kvPut is the server's PUT — look the key up, free the old blob, write
// the new one, point the tree at it — written against memdb's
// transaction context so it runs on a bare STM and on a pool alike.
func kvPut(ctx memdb.Ctx, tree memdb.BPlusTree, key uint64, val []byte) error {
	if old, ok := tree.Get(ctx, key); ok {
		tree.Heap.FreeBlob(ctx, old)
	}
	addr, err := tree.Heap.WriteBlob(ctx, val)
	if err != nil {
		return err
	}
	return tree.Put(ctx, key, addr)
}

func runLadder(w *run) error {
	cfg, m := w.cfg, w.m
	ks := newKeyspace(cfg.seed, cfg.keys, conns)
	key := newRNG(cfg.seed, "ladder").intn(ks.n)
	val := make([]byte, valueBytes)
	gen := uint32(0)
	nextVal := func() []byte {
		gen++
		ks.fillValue(val, key, gen)
		return val
	}

	// Rung 1: encode, frame and decode the request and its response in
	// memory — the wire codec alone.
	var buf, frame []byte
	err := rung(m, "wire", cfg.rungTime, func() error {
		var err error
		if buf, err = wire.AppendRequest(buf[:0], &wire.Request{ID: uint64(gen), Ops: []wire.Op{{Kind: wire.OpPut, Key: key, Val: nextVal()}}}); err != nil {
			return err
		}
		frame = wire.AppendFrame(frame[:0], buf)
		payload, _, err := wire.DecodeFrame(frame)
		if err != nil {
			return err
		}
		if _, err = wire.DecodeRequest(payload); err != nil {
			return err
		}
		if buf, err = wire.AppendResponse(buf[:0], &wire.Response{ID: uint64(gen), Tid: uint64(gen), Durable: true, Results: []wire.OpResult{{Found: true}}}); err != nil {
			return err
		}
		frame = wire.AppendFrame(frame[:0], buf)
		if payload, _, err = wire.DecodeFrame(frame); err != nil {
			return err
		}
		_, err = wire.DecodeResponse(payload)
		return err
	})
	if err != nil {
		return err
	}

	// Rung 2: the PUT on a bare STM over a flat shadow — no redo log,
	// no pipeline.
	const bareSize = 16 << 20
	eng := stm.New(shadow.NewFlat(bareSize, nil, 4096), stm.Config{MaxSlots: 1})
	bareHeap := memdb.Heap{Base: 4096, Size: bareSize - 4096}
	bareTree := memdb.BPlusTree{RootPtr: 0, Heap: bareHeap}
	if _, err := eng.Run(0, func(tx stm.Tx) error {
		bareHeap.Format(tx)
		return bareTree.Format(tx)
	}); err != nil {
		return err
	}
	if err := rung(m, "stm_memdb", cfg.rungTime, func() error {
		v := nextVal()
		_, err := eng.Run(0, func(tx stm.Tx) error { return kvPut(tx, bareTree, key, v) })
		return err
	}); err != nil {
		return err
	}

	// Rungs 3-5 share one pool: Perform only, Perform plus the wait for
	// durability, then the same PUT through the server over loopback.
	pool, err := createPool(cfg.poolOptions(kvThreads, false, 0))
	if err != nil {
		return err
	}
	tree := memdb.BPlusTree{RootPtr: pool.Root(1), Heap: pool.Heap()} // root 0 is the server's
	if _, err := pool.Update(0, func(tx *dudetm.Tx) error { return tree.Format(tx) }); err != nil {
		pool.Close()
		return err
	}
	put := func() (uint64, error) {
		v := nextVal()
		return pool.Update(0, func(tx *dudetm.Tx) error { return kvPut(tx, tree, key, v) })
	}
	err = rung(m, "perform", cfg.rungTime, func() error {
		_, err := put()
		return err
	})
	if err == nil {
		settle(pool)
		err = rung(m, "durable", cfg.rungTime, func() error {
			tid, err := put()
			if err != nil {
				return err
			}
			return pool.WaitDurable(tid)
		})
	}
	if err != nil {
		pool.Close()
		return err
	}
	n, err := serve(pool, server.Config{})
	if err != nil {
		pool.Close()
		return err
	}
	err = tcpRung(m, "tcp", cfg.rungTime, n.addr, key, nextVal)
	if e := n.stop(); err == nil {
		err = e
	}
	if err != nil {
		return err
	}

	// Rung 6: the same, with one replica behind the quorum gate.
	rig, err := startKV(cfg, false, kvShape{replicated: true}, false)
	if err != nil {
		return err
	}
	defer rig.close()
	if err := tcpRung(m, "tcp_repl", cfg.rungTime, rig.pri.addr, key, nextVal); err != nil {
		return err
	}
	return rig.replHealthy()
}

// tcpRung runs the PUT through Client.Put against the server at addr.
func tcpRung(m metrics, name string, dur time.Duration, addr string, key uint64, nextVal func() []byte) error {
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := rung(m, name, dur, func() error { return cl.Put(key, nextVal()) }); err != nil {
		return err
	}
	last := nextVal()
	if err := cl.Put(key, last); err != nil {
		return err
	}
	got, found, err := cl.Get(key)
	if err != nil {
		return err
	}
	if !found || string(got) != string(last) {
		return errors.New("ladder rung " + name + ": the key does not hold the last value written")
	}
	return nil
}
