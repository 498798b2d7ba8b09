package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dudetm"
	"dudetm/internal/memdb"
)

// The tx-btree workload: the library alone. Each transaction looks a
// key up in a memdb.BPlusTree and overwrites its 16-word record through
// Pool.Update — the paper's B+-tree microbenchmark. No socket, server,
// notifier or replication is involved, so what this workload and kv-put
// disagree on belongs to those layers.

// btreeRig is the system under test for tx-btree. Its "connections" are
// the pool's Perform threads: thread t owns records t, t+threads, ...
type btreeRig struct {
	cfg  *runConfig
	opts dudetm.Options
	p    *dudetm.Pool
	tree memdb.BPlusTree
	ks   *keyspace // records; sent/acked generations as for KV keys
}

// recordWord is word j of the record (key, gen): the key, the
// generation, then seeded filler, so a reader can tell which write it
// sees and whether all 16 words belong to it.
func recordWord(seed, key uint64, gen uint32, j int) uint64 {
	switch j {
	case 0:
		return key
	case 1:
		return uint64(gen)
	}
	r := rng{s: seed ^ key*0x9e3779b97f4a7c15 ^ uint64(gen)<<40 ^ uint64(j)<<56}
	return r.next()
}

func startBtree(cfg *runConfig, traced bool) (*btreeRig, error) {
	r := &btreeRig{cfg: cfg, opts: cfg.poolOptions(btreeThreads, traced, 0), ks: newKeyspace(cfg.seed, cfg.records, btreeThreads)}
	pool, err := createPool(r.opts)
	if err != nil {
		return nil, err
	}
	r.p = pool
	r.tree = memdb.BPlusTree{RootPtr: pool.Root(0), Heap: pool.Heap()}
	var last uint64
	if last, err = pool.Update(0, func(tx *dudetm.Tx) error { return r.tree.Format(tx) }); err == nil {
		const perTx = 64
		for lo := uint64(0); lo < r.ks.n && err == nil; lo += perTx {
			last, err = pool.Update(0, func(tx *dudetm.Tx) error {
				for key := lo; key < min(lo+perTx, r.ks.n); key++ {
					addr, err := pool.Alloc(tx, recordWords*8)
					if err != nil {
						return err
					}
					for j := 0; j < recordWords; j++ {
						tx.Store(addr+uint64(j)*8, recordWord(cfg.seed, key, 1, j))
					}
					if err := r.tree.Put(tx, key, addr); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	if err == nil {
		err = pool.WaitDurable(last)
	}
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	for k := range r.ks.sent {
		r.ks.sent[k], r.ks.acked[k] = 1, 1
	}
	return r, nil
}

func (r *btreeRig) close() {
	r.p.Close()
	runtime.GC()
}

func (r *btreeRig) pool() *dudetm.Pool { return r.p }

func (r *btreeRig) snapshot() snap {
	s := snap{wall: time.Now(), pool: r.p.Stats()}
	runtime.ReadMemStats(&s.mem)
	return s
}

func (r *btreeRig) gauges(g *gaugeMax) { g.observePool(r.p) }

var errNoRecord = errors.New("record not found")

// update overwrites q's record with its next generation on thread.
func (r *btreeRig) update(thread int, q *request) (uint64, error) {
	return r.p.Update(thread, func(tx *dudetm.Tx) error {
		addr, ok := r.tree.Get(tx, q.key)
		if !ok {
			return errNoRecord
		}
		for j := 0; j < recordWords; j++ {
			tx.Store(addr+uint64(j)*8, recordWord(r.cfg.seed, q.key, q.gen, j))
		}
		return nil
	})
}

// syncRate bounds the records a synchronous phase preallocates: well
// above what two threads waiting out every transaction's durability
// reach (about 30 K/s here).
const syncRate = 200_000

// runSync is tx-btree's latency phase: on each thread a closed loop of
// Update followed by WaitDurable, which is what a caller that needs
// each transaction durable before it goes on does. A transaction's
// latency runs from entering Update to WaitDurable's return; there is
// no schedule, so the intended send time is the actual one. (The
// design gave tx-btree a throughput phase only; the driver wants every
// end-to-end metric from every workload. An open loop at a fixed light
// rate, as the KV workloads have, proved bistable on the library alone:
// the same run flips between a spinning regime at 0.6 ms and a sleeping
// one at 1.0 ms depending on whether the Go scheduler happens to keep a
// processor awake for the coordinator's 20 us sleeps.)
func (r *btreeRig) runSync(label string, dur time.Duration, onDone func(*opRec)) *openResult {
	res := &openResult{recs: make([]opRec, int(syncRate*dur.Seconds()))}
	var next, completed atomic.Uint64
	res.observed = observe(r, r.cfg.host, completed.Load, func(start time.Time) {
		var wg sync.WaitGroup
		for t := 0; t < btreeThreads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				st := &stream{r: newRNG(r.cfg.seed, fmt.Sprintf("%s/%d", label, t)), ks: r.ks, mix: mix{putFrac: 1}}
				for time.Since(start) < dur {
					i := next.Add(1) - 1
					if i >= uint64(len(res.recs)) {
						return
					}
					rec := &res.recs[i]
					rec.q = st.nextFor(t)
					rec.q.at = int64(time.Since(start))
					rec.sendIn = rec.q.at
					tid, err := r.update(t, &rec.q)
					rec.sendOut = int64(time.Since(start))
					if err == nil {
						err = r.p.WaitDurable(tid)
					}
					if err != nil {
						rec.fail = err.Error()
					} else {
						rec.tid = tid
						r.ks.acked[rec.q.key] = rec.q.gen
					}
					rec.done.Store(max(1, int64(time.Since(start))))
					completed.Add(1)
					if onDone != nil {
						onDone(rec)
					}
				}
			}(t)
		}
		wg.Wait()
	})
	res.recs = res.recs[:min(next.Load(), uint64(len(res.recs)))]
	return res
}

// progress counts the capacity phase in durable transactions: Perform
// runs ahead of Persist until the volatile rings fill, so commits per
// window overstate what the pipeline sustains, while the durable
// frontier advances at exactly that rate — through the final drain too.
func (r *btreeRig) progress(*closedResult) uint64 { return r.p.Durable() }

// closedLoop runs transactions back to back with asynchronous
// durability, sampling how far the durable frontier trails every 64th
// commit, and waits for its last transaction to be durable before it
// returns: that wait is inside the timed interval.
func (r *btreeRig) closedLoop(thread int, st *stream, stop <-chan struct{}, out *closedConn) {
	var last uint64
	for n := 0; ; n++ {
		select {
		case <-stop:
			r.finishThread(thread, last, out)
			return
		default:
		}
		q := st.nextFor(thread)
		tid, err := r.update(thread, &q)
		if err != nil {
			out.failf("update: %v", err)
			continue
		}
		last = tid
		out.puts++
		out.done.Add(1)
		if n%traceSample == 0 {
			out.lags = append(out.lags, max(0, int64(tid)-int64(r.p.Durable())))
		}
	}
}

// finishThread waits for thread's last transaction to be durable; the
// durable frontier is a prefix, so every earlier one is too.
func (r *btreeRig) finishThread(thread int, last uint64, out *closedConn) {
	if last == 0 {
		return
	}
	if err := r.p.WaitDurable(last); err != nil {
		out.failf("WaitDurable: %v", err)
		return
	}
	for k := uint64(thread); k < r.ks.n; k += r.ks.conns {
		r.ks.acked[k] = r.ks.sent[k]
	}
}

// auditRecords reads every record of keys from pool and checks it is
// intact — all 16 words of one write — and carries a generation no
// older than the last made durable and no newer than the last sent.
func (r *btreeRig) auditRecords(pool *dudetm.Pool, keys []uint64) (lost int64, first error) {
	tree := memdb.BPlusTree{RootPtr: pool.Root(0), Heap: pool.Heap()}
	const perTx = 256
	for lo := 0; lo < len(keys); lo += perTx {
		batch := keys[lo:min(lo+perTx, len(keys))]
		var bad int64
		var why error
		err := pool.View(0, func(tx *dudetm.Tx) error {
			bad, why = 0, nil
			for _, key := range batch {
				addr, ok := tree.Get(tx, key)
				gen := uint32(0)
				intact := ok
				if ok {
					gen = uint32(tx.Load(addr + 8))
					for j := 0; j < recordWords; j++ {
						intact = intact && tx.Load(addr+uint64(j)*8) == recordWord(r.cfg.seed, key, gen, j)
					}
				}
				if !intact || gen < r.ks.acked[key] || gen > r.ks.sent[key] {
					bad++
					if why == nil {
						why = fmt.Errorf("record %d: found %v, intact %v, generation %d, durable %d, sent %d",
							key, ok, intact, gen, r.ks.acked[key], r.ks.sent[key])
					}
				}
			}
			return nil
		})
		if err != nil {
			return lost, err
		}
		lost += bad
		if first == nil {
			first = why
		}
	}
	return lost, first
}

// recoveryDrill builds the fixed backlog with library transactions —
// cfg.backlog sequentially keyed record overwrites, durable but
// unreproduced — remounts the snapshot, and audits every record.
func (r *btreeRig) recoveryDrill(m metrics, tl *tally) error {
	img, err := snapshotBacklog(r.p, func() error {
		res := &closedResult{conns: make([]closedConn, btreeThreads)}
		var wg sync.WaitGroup
		for t := 0; t < btreeThreads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				out := &res.conns[t]
				var last uint64
				for k := uint64(t); k < uint64(r.cfg.backlog); k += btreeThreads {
					r.ks.sent[k]++
					q := request{kind: opPut, key: k, gen: r.ks.sent[k]}
					tid, err := r.update(t, &q)
					if err != nil {
						out.failf("update: %v", err)
						continue
					}
					last = tid
					out.done.Add(1)
				}
				r.finishThread(t, last, out)
			}(t)
		}
		wg.Wait()
		tl.countClosed("recovery drill writes", res)
		if res.completed() != uint64(r.cfg.backlog) {
			return fmt.Errorf("%d of %d backlog transactions committed", res.completed(), r.cfg.backlog)
		}
		return nil
	})
	if err != nil {
		return err
	}
	pool, err := recoveryMetrics(r.cfg, m, img, r.opts)
	if err != nil {
		return err
	}
	defer pool.Close()
	lost, why := r.auditRecords(pool, firstKeys(int(r.ks.n)))
	tl.attempted += int64(r.ks.n)
	tl.lostAcked += lost
	tl.fail(lost, "recovery drill: %d durable records lost or torn (%v)", lost, why)
	return nil
}

func (r *btreeRig) keys() *keyspace { return r.ks }

func (r *btreeRig) latencyAttempt(label string, dur time.Duration, onDone func(*opRec)) *openResult {
	return r.runSync(label, dur, onDone)
}

// runBtree runs the tx-btree workload.
func runBtree(w *run) error {
	rig, _, err := runPhases(w, func(traced bool) (*btreeRig, error) { return startBtree(w.cfg, traced) }, mix{putFrac: 1}, recordWords*8)
	if err != nil {
		return err
	}
	defer rig.close()
	w.m.zero("wire.")
	return nil
}
