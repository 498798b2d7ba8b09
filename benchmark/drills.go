package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dudetm"
	"dudetm/internal/server"
	"dudetm/internal/wire"
)

// Crash drills: the benchmark's correctness half. Killing a process
// leaves the operating system's cache intact, so the drills go through
// the simulated device, which itself discards everything not flushed
// and fenced: Snapshot and Kill return exactly the bytes a power
// failure would leave.

// auditBatch is how many GETs one audit transaction carries.
const auditBatch = 64

// audit reads keys from the server at addr and checks each against the
// keyspace's books: the value must be intact and carry a generation no
// older than the last one acknowledged and no newer than the last one
// sent. It returns how many acknowledged writes are lost.
func audit(addr string, ks *keyspace, keys []uint64) (n int64, err error) {
	clients := make([]*server.Client, conns)
	for c := range clients {
		if clients[c], err = server.Dial(addr); err != nil {
			return 0, err
		}
		defer clients[c].Close()
	}
	lost := make([]int64, conns)
	why := make([]string, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			miss := func(n int, format string, args ...any) {
				lost[c] += int64(n)
				if why[c] == "" {
					why[c] = fmt.Sprintf(format, args...)
				}
			}
			lo := c * auditBatch
			sendErr, unanswered := windowed(clients[c], nil, func() ([]wire.Op, func(*wire.Response, error), bool) {
				if lo >= len(keys) {
					return nil, nil, false
				}
				batch := keys[lo:min(lo+auditBatch, len(keys))]
				lo += conns * auditBatch
				ops := make([]wire.Op, len(batch))
				for i, k := range batch {
					ops[i] = wire.Op{Kind: wire.OpGet, Key: k}
				}
				return ops, func(resp *wire.Response, err error) {
					if err != nil || len(resp.Results) != len(batch) {
						miss(len(batch), "audit read failed: %v", err)
						return
					}
					for i, k := range batch {
						res := &resp.Results[i]
						gen, ok := ks.checkValue(res.Val, k)
						if !res.Found || !ok || gen < ks.acked[k] || gen > ks.sent[k] {
							miss(1, "key %d: found %v, intact %v, generation %d, acked %d, sent %d", k, res.Found, ok, gen, ks.acked[k], ks.sent[k])
						}
					}
				}, true
			})
			if errs[c] = sendErr; sendErr == nil && unanswered > 0 {
				errs[c] = fmt.Errorf("%d audit reads unanswered at the drain deadline", unanswered)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	for c := range lost {
		if lost[c] > 0 && err == nil {
			err = errors.New(why[c])
		}
		n += lost[c]
	}
	return n, err
}

// firstKeys returns the keys 0..n-1.
func firstKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// auditPool serves pool, audits keys through the server, books the
// outcome under what, and stops the server and the pool.
func auditPool(what string, pool *dudetm.Pool, cfg server.Config, ks *keyspace, keys []uint64, tl *tally) error {
	n, err := serve(pool, cfg)
	if err != nil {
		pool.Close()
		return err
	}
	lost, auditErr := audit(n.addr, ks, keys)
	tl.attempted += int64(len(keys))
	tl.lostAcked += lost
	tl.fail(lost, "%s: %d acknowledged writes lost (%v)", what, lost, auditErr)
	if err := n.stop(); err != nil {
		return err
	}
	if lost == 0 {
		return auditErr
	}
	return nil
}

// mountStats is one recovery mount's figures.
type mountStats struct {
	recoverMs, mountMs        float64
	scanMs, replayMs, recycle float64
	entries                   float64
}

// mount remounts img, running crash recovery, and returns the pool and
// how long recovery took. recover_ms is scan + replay + recycle and
// excludes the mount's wall time, which is dominated by allocating the
// simulated device.
func mount(img []byte, o dudetm.Options) (*dudetm.Pool, mountStats, error) {
	t0 := time.Now()
	pool, err := dudetm.OpenSnapshot(img, o)
	if err != nil {
		return nil, mountStats{}, err
	}
	rec := pool.Stats().Recovery
	st := mountStats{
		mountMs:  ms(int64(time.Since(t0))),
		scanMs:   ms(rec.ScanNanos),
		replayMs: ms(rec.ReplayNanos),
		recycle:  ms(rec.RecycleNanos),
		entries:  float64(rec.EntriesReplayed),
	}
	st.recoverMs = st.scanMs + st.replayMs + st.recycle
	return pool, st, nil
}

// recoveryMetrics mounts img cfg.mounts times and reports each figure
// steady over the mounts — the image and the work are identical every
// time, so the least disturbed mount is the one that times recovery.
// It returns the last mount's pool for the caller to audit and close.
func recoveryMetrics(cfg *runConfig, m metrics, img []byte, o dudetm.Options) (*dudetm.Pool, error) {
	var pool *dudetm.Pool
	var all []mountStats
	for i := 0; i < cfg.mounts; i++ {
		if pool != nil {
			pool.Close()
		}
		var st mountStats
		var err error
		if pool, st, err = mount(img, o); err != nil {
			return nil, err
		}
		all = append(all, st)
	}
	med := func(f func(mountStats) float64) float64 {
		vs := make([]float64, len(all))
		for i, st := range all {
			vs[i] = f(st)
		}
		return steady(vs, "lower")
	}
	n := len(all)
	m.set("recover_ms", med(func(s mountStats) float64 { return s.recoverMs }), n)
	m.set("dudetm.recovery.mount_ms", med(func(s mountStats) float64 { return s.mountMs }), n)
	m.set("dudetm.recovery.scan_ms", med(func(s mountStats) float64 { return s.scanMs }), n)
	m.set("dudetm.recovery.replay_ms", med(func(s mountStats) float64 { return s.replayMs }), n)
	m.set("dudetm.recovery.recycle_ms", med(func(s mountStats) float64 { return s.recycle }), n)
	m.set("dudetm.recovery.entries_replayed", med(func(s mountStats) float64 { return s.entries }), n)
	return pool, nil
}

// snapshotBacklog freezes Reproduce, lets write build a fixed backlog of
// durable-but-unreproduced transactions, freezes Persist, takes the
// device snapshot a power failure at that instant would leave, and
// resumes both stages.
func snapshotBacklog(pool *dudetm.Pool, write func() error) ([]byte, error) {
	settle(pool)
	pool.PauseReproduce()
	if err := write(); err != nil {
		pool.ResumeReproduce()
		return nil, err
	}
	pool.PausePersist()
	img := pool.Snapshot()
	pool.ResumePersist()
	pool.ResumeReproduce()
	return img, nil
}

// recoveryDrill is drill 1: a fixed backlog of cfg.backlog sequentially
// keyed, acknowledged PUTs sits in the log unreproduced when the
// snapshot is taken; the remount must replay all of it, and every one
// of those keys must read back at its acknowledged generation.
func (r *kvRig) recoveryDrill(m metrics, tl *tally) error {
	keys := firstKeys(r.cfg.backlog)
	img, err := snapshotBacklog(r.pool(), func() error {
		res := &closedResult{conns: make([]closedConn, conns)}
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r.putAll(c, keys, &res.conns[c])
			}(c)
		}
		wg.Wait()
		tl.countClosed("recovery drill writes", res)
		if res.completed() != uint64(len(keys)) {
			return fmt.Errorf("%d of %d backlog writes acknowledged", res.completed(), len(keys))
		}
		return nil
	})
	if err != nil {
		return err
	}
	pool, err := recoveryMetrics(r.cfg, m, img, r.mountOptions())
	if err != nil {
		return err
	}
	return auditPool("recovery drill", pool, server.Config{}, r.ks, keys, tl)
}

// mountOptions are the options an image of the primary is remounted
// with: the primary's own, minus the replication it no longer has.
func (r *kvRig) mountOptions() dudetm.Options {
	o := r.opts
	o.ReplFactor, o.ReplQuorum = 0, 0
	return o
}

// putAll writes the next generation of conn's share of keys, in order,
// through the closed-loop window.
func (r *kvRig) putAll(conn int, keys []uint64, out *closedConn) {
	i := 0
	r.drive(conn, nil, out, func() (request, bool) {
		for ; i < len(keys); i++ {
			if k := keys[i]; r.ks.connOf(k) == conn {
				i++
				r.ks.sent[k]++
				return request{kind: opPut, key: k, gen: r.ks.sent[k]}, true
			}
		}
		return request{}, false
	})
}

// powerFailDrill is drill 2: the capacity generator runs again and the
// plug is pulled mid-flight. Requests in flight at that instant may
// fail — that is the drill — but every write acknowledged at any point
// of the run must be in the remounted image at no older a generation.
func (r *kvRig) powerFailDrill(tl *tally) error {
	res := &closedResult{conns: make([]closedConn, conns)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stream{r: newRNG(r.ks.seed, fmt.Sprintf("powerfail/%d", c)), ks: r.ks, mix: r.shape.mix}
			r.closedLoop(c, st, stop, &res.conns[c])
		}(c)
	}
	time.Sleep(r.cfg.killAfter)
	img := r.pri.srv.Kill()
	r.killed = true
	<-r.pri.served
	close(stop)
	wg.Wait()
	if res.completed() == 0 {
		return errors.New("no write was acknowledged before the kill")
	}

	pool, _, err := mount(img, r.mountOptions())
	if err != nil {
		return err
	}
	return auditPool("power-failure drill", pool, server.Config{}, r.ks, firstKeys(int(r.ks.n)), tl)
}

// replicaDrill is drill 3: once the primary has drained, the replica
// must have reproduced up to the primary's acknowledged frontier, and a
// seeded sample of keys must read back, through a read-only server, at
// the generation the primary acknowledged. The reads go to the
// replica's image remounted — the promotion path — because a live
// replica's own server answers from the shadow memory it mounted with,
// which ingest never updates (see README.md, hazards).
func (r *kvRig) replicaDrill(tl *tally) error {
	frontier := r.pool().AckFrontier()
	rp := r.rep.pool
	deadline := time.Now().Add(drainTimeout)
	for rp.Reproduced() < frontier {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica reproduced %d, primary acknowledged %d", rp.Reproduced(), frontier)
		}
		time.Sleep(time.Millisecond)
	}
	rp.PauseReproduce()
	rp.PausePersist()
	img := rp.Snapshot()
	rp.ResumePersist()
	rp.ResumeReproduce()
	pool, _, err := mount(img, r.mountOptions())
	if err != nil {
		return err
	}
	rng := newRNG(r.ks.seed, "replica-sample")
	keys := make([]uint64, min(1000, int(r.ks.n)))
	for i := range keys {
		keys[i] = rng.intn(r.ks.n)
	}
	if err := auditPool("replica drill", pool, server.Config{ReadOnly: true}, r.ks, keys, tl); err != nil {
		return err
	}
	return r.replHealthy()
}
