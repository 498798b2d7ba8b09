package main

import (
	"fmt"
	"time"

	"dudetm/internal/wire"
)

// The kv-* workloads: the service over loopback TCP.

// kvShape is what distinguishes the three KV workloads.
type kvShape struct {
	rate       float64 // latency-phase arrival rate, requests/s
	mix        mix
	replicated bool
	powerFail  bool // run the power-failure-under-load drill
}

func kvShapeOf(cfg *runConfig, name string) kvShape {
	switch name {
	case "kv-read-mostly":
		return kvShape{rate: readRate, mix: mix{putFrac: readPutFrac, zipf: newZipf(cfg.keys, zipfTheta)}}
	case "kv-put-repl":
		return kvShape{rate: putRate, mix: mix{putFrac: 1}, replicated: true}
	default:
		return kvShape{rate: putRate, mix: mix{putFrac: 1}, powerFail: true}
	}
}

// wireOp builds q's wire operation; val is the caller's scratch for the
// value bytes (GoFn encodes before it returns, so it can be reused).
func (r *kvRig) wireOp(q *request, val []byte) wire.Op {
	if q.kind == opGet {
		return wire.Op{Kind: wire.OpGet, Key: q.key}
	}
	r.ks.fillValue(val, q.key, q.gen)
	return wire.Op{Kind: wire.OpPut, Key: q.key, Val: val}
}

// check verifies one response against its request: a PUT must be
// acknowledged durable, a GET must return exactly the value of the
// generation the request expects. An acknowledged PUT advances the
// key's acked generation.
func (r *kvRig) check(q *request, resp *wire.Response, err error) (tid uint64, fail string) {
	switch {
	case err != nil:
		return 0, err.Error()
	case len(resp.Results) != 1:
		return 0, fmt.Sprintf("%d results for one op", len(resp.Results))
	case q.kind == opPut:
		if !resp.Durable || resp.Tid == 0 {
			return 0, "write acknowledged without durability"
		}
		r.ks.acked[q.key] = q.gen
		return resp.Tid, ""
	}
	res := &resp.Results[0]
	if !res.Found {
		return 0, fmt.Sprintf("wrong read: key %d not found", q.key)
	}
	if gen, ok := r.ks.checkValue(res.Val, q.key); !ok || gen != q.gen {
		return 0, fmt.Sprintf("wrong read: key %d returned generation %d (intact %v), want %d", q.key, gen, ok, q.gen)
	}
	return 0, ""
}

func (r *kvRig) issue(conn int, q *request, done func(tid uint64, fail string)) {
	var val [valueBytes]byte
	ops := []wire.Op{r.wireOp(q, val[:])}
	err := r.clients[conn].GoFn(ops, false, func(resp *wire.Response, err error) {
		done(r.check(q, resp, err))
	})
	if err != nil {
		done(0, "send: "+err.Error())
	}
}

func (r *kvRig) progress(res *closedResult) uint64 { return res.completed() }

func (r *kvRig) closedLoop(conn int, st *stream, stop <-chan struct{}, out *closedConn) {
	r.drive(conn, stop, out, func() (request, bool) { return st.nextFor(conn), true })
}

// drive sends the requests next yields through conn's closed-loop
// window, checks each response and books the outcomes into out.
func (r *kvRig) drive(conn int, stop <-chan struct{}, out *closedConn, next func() (request, bool)) {
	val := make([]byte, valueBytes)
	var puts, failed uint64
	var why string
	sendErr, unanswered := windowed(r.clients[conn], stop, func() ([]wire.Op, func(*wire.Response, error), bool) {
		q, ok := next()
		if !ok {
			return nil, nil, false
		}
		return []wire.Op{r.wireOp(&q, val)}, func(resp *wire.Response, err error) {
			if _, fail := r.check(&q, resp, err); fail != "" {
				failed++
				if why == "" {
					why = fail
				}
				return
			}
			out.done.Add(1)
			if q.kind == opPut {
				puts++
			}
		}, true
	})
	if sendErr != nil {
		out.failf("send: %v", sendErr)
	}
	if unanswered > 0 {
		// Handlers may still be running; their counters stay unread.
		out.failf("%d requests unanswered at the drain deadline", unanswered)
		out.failed += uint64(unanswered - 1)
		return
	}
	out.puts = puts
	out.failed += failed
	if out.why == "" {
		out.why = why
	}
}

func (r *kvRig) keys() *keyspace { return r.ks }

func (r *kvRig) latencyAttempt(label string, dur time.Duration, onDone func(*opRec)) *openResult {
	reqs := openLoop(r.cfg.seed, label, r.ks, r.shape.mix, r.shape.rate, int64(dur))
	return runOpen(r, r.issue, r.cfg.host, reqs, dur, onDone)
}

// runKV runs one kv-* workload.
func runKV(w *run) error {
	shape := kvShapeOf(w.cfg, w.name)
	const bytesPerPut = valueBytes + 8 // the payload a PUT carries: value plus key
	rig, lat, err := runPhases(w, func(traced bool) (*kvRig, error) { return startKV(w.cfg, traced, shape, true) }, shape.mix, bytesPerPut)
	if err != nil {
		return err
	}
	defer rig.close()
	wireBytes(w.m, rig.ks, lat.recs)
	if err := rig.replHealthy(); err != nil {
		return err
	}
	if shape.powerFail {
		if err := rig.powerFailDrill(&w.tally); err != nil {
			return fmt.Errorf("power-failure drill: %w", err)
		}
	}
	if shape.replicated {
		if err := rig.replicaDrill(&w.tally); err != nil {
			return fmt.Errorf("replica drill: %w", err)
		}
	}
	return nil
}
