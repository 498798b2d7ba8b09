package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"

	"dudetm"
)

// Tracing from the outside (-trace 1). The benchmark records spans
// around its own calls into the program: per request a root "request"
// span from the intended send time to the acknowledgement, with
// children "gen.skew" (intended send to issue entry), "client.send"
// (issue entry to return) and "wait" (return to acknowledgement). For
// every write whose transaction the pool sampled, Pool.CritpathOf
// supplies the six commit-to-acked segments, which become children of
// "wait" laid end to end up to the acknowledgement; what is left of
// "wait" before them — its self time — is the front end nobody has
// attributed yet: socket read, the pending queue, the slot wait,
// Perform, response encode and flush, the client's read. Spans stay in
// memory until the phase ends and are written out afterwards.

// tracer collects critical paths during a traced latency phase. A nil
// tracer (the measured run) does nothing.
type tracer struct {
	dir  string
	ch   chan *opRec
	wg   sync.WaitGroup
	crit map[*opRec]dudetm.Critpath
}

func newTracer(cfg *runConfig) *tracer {
	if !cfg.trace {
		return nil
	}
	return &tracer{dir: cfg.traceDir}
}

// begin starts collecting for one phase attempt and returns the
// completion hook for runOpen. The hook runs on the goroutine that saw
// the acknowledgement, so it only hands the record over; a collector
// goroutine asks the pool for the decomposition right away, while the
// transaction's stamps are still in the trace rings.
func (t *tracer) begin(pool *dudetm.Pool) func(*opRec) {
	if t == nil {
		return nil
	}
	t.stop() // a retried phase: drop the abandoned attempt's collection
	// Sampled writes arrive at 1/64 of the request rate; the buffer
	// rides out a collector descheduled for a second or so.
	t.ch = make(chan *opRec, 1024)
	t.crit = map[*opRec]dudetm.Critpath{}
	t.wg.Add(1)
	go func(ch <-chan *opRec, crit map[*opRec]dudetm.Critpath) {
		defer t.wg.Done()
		for rec := range ch {
			if cp, ok := pool.CritpathOf(rec.tid); ok {
				crit[rec] = cp
			}
		}
	}(t.ch, t.crit)
	ch := t.ch
	return func(rec *opRec) {
		if rec.tid != 0 && rec.tid%traceSample == 0 && rec.fail == "" {
			select {
			case ch <- rec:
			default:
			}
		}
	}
}

// stop ends the running collection, if any.
func (t *tracer) stop() {
	if t.ch != nil {
		close(t.ch)
		t.wg.Wait()
		t.ch = nil
	}
}

// span is one recorded interval. Parent is the ID of the span that
// caused it (0 for a root); spans of one request share Req.
type span struct {
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // since phase start
	DurUs   float64 `json:"dur_us"`
}

// finish ends collection for the kept attempt, derives the critpath.*
// metrics (means over the sampled writes) and writes the span file.
func (t *tracer) finish(w *run, res *openResult) {
	if t == nil {
		return
	}
	t.stop()
	seg := make([]float64, len(critSegments))
	var residual float64
	for rec, cp := range t.crit {
		for i := range seg {
			seg[i] += float64(cp.Seg[i])
		}
		residual += float64(rec.done.Load()-rec.sendOut) - float64(cp.Total)
	}
	n := len(t.crit)
	for i, name := range critSegments {
		w.m.set("critpath."+name+"_ms", ratio(seg[i], float64(n))/1e6, n)
	}
	w.m.set("critpath.front_residual_ms", ratio(residual, float64(n))/1e6, n)

	var spans []span
	id := 0
	add := func(req, parent int, name string, from, to int64) int {
		id++
		spans = append(spans, span{Req: req, ID: id, Parent: parent, Name: name, StartUs: us(from), DurUs: us(to - from)})
		return id
	}
	for i := range res.recs {
		rec := &res.recs[i]
		cp, sampled := t.crit[rec]
		done := rec.done.Load()
		// Every sampled write, and every 32nd request besides: enough
		// to see the shape without a span file of hundreds of megabytes.
		if done == 0 || (!sampled && i%32 != 0) {
			continue
		}
		root := add(i, 0, "request", rec.q.at, done)
		add(i, root, "gen.skew", rec.q.at, rec.sendIn)
		add(i, root, "client.send", rec.sendIn, rec.sendOut)
		wait := add(i, root, "wait", rec.sendOut, done)
		if sampled {
			at := done - cp.Total
			for s, name := range critSegments {
				add(i, wait, name, at, at+cp.Seg[s])
				at += cp.Seg[s]
			}
		}
	}
	if err := writeJSON(filepath.Join(t.dir, "trace-"+w.name+".json"), map[string]any{
		"workload": w.name, "seed": w.cfg.seed, "phase": "latency", "sampled_writes": n, "spans": spans,
	}); err != nil {
		w.fail(1, "writing the span file: %v", err)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
