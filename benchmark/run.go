package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// run is one workload's execution: its configuration, the metrics it
// has measured so far, and its account of operations.
type run struct {
	cfg  *runConfig
	name string
	m    metrics
	tally
	tr *tracer
	// windows keeps each phase's windows for the -out report.
	windows map[string][]window
	// stages says where the run's time went, for tuning it to the
	// driver's cap: name and seconds, in order.
	stages    []string
	stageFrom time.Time
	// noisy reports that a phase was still short of quiet windows after
	// its retry: its wall-clock metrics then cover every window, and a
	// comparison involving them is unresolved rather than valid.
	noisy bool
}

// stage closes the stage that has been running since the last call.
func (w *run) stage(name string) {
	now := time.Now()
	w.stages = append(w.stages, fmt.Sprintf("%s %.1f s", name, now.Sub(w.stageFrom).Seconds()))
	w.stageFrom = now
}

// rig is a workload's system under test, as the phase sequence every
// workload shares sees it.
type rig interface {
	target
	// latencyAttempt runs the workload's latency phase, or a lead-in of
	// the same shape, for dur; label seeds its inputs.
	latencyAttempt(label string, dur time.Duration, onDone func(*opRec)) *openResult
	keys() *keyspace
	recoveryDrill(m metrics, tl *tally) error
	close()
}

// runPhases is the sequence every workload shares: on a traced run an
// untraced rig first, for the CPU cost per operation that tracing is
// compared against; then set-up, warm-up, the latency phase, the
// capacity phase and the recovery drill. It returns the rig, still
// running, for the workload's own drills, and the latency phase's
// result. start builds a rig, traced or not.
func runPhases[R rig](w *run, start func(traced bool) (R, error), mx mix, bytesPerPut uint64) (r R, lat *openResult, err error) {
	cfg, p := w.cfg, w.cfg.plan()
	var untracedCPU float64
	if cfg.trace {
		base, err := start(false)
		if err != nil {
			return r, nil, fmt.Errorf("set-up (untraced baseline): %w", err)
		}
		base.latencyAttempt("warmup", cfg.warmup, nil)
		res := base.latencyAttempt("baseline", p.baseline, nil)
		w.countOpen("untraced baseline", res)
		m := metrics{}
		latencyMetrics(m, res, quietFrac(res.windows) < 0.5) // no retry here: take the cleanest windows there are
		untracedCPU = m["cpu_us_per_op"].V
		base.close()
		w.stage("untraced baseline")
	}

	if r, err = setUp(w, func() (R, error) { return start(cfg.trace) }); err != nil {
		return r, nil, err
	}
	w.attempted += int64(r.keys().n) * int64(w.m["setup_s"].N)
	w.stage("set-up")
	r.latencyAttempt("warmup", cfg.warmup, nil)

	lat, latLayers := w.latencyPhase(r, p.latency, bytesPerPut)
	if cfg.trace {
		w.m.set("obs.trace_overhead_frac", ratio(w.m["cpu_us_per_op"].V, untracedCPU)-1, len(lat.recs))
	}
	w.stage("warm-up and latency phase")
	_, satLayers := w.capacityPhase(r, r.keys(), mx, p.capacity, bytesPerPut)
	mergeLayers(w.m, latLayers, satLayers)
	w.stage("capacity phase")

	if err := r.recoveryDrill(w.m, &w.tally); err != nil {
		r.close()
		return r, nil, fmt.Errorf("recovery drill: %w", err)
	}
	w.stage("recovery drill")
	return r, lat, nil
}

// setUp times the workload's set-up, several times over, and reports the
// median as setup_s: twice, and a third time when the two disagree by
// more than a tenth (when they agree their mean is the figure, and the
// driver's time is better spent measuring). It returns the last rig
// built, having closed the others.
func setUp[R rig](w *run, start func() (R, error)) (rig R, err error) {
	var took []float64
	for len(took) < w.cfg.setups {
		if len(took) > 0 {
			rig.close()
		}
		t0 := time.Now()
		if rig, err = start(); err != nil {
			return rig, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		if len(took) == 2 && math.Abs(took[0]-took[1]) <= 0.1*min(took[0], took[1]) {
			break
		}
	}
	w.m.set("setup_s", median(took), len(took))
	return rig, nil
}

// latencyPhase runs the workload's latency phase under the quiet rule —
// retried once when under half its windows were quiet — then derives the
// client-side metrics and the phase's layer metrics from the attempt
// that was kept.
func (w *run) latencyPhase(r rig, dur time.Duration, bytesPerPut uint64) (*openResult, metrics) {
	var res *openResult
	noisy := measureQuiet(func(n int) []window {
		res = r.latencyAttempt(fmt.Sprintf("latency/%d", n), dur, w.tr.begin(r.pool()))
		w.countOpen("latency phase", res)
		return res.windows
	}, func() { waitQuiet(w.cfg.host, w.cfg.maxIdle) })
	w.noisy = w.noisy || noisy
	latencyMetrics(w.m, res, noisy)
	w.windows["latency"] = res.windows
	var puts uint64
	for i := range res.recs {
		if res.recs[i].q.kind == opPut {
			puts++
		}
	}
	layers := layerMetrics(phaseDelta{before: res.before, after: res.after,
		ops: uint64(len(res.recs)), userBytes: puts * bytesPerPut, gauges: res.gauges, windows: res.windows})
	w.tr.finish(w, res)
	return res, layers
}

// capacityPhase runs the workload's closed-loop phase under the same
// quiet rule and derives sat_ops_per_s and the phase's layer metrics.
func (w *run) capacityPhase(t target, ks *keyspace, mx mix, dur time.Duration, bytesPerPut uint64) (*closedResult, metrics) {
	var res *closedResult
	noisy := measureQuiet(func(attempt int) []window {
		res = runClosed(t, w.cfg.host, ks, mx, fmt.Sprintf("capacity/%d", attempt), dur)
		w.countClosed("capacity phase", res)
		return res.windows
	}, func() { waitQuiet(w.cfg.host, w.cfg.maxIdle) })
	w.noisy = w.noisy || noisy
	capacityMetrics(w.m, res, noisy)
	w.windows["capacity"] = res.windows
	var puts uint64
	var lags []int64
	for i := range res.conns {
		puts += res.conns[i].puts
		lags = append(lags, res.conns[i].lags...)
	}
	// Only the library workload can see how far the durable frontier
	// trails a commit; from outside the server there are no samples.
	slices.Sort(lags)
	w.m.set("dudetm.durable_lag_tx_p50", float64(quantile(lags, 0.5)), len(lags))
	layers := layerMetrics(phaseDelta{before: res.before, after: res.after,
		ops: res.completed(), userBytes: puts * bytesPerPut, gauges: res.gauges, windows: res.windows})
	return res, layers
}

// finish closes the workload's books: the failure metrics, then the
// check that every metric this kind of run declares was measured.
func (w *run) finish() error {
	w.m.set("client.failed_frac", ratio(float64(w.failed), float64(w.attempted)), int(w.attempted))
	w.m.set("drill.lost_acked", float64(w.lostAcked), int(w.attempted))
	specs := endToEnd
	if w.cfg.trace {
		specs = perLayer
	}
	if miss := w.m.missing(specs); len(miss) > 0 {
		return fmt.Errorf("declared metrics not measured: %v", miss)
	}
	return nil
}
