package main

import (
	"strings"
	"testing"
)

// syntheticOpen builds a latency-phase result by hand: n requests per
// window, evenly spaced, each with the latency latOf gives it.
func syntheticOpen(ws []window, perWindow int, latOf func(win, i int) int64) *openResult {
	res := &openResult{observed: observed{windows: ws}, recs: make([]opRec, len(ws)*perWindow)}
	for w := range ws {
		for i := 0; i < perWindow; i++ {
			r := &res.recs[w*perWindow+i]
			r.q.at = ws[w].start + int64(i)*(ws[w].end-ws[w].start)/int64(perWindow)
			r.sendIn, r.sendOut = r.q.at+1000, r.q.at+2000
			if lat := latOf(w, i); lat > 0 {
				r.done.Store(r.q.at + lat)
			}
		}
	}
	return res
}

// TestLatencyOverQuietWindows: timing quantiles come from the quiet
// windows only, steady over the per-window quantiles; a noisy phase
// falls back to the quarter of its windows with the least steal.
func TestLatencyOverQuietWindows(t *testing.T) {
	ws := windowsOf(true, false, true, true)
	res := syntheticOpen(ws, 100, func(win, i int) int64 {
		base := int64(1e6) // 1 ms in the quiet windows
		if win == 1 {
			base = 50e6 // the stolen second
		}
		return base + int64(i)*1e4 // 1.00 .. 1.99 ms
	})
	m := metrics{}
	latencyMetrics(m, res, false)
	if got := m["lat_p50_ms"]; got.V < 1.4 || got.V > 1.6 || got.N != 300 {
		t.Errorf("lat_p50_ms = %+v, want about 1.5 ms over the 300 quiet samples", got)
	}
	if got := m["lat_p90_ms"].V; got < 1.8 || got > 2.0 {
		t.Errorf("lat_p90_ms = %v, want about 1.9 ms", got)
	}
	if got := m["client.p90_worst_window_ms"].V; got < 50 {
		t.Errorf("client.p90_worst_window_ms = %v, want the stolen window's ~51.9 ms", got)
	}
	// The SLO account is over every request, noisy windows included.
	if got := m["client.slo_miss_frac"].V; got != 0.25 {
		t.Errorf("client.slo_miss_frac = %v, want 0.25", got)
	}

	// Every window noisy and the phase flagged: the quarter of the
	// windows with the least steal is what gets used.
	ws = windowsOf(false, false, false, false, false, false, false, false)
	ws[5].steal, ws[6].steal = 0.03, 0.05
	res = syntheticOpen(ws, 100, func(win, i int) int64 {
		switch win {
		case 5:
			return 2e6
		case 6:
			return 3e6
		}
		return 50e6
	})
	m = metrics{}
	latencyMetrics(m, res, true)
	if got := m["lat_p50_ms"]; got.V != 2 || got.N != 200 {
		t.Errorf("noisy phase: lat_p50_ms = %+v, want 2 ms (the better of the two least-stolen windows) over their 200 samples", got)
	}
}

// TestFailureAccounting: a request unanswered at the drain deadline, an
// error response and a wrong read all count as failed, are charged the
// drain timeout as latency, and miss the SLO.
func TestFailureAccounting(t *testing.T) {
	res := syntheticOpen(windowsOf(true), 10, func(_, i int) int64 {
		if i == 3 {
			return 0 // a drain straggler: never answered
		}
		return 1e6
	})
	res.recs[5].fail = "wrong read: key 5 returned generation 1 (intact true), want 2"
	res.recs[6].fail = "server: replica is read-only"

	var tl tally
	tl.countOpen("latency phase", res)
	if tl.attempted != 10 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 10 and 3", tl.attempted, tl.failed)
	}
	if len(tl.why) != 1 || !strings.Contains(tl.why[0], "unanswered") {
		t.Errorf("reasons %q, want the first failure (the straggler) named", tl.why)
	}
	for _, i := range []int{3, 5, 6} {
		if ns, ok := res.recs[i].latency(); ok || ns != int64(drainTimeout) {
			t.Errorf("request %d: latency %d ok %v, want the drain timeout and not ok", i, ns, ok)
		}
	}
	m := metrics{}
	latencyMetrics(m, res, false)
	if got := m["client.slo_miss_frac"].V; got != 0.3 {
		t.Errorf("client.slo_miss_frac = %v, want 0.3 (failures miss any limit)", got)
	}

	closed := &closedResult{conns: make([]closedConn, 2)}
	closed.conns[0].done.Store(100)
	closed.conns[1].done.Store(50)
	closed.conns[1].failf("wrong read: key %d", 9)
	closed.conns[1].failed += 2
	tl = tally{}
	tl.countClosed("capacity phase", closed)
	if tl.attempted != 153 || tl.failed != 3 {
		t.Errorf("closed loop: attempted %d failed %d, want 153 and 3", tl.attempted, tl.failed)
	}

	w := &run{cfg: newRunConfig(1, 1, false, true, t.TempDir()), m: metrics{}, windows: map[string][]window{}, tally: tally{attempted: 1000, failed: 3, lostAcked: 1}}
	for _, s := range endToEnd {
		w.m.set(s.Name, 1, 1)
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	if got := w.m["client.failed_frac"].V; got != 0.003 {
		t.Errorf("client.failed_frac = %v, want 0.003", got)
	}
	if got := w.m["drill.lost_acked"].V; got != 1 {
		t.Errorf("drill.lost_acked = %v, want 1", got)
	}
}

// TestMissingMetricIsAnError: a declared metric a workload did not
// measure fails the workload instead of leaving a silent gap.
func TestMissingMetricIsAnError(t *testing.T) {
	for _, trace := range []bool{false, true} {
		specs := endToEnd
		if trace {
			specs = perLayer
		}
		w := &run{cfg: newRunConfig(1, 1, trace, true, t.TempDir()), m: metrics{}}
		for _, s := range specs {
			w.m.set(s.Name, 1, 1)
		}
		if err := w.finish(); err != nil {
			t.Errorf("trace %v, all metrics present: %v", trace, err)
		}
		gone := specs[len(specs)/2].Name
		delete(w.m, gone)
		if err := w.finish(); err == nil || !strings.Contains(err.Error(), gone) {
			t.Errorf("trace %v, %s missing: error %v, want it named", trace, gone, err)
		}
	}
	m := metrics{}
	m.zero("repl.", "wire.")
	for _, s := range perLayer {
		_, set := m[s.Name]
		if want := strings.HasPrefix(s.Name, "repl.") || strings.HasPrefix(s.Name, "wire."); set != want {
			t.Errorf("zero(repl., wire.): %s set = %v", s.Name, set)
		}
	}
}

// TestCapacityOverQuietWindows: completions in quiet windows over quiet
// time; CPU likewise.
func TestCapacityOverQuietWindows(t *testing.T) {
	ws := windowsOf(true, false, true, true)
	for i, done := range []uint64{1000, 100, 1200, 1100} {
		ws[i].done = done
		ws[i].cpu = int64(done) * 2000 // 2 us per operation
	}
	ws[1].cpu = 1e9 // a stolen window's CPU reading is junk
	m := metrics{}
	capacityMetrics(m, &closedResult{observed: observed{windows: ws}}, false)
	if got := m["sat_ops_per_s"]; got.V != 1100 || got.N != 3300 {
		t.Errorf("sat_ops_per_s = %+v, want 3300 completions over 3 quiet seconds", got)
	}
	if got := m["sat.cpu_us_per_op"].V; got != 2 {
		t.Errorf("sat.cpu_us_per_op = %v, want 2", got)
	}
}

func TestSteady(t *testing.T) {
	seven := []float64{7, 1, 6, 2, 5, 3, 4}
	if got := steady(append([]float64(nil), seven...), "lower"); got != 2 {
		t.Errorf("steady(1..7, lower) = %v, want 2 (the second smallest)", got)
	}
	if got := steady(append([]float64(nil), seven...), "higher"); got != 6 {
		t.Errorf("steady(1..7, higher) = %v, want 6", got)
	}
	if got := steady([]float64{9, 3, 5}, "lower"); got != 3 {
		t.Errorf("steady of three = %v, want the best", got)
	}
	if got := steady(nil, "lower"); got != 0 {
		t.Errorf("steady of none = %v", got)
	}
}

func TestPlanSplitsSeconds(t *testing.T) {
	for _, c := range []struct {
		seconds    int
		trace      bool
		b, l, capS int
	}{
		{21, false, 0, 15, 6}, // the design's own proportion
		{10, false, 0, 7, 3},
		{1, false, 0, 1, 1},
		{10, true, 2, 6, 2},
	} {
		p := newRunConfig(1, c.seconds, c.trace, false, "").plan()
		if int(p.baseline.Seconds()) != c.b || int(p.latency.Seconds()) != c.l || int(p.capacity.Seconds()) != c.capS {
			t.Errorf("%d s, trace %v: plan %+v, want baseline %d latency %d capacity %d", c.seconds, c.trace, p, c.b, c.l, c.capS)
		}
	}
}
