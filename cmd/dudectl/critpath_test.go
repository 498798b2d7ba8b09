package main

import "testing"

// TestDiffCritpath pins the interval arithmetic of `dudectl critpath`:
// critpath counters subtract, a counter that went backwards (the
// server restarted between scrapes) reads 0 rather than negative, and
// the gauges the rendering needs pass through from the later scrape.
func TestDiffCritpath(t *testing.T) {
	const fence = `dudetm_critpath_segment_seconds_total{segment="persist_fence"}`
	prev := map[string]float64{
		"dudetm_critpath_txns_total":       100,
		"dudetm_critpath_e2e_seconds_sum":  2.5,
		fence:                              1.0,
		"dudetm_critpath_incomplete_total": 7,
		"dudetm_trace_sample_every":        64,
		"dudetm_repl_quorum":               2,
	}
	cur := map[string]float64{
		"dudetm_critpath_txns_total":       160,
		"dudetm_critpath_e2e_seconds_sum":  4.0,
		fence:                              1.75,
		"dudetm_critpath_incomplete_total": 3, // reset across a restart
		"dudetm_trace_sample_every":        16,
		"dudetm_repl_quorum":               1,
	}
	got := diffCritpath(cur, prev)
	want := map[string]float64{
		"dudetm_critpath_txns_total":       60,
		"dudetm_critpath_e2e_seconds_sum":  1.5,
		fence:                              0.75,
		"dudetm_critpath_incomplete_total": 0,
		"dudetm_trace_sample_every":        16,
		"dudetm_repl_quorum":               1,
	}
	if len(got) != len(want) {
		t.Errorf("diff has %d series, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s = %v (present %v), want %v", k, g, ok, w)
		}
	}
}
