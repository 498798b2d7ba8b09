package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"dudetm/internal/obs"
)

// fixture is a small healthy exposition: every series the top view
// reads and the critpath view's scalars, a few of them under # TYPE
// declarations (one a histogram carried by its _count alone).
// scrapeOf adds the critpath segment series.
const fixture = `# TYPE dudetm_clock_tid gauge
dudetm_clock_tid 1
dudetm_durable_tid 1
dudetm_reproduced_tid 1
# TYPE dudetm_stage_busy_seconds_total counter
dudetm_stage_busy_seconds_total{stage="persist"} 1
dudetm_stage_busy_seconds_total{stage="reproduce"} 1
dudetm_stage_queue_depth{stage="persist"} 1
dudetm_stage_queue_depth{stage="reproduce"} 1
dudetm_stage_workers{stage="persist"} 1
dudetm_stage_workers{stage="reproduce"} 1
dudetm_stage_groups_total{stage="persist"} 1
dudetm_stage_groups_total{stage="reproduce"} 1
dudetm_stage_fences_total{stage="persist"} 1
dudetm_stage_fences_total{stage="reproduce"} 1
# TYPE dudetm_commit_durable_seconds histogram
dudetm_commit_durable_seconds_count 1
dudetm_commit_durable_latency_seconds{quantile="0.5"} 1
dudetm_commit_durable_latency_seconds{quantile="0.99"} 1
dudetm_commit_durable_latency_seconds{quantile="0.999"} 1
dudetm_commit_reproduced_latency_seconds{quantile="0.99"} 1
dudetm_trace_sampled_total 1
dudetm_watchdog_stalls_total 1
# TYPE dudesrv_requests_total counter
dudesrv_connections_total 1
dudesrv_requests_total 1
dudesrv_acked_writes_total 1
dudesrv_offered_requests_total 1
dudesrv_served_responses_total 1
dudetm_region_flushed_bytes_total{region="log"} 1
dudetm_repl_peers 1
dudetm_repl_peers_connected 1
dudetm_repl_quorum 1
dudetm_repl_quorum_state 1
dudetm_repl_acked_tid 1
dudetm_repl_frontier_lag 1
dudetm_repl_ack_latency_seconds{quantile="0.99"} 1
dudetm_repl_wire_bytes_total 1
dudetm_recovery_runs_total 1
dudetm_recovery_replay_seconds 1
dudetm_recovery_groups_replayed 1
dudetm_recovery_entries_replayed 1
dudetm_recovery_bytes_replayed 1
dudetm_critpath_txns_total 1
dudetm_critpath_incomplete_total 1
dudetm_critpath_dropped_total 1
dudetm_critpath_e2e_seconds_sum 1
dudetm_trace_sample_every 1
`

// scrapeOf parses the fixture, one segment series per critpath
// segment and extra lines, then sets every sample to v and applies the
// edits.
func scrapeOf(t *testing.T, extra string, v float64, edits map[string]float64) obs.Scrape {
	t.Helper()
	text := fixture
	for seg := obs.CritSegment(0); seg < obs.NumCritSegments; seg++ {
		text += `dudetm_critpath_segment_seconds_total{segment="` + seg.String() + `"} 1` + "\n"
	}
	sc, err := obs.ParseProm(strings.NewReader(text + extra))
	if err != nil {
		t.Fatal(err)
	}
	for s := range sc.Series {
		sc.Series[s] = v
	}
	for s, x := range edits {
		sc.Series[s] = x
	}
	return sc
}

func without(sc obs.Scrape, series string) obs.Scrape {
	delete(sc.Series, series)
	return sc
}

func TestCheckScrapes(t *testing.T) {
	const tick = 100 * time.Millisecond
	healthy := func(v float64) obs.Scrape { return scrapeOf(t, "", v, nil) }
	one := func(series string, v float64) obs.Scrape {
		return scrapeOf(t, "", 1, map[string]float64{series: v})
	}
	cases := []struct {
		name          string
		first, second obs.Scrape
		elapsed       time.Duration
		want          string // the first problem; "" = healthy
	}{
		{"healthy", healthy(1), healthy(5), tick, ""},
		// The endpoint declares a family it writes no sample for.
		{"declared family without sample", scrapeOf(t, "# TYPE dudesrv_failed_acks_total counter\n", 1, nil), healthy(1), tick,
			"counter family dudesrv_failed_acks_total has no sample"},
		{"NaN", one("dudetm_durable_tid", math.NaN()), healthy(1), tick, "dudetm_durable_tid = NaN"},
		{"+Inf", one("dudetm_durable_tid", math.Inf(1)), healthy(1), tick, "dudetm_durable_tid = +Inf"},
		{"-Inf", one("dudetm_durable_tid", math.Inf(-1)), healthy(1), tick, "dudetm_durable_tid = -Inf"},
		// A series the view renders was renamed away: the replication
		// line does not print on this fixture's first scrape, but its
		// series are read all the same.
		{"missing rendered series", healthy(1), without(healthy(1), "dudetm_repl_peers_connected"), tick,
			"top view reads missing series dudetm_repl_peers_connected"},
		{"missing rate series", healthy(1), without(healthy(1), "dudesrv_offered_requests_total"), tick,
			"top view reads missing series dudesrv_offered_requests_total"},
		{"missing stage busy time", healthy(1), without(healthy(1), `dudetm_stage_busy_seconds_total{stage="reproduce"}`), tick,
			`top view reads missing series dudetm_stage_busy_seconds_total{stage="reproduce"}`},
		// dudectl critpath would rank a renamed segment as 0.
		{"missing critpath segment", healthy(1), without(healthy(5), `dudetm_critpath_segment_seconds_total{segment="persist_fence"}`), tick,
			`critpath view reads missing series dudetm_critpath_segment_seconds_total{segment="persist_fence"}`},
		// Read even in a window with no sampled transactions, where the
		// table is not printed.
		{"missing critpath segment, quiet window", healthy(1), without(healthy(1), `dudetm_critpath_segment_seconds_total{segment="notify"}`), tick,
			`critpath view reads missing series dudetm_critpath_segment_seconds_total{segment="notify"}`},
		// A counter that reads +Inf on the second scrape only has an
		// infinite rate.
		{"bad rate", healthy(1), one("dudesrv_requests_total", math.Inf(1)), tick,
			"rate(dudesrv_requests_total) = +Inf"},
		// A restart between the scrapes resets every counter: the rates
		// clamp to 0 instead of going negative.
		{"counter reset", healthy(1000), healthy(0), tick, ""},
		// Scrapes no time apart, or a clock step backwards, must not
		// divide into an Inf or NaN rate.
		{"zero elapsed", healthy(1), healthy(5), 0, ""},
		{"negative elapsed", healthy(1), healthy(5), -time.Second, ""},
	}
	for _, c := range cases {
		p := checkScrapes(c.first, c.second, c.elapsed)
		switch {
		case c.want == "" && len(p) != 0:
			t.Errorf("%s: problems %q, want none", c.name, p)
		case c.want != "" && (len(p) == 0 || p[0] != c.want):
			t.Errorf("%s: problems %q, want first %q", c.name, p, c.want)
		}
	}
}

// TestTopUtilIsIntervalRate renders the stage lines over two scrapes a
// second apart: util is the busy-time rate per worker over that second,
// whatever the lifetime utilization gauge reads, and the first sample,
// with no interval yet, shows none.
func TestTopUtilIsIntervalRate(t *testing.T) {
	const (
		busyPersist   = `dudetm_stage_busy_seconds_total{stage="persist"}`
		busyReproduce = `dudetm_stage_busy_seconds_total{stage="reproduce"}`
		lifetime      = "# TYPE dudetm_stage_utilization gauge\n" +
			`dudetm_stage_utilization{stage="persist"} 1` + "\n" +
			`dudetm_stage_utilization{stage="reproduce"} 1` + "\n"
	)
	first := scrapeOf(t, lifetime, 1, map[string]float64{
		busyPersist: 10, busyReproduce: 3, `dudetm_stage_workers{stage="persist"}`: 2,
		`dudetm_stage_utilization{stage="persist"}`: 0.001, `dudetm_stage_utilization{stage="reproduce"}`: 0.9,
	})
	second := scrapeOf(t, lifetime, 1, map[string]float64{
		busyPersist: 10.5, busyReproduce: 3, `dudetm_stage_workers{stage="persist"}`: 2,
		`dudetm_stage_utilization{stage="persist"}`: 0.001, `dudetm_stage_utilization{stage="reproduce"}`: 0.9,
	})
	render := func(cur, prev obs.Scrape) string {
		v := topView{seriesReader: seriesReader{view: "top", cur: cur.Series}, prev: prev.Series, elapsed: time.Second}
		var b strings.Builder
		v.render(&b, "", 1)
		if len(v.problems) != 0 {
			t.Fatalf("problems %q", v.problems)
		}
		return b.String()
	}
	out := render(second, first)
	for _, want := range []string{
		"persist     util  25.0%   queue 1   workers 2", // 0.5 s busy / 1 s / 2 workers
		"reproduce   util   0.0%   queue 1   workers 1", // idle over the interval
	} {
		if !strings.Contains(out, want) {
			t.Errorf("two-scrape view lacks %q:\n%s", want, out)
		}
	}
	if out := render(first, obs.Scrape{}); !strings.Contains(out, "persist     util     -   queue") {
		t.Errorf("first sample shows a util figure without an interval:\n%s", out)
	}
}
