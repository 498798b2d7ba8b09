package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"dudetm/internal/obs"
	"dudetm/internal/server"
)

// rateSeries are the monotone counters whose scrape-to-scrape rates the
// live view renders and -check validates. A dudesrv restart between two
// scrapes resets them to zero; rate() clamps the negative delta so the
// view (and the -check gate) never reports a negative or non-finite
// rate across a restart.
var rateSeries = []string{
	"dudesrv_requests_total",
	"dudesrv_acked_writes_total",
	"dudesrv_offered_requests_total",
	"dudesrv_served_responses_total",
	"dudetm_durable_tid",
	`dudetm_region_flushed_bytes_total{region="log"}`,
}

// rate converts two counter samples into a per-second rate. Counter
// resets (server restart between scrapes) show up as a negative delta:
// the pre-reset baseline is meaningless, so the rate is reported as 0
// rather than a negative or wrapped value. A non-positive elapsed time
// also yields 0 instead of Inf/NaN.
func rate(cur, prev map[string]float64, name string, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	delta := cur[name] - prev[name]
	if delta < 0 || math.IsNaN(delta) {
		return 0
	}
	return delta / elapsed.Seconds()
}

// checkScrapes is the -check verdict on two scrapes taken elapsed
// apart: every required series must be present and finite in the
// first, and every derived rate finite and non-negative across the pair
// (a restart between the scrapes resets counters; rate clamps that to
// 0). It returns one line per problem, none when the endpoint is
// healthy.
func checkScrapes(first, second map[string]float64, elapsed time.Duration) []string {
	var problems []string
	for _, series := range server.RequiredSeries {
		v, ok := first[series]
		switch {
		case !ok:
			problems = append(problems, "missing series "+series)
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("%s = %v", series, v))
		}
	}
	for _, series := range rateSeries {
		r := rate(second, first, series, elapsed)
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			problems = append(problems, fmt.Sprintf("rate(%s) = %v", series, r))
		}
	}
	return problems
}

// runTop polls a dudesrv metrics endpoint and renders a live view of
// the pipeline: frontier lags, per-stage utilization and backlog, and
// the durability latency quantiles.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "metrics endpoint (host:port, or a full /metrics URL)")
	n := fs.Int("n", 0, "number of samples to take (0 = until interrupted)")
	interval := fs.Duration("interval", time.Second, "polling interval")
	check := fs.Bool("check", false, "scrape once, validate the required series are present and finite, exit non-zero otherwise")
	fs.Parse(args)

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}

	if *check {
		// Two scrapes: the required series are judged on the first, the
		// derived rates on the pair.
		first := scrape(url)
		start := time.Now()
		time.Sleep(100 * time.Millisecond)
		second := scrape(url)
		problems := checkScrapes(first, second, time.Since(start))
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "dudectl top: %s\n", p)
		}
		if len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "dudectl top: %d of %d required series missing, non-finite, or with bad rates\n", len(problems), len(server.RequiredSeries))
			os.Exit(1)
		}
		fmt.Printf("dudectl top: %s healthy (%d required series present and finite, %d rates sane)\n",
			url, len(server.RequiredSeries), len(rateSeries))
		return
	}

	var prev map[string]float64
	var prevAt time.Time
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		m := scrape(url)
		now := time.Now()
		renderTop(url, m, prev, now.Sub(prevAt), i+1)
		prev, prevAt = m, now
	}
}

func scrape(url string) map[string]float64 {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: %s", url, resp.Status))
	}
	m, err := obs.ParseProm(resp.Body)
	if err != nil {
		fatal(err)
	}
	return m
}

func renderTop(url string, m, prev map[string]float64, elapsed time.Duration, sample int) {
	clock := m["dudetm_clock_tid"]
	durable := m["dudetm_durable_tid"]
	repro := m["dudetm_reproduced_tid"]
	fmt.Printf("dudetm top — %s (sample %d)\n", url, sample)
	fmt.Printf("  frontier    clock %.0f   durable %.0f (lag %.0f)   reproduced %.0f (lag %.0f)\n",
		clock, durable, clock-durable, repro, durable-repro)
	for _, stage := range []string{"persist", "reproduce"} {
		l := fmt.Sprintf("{stage=%q}", stage)
		fmt.Printf("  %-11s util %5.1f%%   queue %.0f   workers %.0f   groups %.0f   fences %.0f\n",
			stage,
			100*m["dudetm_stage_utilization"+l],
			m["dudetm_stage_queue_depth"+l],
			m["dudetm_stage_workers"+l],
			m["dudetm_stage_groups_total"+l],
			m["dudetm_stage_fences_total"+l])
	}
	fmt.Printf("  durability  p50 %s   p99 %s   p999 %s   (%.0f sampled, commit→durable)\n",
		secs(m[`dudetm_commit_durable_latency_seconds{quantile="0.5"}`]),
		secs(m[`dudetm_commit_durable_latency_seconds{quantile="0.99"}`]),
		secs(m[`dudetm_commit_durable_latency_seconds{quantile="0.999"}`]),
		m["dudetm_trace_sampled_total"])
	fmt.Printf("  reproduce   p99 %s   commit→applied\n",
		secs(m[`dudetm_commit_reproduced_latency_seconds{quantile="0.99"}`]))
	fmt.Printf("  server      conns %.0f   requests %.0f   acked writes %.0f   stalls %.0f\n",
		m["dudesrv_connections_total"], m["dudesrv_requests_total"],
		m["dudesrv_acked_writes_total"], m["dudetm_watchdog_stalls_total"])
	if prev != nil {
		// Rates survive a server restart between samples: rate() clamps
		// the reset's negative delta to 0.
		fmt.Printf("  rates       %.0f req/s   %.0f acks/s   %.0f tid/s   %.0f log B/s\n",
			rate(m, prev, "dudesrv_requests_total", elapsed),
			rate(m, prev, "dudesrv_acked_writes_total", elapsed),
			rate(m, prev, "dudetm_durable_tid", elapsed),
			rate(m, prev, `dudetm_region_flushed_bytes_total{region="log"}`, elapsed))
		// Offered vs served: demand decoded off the wire vs responses
		// written back — the gap is the in-server backlog growing.
		fmt.Printf("  load        %.0f offered/s   %.0f served/s\n",
			rate(m, prev, "dudesrv_offered_requests_total", elapsed),
			rate(m, prev, "dudesrv_served_responses_total", elapsed))
	}
	if m["dudetm_repl_peers"] > 0 {
		state := "HEALTHY"
		if m["dudetm_repl_quorum_state"] == 0 {
			state = "DEGRADED"
		}
		fmt.Printf("  replication %s   peers %.0f/%.0f up   quorum %.0f   acked tid %.0f (lag %.0f)   ack p99 %s   wire %.0f B\n",
			state,
			m["dudetm_repl_peers_connected"], m["dudetm_repl_peers"],
			m["dudetm_repl_quorum"],
			m["dudetm_repl_acked_tid"], m["dudetm_repl_frontier_lag"],
			secs(m[`dudetm_repl_ack_latency_seconds{quantile="0.99"}`]),
			m["dudetm_repl_wire_bytes_total"])
	}
	if m["dudetm_recovery_runs_total"] > 0 {
		fmt.Printf("  recovery    replay %s   %.0f groups   %.0f entries   %.0f bytes\n",
			secs(m["dudetm_recovery_replay_seconds"]),
			m["dudetm_recovery_groups_replayed"],
			m["dudetm_recovery_entries_replayed"],
			m["dudetm_recovery_bytes_replayed"])
	}
}

// secs renders a latency gauge in a human unit.
func secs(v float64) string {
	if v == 0 || math.IsNaN(v) {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}
