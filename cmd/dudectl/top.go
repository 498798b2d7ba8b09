package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"dudetm/internal/obs"
)

// rate converts two counter samples into a per-second rate. Counter
// resets (dudesrv restarted between scrapes) show up as a negative delta:
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
// apart: every family the first declares has a sample and every
// sample is finite (obs.Scrape.Check), and the top and critpath views,
// rendered over the pair, find every series they read and derive only
// finite, non-negative rates (a restart between the scrapes resets
// counters; rate clamps that to 0). It returns one line per problem,
// none when the endpoint is healthy.
func checkScrapes(first, second obs.Scrape, elapsed time.Duration) []string {
	problems := first.Check()
	top := topView{seriesReader: seriesReader{view: "top", cur: second.Series}, prev: first.Series, elapsed: elapsed}
	top.render(io.Discard, "", 0)
	crit := seriesReader{view: "critpath", cur: diffCritpath(second.Series, first.Series)}
	renderCritpath(io.Discard, "", "", &crit)
	problems = append(problems, top.problems...)
	return append(problems, crit.problems...)
}

// runTop polls a dudesrv metrics endpoint and renders a live view of
// the pipeline: frontier lags, per-stage utilization and backlog, and
// the durability latency quantiles.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "metrics endpoint (host:port, or a full /metrics URL)")
	n := fs.Int("n", 0, "number of samples to take (0 = until interrupted)")
	interval := fs.Duration("interval", time.Second, "polling interval")
	check := fs.Bool("check", false, "scrape twice, validate every declared family, series and rate, exit non-zero otherwise")
	fs.Parse(args)

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}

	if *check {
		// Two scrapes: the declarations are judged on the first, the
		// view and the derived rates on the pair.
		first := scrape(url)
		start := time.Now()
		time.Sleep(100 * time.Millisecond)
		second := scrape(url)
		problems := checkScrapes(first, second, time.Since(start))
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "dudectl top: %s\n", p)
		}
		if len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "dudectl top: %d problem(s): families without samples, non-finite samples, series a view misses, or bad rates\n", len(problems))
			os.Exit(1)
		}
		fmt.Printf("dudectl top: %s healthy (%d declared families sampled, %d series finite; every series the top and critpath views read present, every rate sane)\n",
			url, len(first.Types), len(first.Series))
		return
	}

	var prev map[string]float64
	var prevAt time.Time
	for i := 0; *n == 0 || i < *n; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		m := scrape(url).Series
		now := time.Now()
		v := topView{seriesReader: seriesReader{view: "top", cur: m}, prev: prev, elapsed: now.Sub(prevAt)}
		v.render(os.Stdout, url, i+1)
		prev, prevAt = m, now
	}
}

func scrape(url string) obs.Scrape {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: %s", url, resp.Status))
	}
	sc, err := obs.ParseProm(resp.Body)
	if err != nil {
		fatal(err)
	}
	return sc
}

// seriesReader reads a view's series from one scrape and records a
// problem for every series the scrape lacks, so a view that reads
// everything it shows through get is itself the list of series -check
// holds the endpoint to.
type seriesReader struct {
	view     string // names the view in problems
	cur      map[string]float64
	problems []string
}

func (r *seriesReader) get(series string) float64 {
	x, ok := r.cur[series]
	if !ok {
		r.problems = append(r.problems, r.view+" view reads missing series "+series)
	}
	return x
}

// topView is one sample of the live view.
type topView struct {
	seriesReader
	prev    map[string]float64 // nil on the first sample
	elapsed time.Duration
}

// rate reads a counter through get and returns its per-second rate
// since the previous sample, recording a problem if that rate is
// non-finite or negative.
func (v *topView) rate(series string) float64 {
	v.get(series)
	r := rate(v.cur, v.prev, series, v.elapsed)
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		v.problems = append(v.problems, fmt.Sprintf("rate(%s) = %v", series, r))
	}
	return r
}

// render writes the view. The replication and recovery lines print
// only on a node that replicates or recovered, but their series are
// read on every node, so -check covers them everywhere.
func (v *topView) render(w io.Writer, url string, sample int) {
	clock := v.get("dudetm_clock_tid")
	durable := v.get("dudetm_durable_tid")
	repro := v.get("dudetm_reproduced_tid")
	fmt.Fprintf(w, "dudetm top — %s (sample %d)\n", url, sample)
	fmt.Fprintf(w, "  frontier    clock %.0f   durable %.0f (lag %.0f)   reproduced %.0f (lag %.0f)\n",
		clock, durable, clock-durable, repro, durable-repro)
	for _, stage := range []string{"persist", "reproduce"} {
		l := fmt.Sprintf("{stage=%q}", stage)
		workers := v.get("dudetm_stage_workers" + l)
		// Busy seconds per second per worker over the polling interval,
		// not dudetm_stage_utilization's lifetime average. The first
		// sample has no interval yet.
		busy := v.rate("dudetm_stage_busy_seconds_total" + l)
		util := "    -"
		if v.prev != nil && workers > 0 {
			util = fmt.Sprintf("%5.1f%%", 100*busy/workers)
		}
		fmt.Fprintf(w, "  %-11s util %s   queue %.0f   workers %.0f   groups %.0f   fences %.0f\n",
			stage, util,
			v.get("dudetm_stage_queue_depth"+l),
			workers,
			v.get("dudetm_stage_groups_total"+l),
			v.get("dudetm_stage_fences_total"+l))
	}
	fmt.Fprintf(w, "  durability  p50 %s   p99 %s   p999 %s   (%.0f sampled, commit→durable)\n",
		secs(v.get(`dudetm_commit_durable_latency_seconds{quantile="0.5"}`)),
		secs(v.get(`dudetm_commit_durable_latency_seconds{quantile="0.99"}`)),
		secs(v.get(`dudetm_commit_durable_latency_seconds{quantile="0.999"}`)),
		v.get("dudetm_trace_sampled_total"))
	fmt.Fprintf(w, "  reproduce   p99 %s   commit→applied\n",
		secs(v.get(`dudetm_commit_reproduced_latency_seconds{quantile="0.99"}`)))
	fmt.Fprintf(w, "  server      conns %.0f   requests %.0f   acked writes %.0f   stalls %.0f\n",
		v.get("dudesrv_connections_total"), v.get("dudesrv_requests_total"),
		v.get("dudesrv_acked_writes_total"), v.get("dudetm_watchdog_stalls_total"))
	if v.prev != nil {
		// Rates survive a server restart between samples: rate() clamps
		// the reset's negative delta to 0.
		fmt.Fprintf(w, "  rates       %.0f req/s   %.0f acks/s   %.0f tid/s   %.0f log B/s\n",
			v.rate("dudesrv_requests_total"),
			v.rate("dudesrv_acked_writes_total"),
			v.rate("dudetm_durable_tid"),
			v.rate(`dudetm_region_flushed_bytes_total{region="log"}`))
		// Offered vs served: demand decoded off the wire vs responses
		// written back — the gap is the in-server backlog growing.
		fmt.Fprintf(w, "  load        %.0f offered/s   %.0f served/s\n",
			v.rate("dudesrv_offered_requests_total"),
			v.rate("dudesrv_served_responses_total"))
	}
	peers, state := v.get("dudetm_repl_peers"), "HEALTHY"
	if v.get("dudetm_repl_quorum_state") == 0 {
		state = "DEGRADED"
	}
	replLine := fmt.Sprintf("  replication %s   peers %.0f/%.0f up   quorum %.0f   acked tid %.0f (lag %.0f)   ack p99 %s   wire %.0f B\n",
		state,
		v.get("dudetm_repl_peers_connected"), peers,
		v.get("dudetm_repl_quorum"),
		v.get("dudetm_repl_acked_tid"), v.get("dudetm_repl_frontier_lag"),
		secs(v.get(`dudetm_repl_ack_latency_seconds{quantile="0.99"}`)),
		v.get("dudetm_repl_wire_bytes_total"))
	if peers > 0 {
		fmt.Fprint(w, replLine)
	}
	recoveryLine := fmt.Sprintf("  recovery    replay %s   %.0f groups   %.0f entries   %.0f bytes\n",
		secs(v.get("dudetm_recovery_replay_seconds")),
		v.get("dudetm_recovery_groups_replayed"),
		v.get("dudetm_recovery_entries_replayed"),
		v.get("dudetm_recovery_bytes_replayed"))
	if v.get("dudetm_recovery_runs_total") > 0 {
		fmt.Fprint(w, recoveryLine)
	}
}

// secs renders a latency gauge in a human unit.
func secs(v float64) string {
	if v == 0 || math.IsNaN(v) {
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}
