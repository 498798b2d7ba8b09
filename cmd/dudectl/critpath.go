package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"dudetm/internal/obs"
)

// runCritpath scrapes a dudesrv metrics endpoint twice and renders
// where the commit→acked window of the interval's sampled transactions
// went, ranked by attributed time. With no traffic in the window it
// falls back to the process-lifetime totals, so the command is useful
// both at live load and post-mortem.
func runCritpath(args []string) {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "metrics endpoint (host:port, or a full /metrics URL)")
	interval := fs.Duration("interval", 2*time.Second, "measurement window between the two scrapes")
	fs.Parse(args)

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}

	first := scrape(url).Series
	time.Sleep(*interval)
	second := scrape(url).Series

	window := fmt.Sprintf("%v window", *interval)
	m := diffCritpath(second, first)
	if m["dudetm_critpath_txns_total"] == 0 {
		// Quiet window: report the lifetime aggregate instead.
		m = second
		window = "lifetime totals (no sampled txns in the window)"
	}
	r := seriesReader{view: "critpath", cur: m}
	renderCritpath(os.Stdout, url, window, &r)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "dudectl critpath: %s (rendered as 0)\n", p)
	}
}

// diffCritpath subtracts the critpath counters of two scrapes; gauges
// the rendering needs (sampling period, quorum) pass through from the
// later scrape.
func diffCritpath(cur, prev map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range cur {
		if strings.HasPrefix(k, "dudetm_critpath_") {
			d := v - prev[k]
			if d < 0 {
				d = 0 // counter reset across a restart
			}
			out[k] = d
		} else {
			out[k] = v
		}
	}
	return out
}

// renderCritpath writes the ranked segment table. Every series is read
// through r before anything is written, so -check covers them all even
// when the table is empty.
func renderCritpath(w io.Writer, url, window string, r *seriesReader) {
	txns := r.get("dudetm_critpath_txns_total")
	incomplete := r.get("dudetm_critpath_incomplete_total")
	dropped := r.get("dudetm_critpath_dropped_total")
	every := r.get("dudetm_trace_sample_every")
	quorum := r.get("dudetm_repl_quorum")
	e2e := r.get("dudetm_critpath_e2e_seconds_sum")
	type row struct {
		name  string
		total float64
	}
	// Segments start in pipeline order; the table re-ranks them by
	// attributed time.
	rows := make([]row, 0, obs.NumCritSegments)
	for seg := obs.CritSegment(0); seg < obs.NumCritSegments; seg++ {
		rows = append(rows, row{seg.String(), r.get(`dudetm_critpath_segment_seconds_total{segment="` + seg.String() + `"}`)})
	}

	fmt.Fprintf(w, "dudetm critpath — %s (%s)\n", url, window)
	fmt.Fprintf(w, "  txns %.0f   incomplete %.0f   dropped %.0f   sampling 1-in-%.0f   quorum %.0f\n",
		txns, incomplete, dropped, every, quorum)
	if txns == 0 {
		fmt.Fprintln(w, "  no decomposed transactions yet (is -trace-sample enabled?)")
		return
	}
	fmt.Fprintf(w, "  commit→acked mean %s over %.0f txns\n", secs(e2e/txns), txns)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	fmt.Fprintf(w, "  %-4s %-14s %12s %8s\n", "rank", "segment", "per txn", "share")
	for i, x := range rows {
		share := 0.0
		if e2e > 0 {
			share = 100 * x.total / e2e
		}
		fmt.Fprintf(w, "  %-4d %-14s %12s %7.1f%%\n", i+1, x.name, secs(x.total/txns), share)
	}
}
