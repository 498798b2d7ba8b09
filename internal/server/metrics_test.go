package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dudetm"
	"dudetm/internal/obs"
)

func TestMetricsEndpoint(t *testing.T) {
	srv, pool, addr := startServer(t,
		dudetm.Options{TraceSampleEvery: 1, GroupSize: 4, Watchdog: 50 * time.Millisecond},
		Config{})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)
	c := dial(t, addr)
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.Put(uint64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	sc, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Every declared family has a sample and every sample is finite.
	for _, p := range sc.Check() {
		t.Error(p)
	}
	m := sc.Series
	// Put acks after durability, so 50 writes are behind the frontier
	// and each was a sampled (1-in-1) lifecycle observation.
	if m["dudetm_durable_tid"] < 50 {
		t.Errorf("dudetm_durable_tid = %v, want >= 50", m["dudetm_durable_tid"])
	}
	if m["dudetm_commit_durable_seconds_count"] == 0 {
		t.Error("commit_durable histogram is empty with sampling on")
	}
	if m[`dudetm_commit_durable_latency_seconds{quantile="0.99"}`] <= 0 {
		t.Error("p99 commit->durable quantile is zero")
	}
	if m["dudesrv_acked_writes_total"] < 50 {
		t.Errorf("dudesrv_acked_writes_total = %v, want >= 50", m["dudesrv_acked_writes_total"])
	}
	// Offered counts at decode, served at response write; with the
	// client fully drained they both cover all 50 requests.
	if m["dudesrv_offered_requests_total"] < 50 {
		t.Errorf("dudesrv_offered_requests_total = %v, want >= 50", m["dudesrv_offered_requests_total"])
	}
	if m["dudesrv_served_responses_total"] < 50 {
		t.Errorf("dudesrv_served_responses_total = %v, want >= 50", m["dudesrv_served_responses_total"])
	}
	// The group-commit counters come from the pool's notifier, not the
	// server: the acks above were released by at least one wakeup, and
	// a wakeup releases at least one waiter.
	if w, r := m["dudesrv_notifier_wakeups_total"], m["dudesrv_notifier_released_total"]; !(0 < w && w <= r) {
		t.Errorf("notifier wakeups %v, released %v; want 0 < wakeups <= released", w, r)
	}
	// 50 durable writes must have flushed log-region bytes; this pool
	// was created fresh, so no recovery has run.
	if m[`dudetm_region_flushed_bytes_total{region="log"}`] == 0 {
		t.Error("log region reports no flushed bytes after 50 durable writes")
	}
	// Check holds each family to one sample; the label sets are held
	// here: every pool region, quantile and critpath segment has its
	// series.
	var labeled []string
	for _, r := range pool.Stats().Regions {
		for _, f := range []string{"stored_bytes", "flushed_bytes", "flushed_lines", "fences"} {
			labeled = append(labeled, "dudetm_region_"+f+`_total{region="`+r.Name+`"}`)
		}
	}
	for _, f := range []string{"commit_durable", "commit_reproduced", "repl_ack"} {
		for _, q := range []string{"0.5", "0.99", "0.999"} {
			labeled = append(labeled, "dudetm_"+f+`_latency_seconds{quantile="`+q+`"}`)
		}
	}
	for seg := obs.CritSegment(0); seg < obs.NumCritSegments; seg++ {
		for _, f := range []string{"seconds_total", "share", "p99_seconds"} {
			labeled = append(labeled, "dudetm_critpath_segment_"+f+`{segment="`+seg.String()+`"}`)
		}
	}
	for _, series := range labeled {
		if _, ok := m[series]; !ok {
			t.Errorf("missing series %s", series)
		}
	}
	if m["dudetm_recovery_runs_total"] != 0 {
		t.Errorf("dudetm_recovery_runs_total = %v on a fresh pool", m["dudetm_recovery_runs_total"])
	}
	// Replication is off on this node, but the series contract holds:
	// quorum state reads healthy, the acked frontier tracks the local
	// durable frontier, and the lag gauge is non-negative.
	if m["dudetm_repl_peers"] != 0 || m["dudetm_repl_enabled"] != 0 {
		t.Errorf("repl peers/enabled = %v/%v on an unreplicated node",
			m["dudetm_repl_peers"], m["dudetm_repl_enabled"])
	}
	if m["dudetm_repl_quorum_state"] != 1 {
		t.Errorf("dudetm_repl_quorum_state = %v, want 1 (healthy) with replication off", m["dudetm_repl_quorum_state"])
	}
	if m["dudetm_repl_acked_tid"] < 50 {
		t.Errorf("dudetm_repl_acked_tid = %v, want >= 50 (tracks local durable)", m["dudetm_repl_acked_tid"])
	}
	if m["dudetm_repl_frontier_lag"] < 0 {
		t.Errorf("dudetm_repl_frontier_lag = %v, want >= 0", m["dudetm_repl_frontier_lag"])
	}

	// Critical-path decomposition: all 50 writes were sampled and acked
	// before the scrape, so the acked pass has folded them in; the poll
	// is a safety margin.
	deadline := time.Now().Add(5 * time.Second)
	for m["dudetm_critpath_txns_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("critpath collector never decomposed a txn: txns=%v incomplete=%v dropped=%v",
				m["dudetm_critpath_txns_total"], m["dudetm_critpath_incomplete_total"], m["dudetm_critpath_dropped_total"])
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		sc, err = obs.ParseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		m = sc.Series
	}
	if m["dudetm_critpath_e2e_seconds_count"] != m["dudetm_critpath_txns_total"] {
		t.Errorf("e2e count %v != txns %v",
			m["dudetm_critpath_e2e_seconds_count"], m["dudetm_critpath_txns_total"])
	}
	// Unreplicated node: replication segments stay zero, the pipeline
	// segments carry all the attributed time, and shares sum to ~1.
	if m[`dudetm_critpath_segment_seconds_total{segment="repl_ship"}`] != 0 ||
		m[`dudetm_critpath_segment_seconds_total{segment="quorum_wait"}`] != 0 {
		t.Error("replication segments nonzero on an unreplicated node")
	}
	var share float64
	for seg := obs.CritSegment(0); seg < obs.NumCritSegments; seg++ {
		share += m[`dudetm_critpath_segment_share{segment="`+seg.String()+`"}`]
	}
	if math.Abs(share-1) > 0.01 {
		t.Errorf("segment shares sum to %v, want ~1", share)
	}

	// /debug/trace: the tail shows lifecycle stamps; a specific durable
	// tid reconstructs its timeline (sampling is 1-in-1).
	body := getBody(t, hs.URL+"/debug/trace")
	for _, kind := range []string{"commit", "group-seal", "persist-fence"} {
		if !strings.Contains(body, kind) {
			t.Errorf("/debug/trace missing %q stamps:\n%s", kind, body)
		}
	}
	body = getBody(t, hs.URL+"/debug/trace?tid=25")
	if !strings.Contains(body, "tid 25 lifecycle") || !strings.Contains(body, "commit") {
		t.Errorf("/debug/trace?tid=25:\n%s", body)
	}
	// An unknown tid is a 404 whose body explains the sampling period;
	// so is tid 0, which is never assigned (it must not read as an
	// unclaimed row's empty timeline, nor as every record).
	for _, tid := range []string{"999999", "0"} {
		resp, err = http.Get(hs.URL + "/debug/trace?tid=" + tid)
		if err != nil {
			t.Fatal(err)
		}
		nb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/debug/trace?tid=%s: %s, want 404", tid, resp.Status)
		}
		if !strings.Contains(string(nb), "not sampled") || !strings.Contains(string(nb), "1-in-1") {
			t.Errorf("tid %s 404 body = %q, want sampling explanation", tid, nb)
		}
	}
	// format=chrome renders the timeline as a Perfetto-loadable
	// trace-event document.
	resp, err = http.Get(hs.URL + "/debug/trace?tid=25&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace?format=chrome: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("chrome trace Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(cb, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, cb)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
	if body = getBody(t, hs.URL+"/debug/stall"); !strings.Contains(body, "no stalls recorded") {
		t.Errorf("/debug/stall: %q", body)
	}
	// pprof is mounted.
	if body = getBody(t, hs.URL+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
