package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestPromRoundTripFull pins the writer↔parser contract exhaustively:
// everything the PromWriter emits — gauges, counters, labeled samples,
// and every non-empty bucket of a densely populated histogram family —
// parses back to the same series and values, with the cumulative-bucket
// invariants intact.
func TestPromRoundTripFull(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i * 37)
	}
	snap := h.Snapshot()

	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Gauge("test_gauge", "a gauge", 42.5)
	w.Counter("test_counter", "a counter", 12345)
	w.Family("test_labeled", "gauge", "labeled series", "stage", []string{"persist", "reproduce"},
		func(i int) float64 { return []float64{0.25, 0.75}[i] })
	w.Histogram("test_hist_seconds", "a histogram", snap, 1e-9)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	sc, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parsing writer output: %v\n%s", err, buf.String())
	}
	if p := sc.Check(); len(p) != 0 {
		t.Errorf("writer output fails Check: %q", p)
	}
	m := sc.Series
	want := map[string]float64{
		"test_gauge":                          42.5,
		"test_counter":                        12345,
		`test_labeled{stage="persist"}`:       0.25,
		`test_labeled{stage="reproduce"}`:     0.75,
		`test_hist_seconds_bucket{le="+Inf"}`: float64(snap.Count),
		"test_hist_seconds_count":             float64(snap.Count),
		"test_hist_seconds_sum":               float64(snap.Sum) * 1e-9,
	}
	for series, v := range want {
		got, ok := m[series]
		if !ok {
			t.Errorf("round trip lost %s\n%s", series, buf.String())
			continue
		}
		if math.Abs(got-v) > math.Abs(v)*1e-12 {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}

	// Every non-empty bucket emitted must parse back, cumulative counts
	// must be non-decreasing, and the last finite bucket must not exceed
	// the +Inf bucket.
	var cum, buckets float64
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		buckets++
		bound := float64(BucketBound(i)) * 1e-9
		series := fmt.Sprintf("test_hist_seconds_bucket{le=%q}", strconv.FormatFloat(bound, 'g', -1, 64))
		got, ok := m[series]
		if !ok {
			t.Fatalf("round trip lost bucket %s", series)
		}
		if got < cum {
			t.Errorf("bucket %s cumulative count %v < previous %v", series, got, cum)
		}
		cum = got
	}
	if buckets == 0 {
		t.Fatal("histogram emitted no finite buckets")
	}
	if cum > float64(snap.Count) {
		t.Errorf("last finite bucket %v exceeds +Inf bucket %v", cum, snap.Count)
	}
}

// TestPromRoundTripEmptyHistogram pins the zero-snapshot shape the
// replication series rely on: an unreplicated node still emits its
// ack-latency family (count 0, sum 0, +Inf bucket 0) and zero-valued
// quantile gauges, so the scrape contract — and `dudectl top -check` —
// is stable across R=0 and R>0 deployments.
func TestPromRoundTripEmptyHistogram(t *testing.T) {
	var empty HistSnapshot
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Histogram("repl_ack_seconds", "empty at R=0", empty, 1e-9)
	w.Quantiles("repl_ack_latency_seconds", "ack latency quantiles", empty, 1e-9)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parsing writer output: %v\n%s", err, buf.String())
	}
	if p := sc.Check(); len(p) != 0 {
		t.Errorf("empty-histogram output fails Check: %q", p)
	}
	m := sc.Series
	for _, series := range []string{
		"repl_ack_seconds_count",
		"repl_ack_seconds_sum",
		`repl_ack_seconds_bucket{le="+Inf"}`,
		`repl_ack_latency_seconds{quantile="0.5"}`,
		`repl_ack_latency_seconds{quantile="0.99"}`,
		`repl_ack_latency_seconds{quantile="0.999"}`,
	} {
		v, ok := m[series]
		if !ok {
			t.Errorf("empty-histogram round trip lost %s\n%s", series, buf.String())
			continue
		}
		if v != 0 {
			t.Errorf("%s = %v, want 0 on an empty snapshot", series, v)
		}
	}
}

// TestParsePromRejectsMalformed: sample lines without a value are
// errors, not silent drops.
func TestParsePromRejectsMalformed(t *testing.T) {
	if _, err := ParseProm(bytes.NewReader([]byte("loneseries\n"))); err == nil {
		t.Error("no-value line accepted")
	}
	if _, err := ParseProm(bytes.NewReader([]byte("series notanumber\n"))); err == nil {
		t.Error("non-numeric value accepted")
	}
	sc, err := ParseProm(bytes.NewReader([]byte("# HELP x y\n\nseries 1\n")))
	if err != nil || sc.Series["series"] != 1 {
		t.Errorf("comments/blanks mishandled: %v %v", sc, err)
	}
}

// TestScrapeCheck pins what Check holds an exposition to: every family
// a # TYPE line declares has a sample (a histogram's _bucket, _sum or
// _count counts for it), and no sample is NaN or ±Inf.
func TestScrapeCheck(t *testing.T) {
	const healthy = `# HELP up a gauge
# TYPE up gauge
up 1
# TYPE stage_util gauge
stage_util{stage="persist"} 0.5
# TYPE fence_seconds histogram
fence_seconds_count 0
`
	cases := []struct {
		name, text string
		want       []string
	}{
		{"healthy", healthy, nil},
		{"declared family without sample", healthy + "# TYPE orphan_total counter\n",
			[]string{"counter family orphan_total has no sample"}},
		{"histogram without samples", "# TYPE lat_seconds histogram\nlat_seconds_total 1\n",
			[]string{"histogram family lat_seconds has no sample"}},
		{"NaN", healthy + "x NaN\n", []string{"x = NaN"}},
		{"+Inf", healthy + `y{region="log"} +Inf` + "\n", []string{`y{region="log"} = +Inf`}},
		{"-Inf and orphan", healthy + "z -Inf\n# TYPE gone gauge\n",
			[]string{"gauge family gone has no sample", "z = -Inf"}},
	}
	for _, c := range cases {
		sc, err := ParseProm(strings.NewReader(c.text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sc.Check(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Check() = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestHistogramConcurrentMerge exercises the histogram under racing
// writers (the -race gate) and pins the merge algebra: sharded
// histograms merged by addition account for every observation, and
// Sub(earlier) inverts Merge.
func TestHistogramConcurrentMerge(t *testing.T) {
	const (
		writers = 8
		perW    = 10000
	)
	shards := make([]*Histogram, writers)
	var shared Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		shards[w] = &Histogram{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				v := uint64(w*perW + i + 1)
				shards[w].Observe(v)
				shared.Observe(v)
			}
		}(w)
	}
	// Snapshot concurrently with the writers: the race detector checks
	// the access discipline; consistency is checked after the join.
	for i := 0; i < 100; i++ {
		s := shared.Snapshot()
		if s.Quantile(0.5) > math.MaxUint64/2 {
			t.Errorf("mid-run p50 out of range: %d", s.Quantile(0.5))
		}
	}
	wg.Wait()

	var merged HistSnapshot
	for _, h := range shards {
		merged = merged.Merge(h.Snapshot())
	}
	total := shared.Snapshot()
	if merged != total {
		t.Errorf("sharded merge diverges from single histogram:\nmerged %+v\ntotal  %+v", merged.Count, total.Count)
	}
	if want := uint64(writers * perW); merged.Count != want {
		t.Errorf("merged count %d, want %d", merged.Count, want)
	}
	// Sum of 1..N.
	n := uint64(writers * perW)
	if want := n * (n + 1) / 2; merged.Sum != want {
		t.Errorf("merged sum %d, want %d", merged.Sum, want)
	}
	// Sub inverts Merge: removing one shard leaves the rest.
	rest := total.Sub(shards[0].Snapshot())
	var wantRest HistSnapshot
	for _, h := range shards[1:] {
		wantRest = wantRest.Merge(h.Snapshot())
	}
	if rest != wantRest {
		t.Error("Sub(shard0) does not invert Merge")
	}
	// The quantile of the merged view lands within the power-of-two
	// bucket of the true median.
	p50 := merged.Quantile(0.5)
	trueMedian := n / 2
	if p50 < trueMedian/2 || p50 > trueMedian*2 {
		t.Errorf("merged p50 %d outside 2x of true median %d", p50, trueMedian)
	}
}
