package obs

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if want := uint64(0 + 1 + 2 + 3 + 4 + 1000 + 1<<40); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	// v=0 → bucket 0, v=1 → 1, v∈{2,3} → 2, v=4 → 3.
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[3] != 1 {
		t.Fatalf("low buckets = %v", s.Counts[:4])
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket 7: [64,127]
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 64 || q > 127 {
		t.Errorf("p50 = %d, want within [64,127]", q)
	}
	if q := s.Quantile(0.999); q < 1<<19 {
		t.Errorf("p999 = %d, want in the 2^20 bucket", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}

func TestHistogramMergeSub(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(20)
	b.Observe(30)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 3 || m.Sum != 60 {
		t.Fatalf("merge = count %d sum %d", m.Count, m.Sum)
	}
	before := a.Snapshot()
	a.Observe(40)
	iv := a.Snapshot().Sub(before)
	if iv.Count != 1 || iv.Sum != 40 {
		t.Fatalf("interval = count %d sum %d", iv.Count, iv.Sum)
	}
}

// TestSampleRowReuse laps a table of 8 rows: a released row is
// claimed by the next sampled transaction that maps to it, and only
// that transaction's trace is left in it.
func TestSampleRowReuse(t *testing.T) {
	o := newObserver(Config{SampleEvery: 1}, 8)
	for tid := uint64(1); tid <= 20; tid++ {
		o.Commit(tid)
		o.GroupSealed(tid, tid, 1, 1)
		o.DurableAdvanced(tid)
		o.ReproducedAdvanced(tid)
		o.AckedAdvanced(tid)
	}
	recs := o.TraceTail(0)
	if len(recs) != 8*3 {
		t.Fatalf("TraceTail holds %d records, want 3 for each of 8 rows: %v", len(recs), recs)
	}
	for _, rec := range recs {
		if rec.MinTid <= 12 {
			t.Errorf("record for tid %d survived 20 sampled commits in a table of 8", rec.MinTid)
		}
	}
	if got := o.TraceOf(15); len(got) != 3 || got[0].Kind != EvCommit || got[0].MinTid != 15 {
		t.Fatalf("TraceOf(15) = %v", got)
	}
	if got := o.TraceOf(7); len(got) != 0 {
		t.Fatalf("TraceOf(7) = %v after tid 15 reused its row", got)
	}
	if d := o.Snapshot().Crit.Dropped; d != 0 {
		t.Fatalf("dropped %d commits although every row was released", d)
	}
}

// TestSampleTableDropsHeldRows fills a table of 8 rows with sampled
// commits that no frontier has passed: every further sampled commit is
// dropped and counted, and once the frontiers pass, the latency
// histograms hold exactly the commits that were traced.
func TestSampleTableDropsHeldRows(t *testing.T) {
	o := newObserver(Config{SampleEvery: 2}, 8)
	for tid := uint64(1); tid <= 40; tid++ {
		o.Commit(tid)
	}
	s := o.Snapshot()
	if s.SampledCommits != 8 || s.Crit.Dropped != 12 {
		t.Fatalf("sampled %d dropped %d, want 8 traced and 12 dropped of 20", s.SampledCommits, s.Crit.Dropped)
	}
	if got := o.TraceOf(18); len(got) != 0 {
		t.Fatalf("dropped tid 18 has a trace: %v", got)
	}
	o.DurableAdvanced(40)
	o.ReproducedAdvanced(40)
	o.AckedAdvanced(40)
	s = o.Snapshot()
	if s.CommitDurable.Count != s.SampledCommits || s.CommitReproduced.Count != s.SampledCommits {
		t.Fatalf("commit→durable %d, commit→reproduced %d, want both = %d sampled commits",
			s.CommitDurable.Count, s.CommitReproduced.Count, s.SampledCommits)
	}
	// No seal or fence was stamped, so no timeline decomposes.
	if s.Crit.Incomplete != 8 || s.Crit.Txns != 0 {
		t.Fatalf("crit %+v, want 8 incomplete", s.Crit)
	}
	// Released rows take the next commits again, with full timelines.
	for tid := uint64(41); tid <= 56; tid++ {
		o.Commit(tid)
		o.GroupSealed(tid, tid, 1, 1)
		o.GroupPersisted(tid, tid, o.Now(), o.Now())
	}
	o.DurableAdvanced(56)
	o.ReproducedAdvanced(56)
	o.AckedAdvanced(56)
	s = o.Snapshot()
	if s.SampledCommits != 16 || s.Crit.Dropped != 12 || s.Crit.Txns != 8 {
		t.Fatalf("after release: sampled %d dropped %d decomposed %d, want 16/12/8",
			s.SampledCommits, s.Crit.Dropped, s.Crit.Txns)
	}
	if s.CommitDurable.Count != s.SampledCommits || s.CommitReproduced.Count != s.SampledCommits {
		t.Fatalf("commit→durable %d, commit→reproduced %d, want both = %d",
			s.CommitDurable.Count, s.CommitReproduced.Count, s.SampledCommits)
	}
}

// TestGroupIngestedClaimsRows: on a replica the ingest seal is a
// sampled transaction's first stamp, so it claims the row; the
// replica's later stamps extend the trace and its frontiers release it.
func TestGroupIngestedClaimsRows(t *testing.T) {
	o := newObserver(Config{SampleEvery: 2}, 4)
	o.GroupIngested(1, 6, 12)
	o.GroupPersisted(1, 6, o.Now(), o.Now()+1)
	o.GroupApplied(1, 6)
	recs := o.TraceOf(4)
	want := []EventKind{EvGroupSeal, EvPersistFence, EvReproApply}
	if len(recs) != len(want) {
		t.Fatalf("TraceOf(4) = %v, want %v", recs, want)
	}
	for i, k := range want {
		if recs[i].Kind != k || recs[i].MinTid != 1 || recs[i].MaxTid != 6 {
			t.Fatalf("record %d = %+v, want %s over [1,6]", i, recs[i], k)
		}
	}
	// A group of 10 sampled IDs over a table of 4 visits each row once,
	// through its last 4 IDs: the three rows tids 2, 4 and 6 still hold
	// drop theirs, and 24 takes the free row.
	o.GroupIngested(7, 26, 20)
	if d := o.Snapshot().Crit.Dropped; d != 3 {
		t.Fatalf("dropped %d, want 3 on held rows", d)
	}
	for _, f := range []func(uint64){o.DurableAdvanced, o.ReproducedAdvanced, o.AckedAdvanced} {
		f(26)
	}
	o.GroupIngested(27, 34, 8)
	s := o.Snapshot()
	if s.Crit.Dropped != 3 || s.SampledCommits != 0 || s.CommitDurable.Count != 0 || s.Crit.Txns+s.Crit.Incomplete != 0 {
		t.Fatalf("replica rows: %+v", s)
	}
	if got := o.TraceOf(34); len(got) != 1 || got[0].Kind != EvGroupSeal {
		t.Fatalf("TraceOf(34) = %v, want the ingest seal", got)
	}
}

func TestSampling(t *testing.T) {
	o := New(Config{SampleEvery: 4})
	for tid := uint64(1); tid <= 12; tid++ {
		if got, want := o.Sampled(tid), tid%4 == 0; got != want {
			t.Errorf("Sampled(%d) = %v, want %v", tid, got, want)
		}
	}
	cases := []struct {
		min, max uint64
		want     bool
	}{
		{1, 3, false}, {1, 4, true}, {4, 4, true}, {5, 7, false}, {5, 8, true}, {5, 100, true},
	}
	for _, c := range cases {
		if got := o.rangeSampled(c.min, c.max); got != c.want {
			t.Errorf("rangeSampled(%d,%d) = %v, want %v", c.min, c.max, got, c.want)
		}
	}
	off := New(Config{SampleEvery: 0})
	if off.Sampled(4) || off.rangeSampled(1, 100) {
		t.Error("sampling disabled but Sampled/rangeSampled returned true")
	}
	if off.rows != nil {
		t.Error("sampling disabled but the sample table was allocated")
	}
}

func TestTraceOfTimeline(t *testing.T) {
	o := New(Config{SampleEvery: 1})
	o.Commit(7)
	o.GroupSealed(6, 9, 4, 16)
	start := o.Now()
	end := o.Now() + 1
	o.GroupPersisted(6, 9, start, end)
	o.GroupApplied(6, 9)
	recs := o.TraceOf(7)
	if len(recs) != 4 {
		t.Fatalf("TraceOf(7) = %d records, want 4: %v", len(recs), recs)
	}
	want := []EventKind{EvCommit, EvGroupSeal, EvPersistFence, EvReproApply}
	var last int64 = -1
	for i, r := range recs {
		if r.Kind != want[i] {
			t.Errorf("record %d kind = %s, want %s", i, r.Kind, want[i])
		}
		if r.At < last {
			t.Errorf("record %d out of time order: %d < %d", i, r.At, last)
		}
		last = r.At
	}
	if got := o.TraceOf(10); len(got) != 0 {
		t.Errorf("TraceOf(10) = %v, want none (outside every range)", got)
	}
	if got := o.TraceOf(0); len(got) != 0 {
		t.Errorf("TraceOf(0) = %v, want none (tid 0 is never assigned)", got)
	}
}

func TestPendingLatency(t *testing.T) {
	o := New(Config{SampleEvery: 1})
	o.Commit(1)
	o.Commit(2)
	o.DurableAdvanced(1)
	s := o.Snapshot()
	if s.CommitDurable.Count != 1 {
		t.Fatalf("commit→durable count = %d, want 1", s.CommitDurable.Count)
	}
	o.DurableAdvanced(5)
	o.ReproducedAdvanced(5)
	o.AckedAdvanced(5)
	s = o.Snapshot()
	if s.CommitDurable.Count != 2 || s.CommitReproduced.Count != 2 {
		t.Fatalf("after full advance: durable %d reproduced %d, want 2/2",
			s.CommitDurable.Count, s.CommitReproduced.Count)
	}
	for tid := uint64(1); tid <= 2; tid++ {
		if r := o.row(tid); r.s.held() {
			t.Fatalf("row of tid %d still held after every frontier passed it", tid)
		}
	}
}

// TestDisabledHooksAllocFree pins the disabled-sampling hot path at
// zero allocations: tracing off must cost a comparison, not garbage.
func TestDisabledHooksAllocFree(t *testing.T) {
	o := New(Config{SampleEvery: 0})
	tid := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		o.Commit(tid)
		o.DurableAdvanced(tid)
		o.ReproducedAdvanced(tid)
		o.AckedAdvanced(tid)
	}); n != 0 {
		t.Fatalf("disabled per-txn hooks allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		o.GroupSealed(tid, tid, 1, 4)
		at := o.Now()
		o.GroupPersisted(tid, tid, at, at+1)
		o.GroupApplied(tid, tid)
	}); n != 0 {
		t.Fatalf("per-group hooks allocate %.1f/op, want 0", n)
	}
}

// TestSampledStampAllocFree pins the sampled path at zero allocations:
// the commit stamp and all three frontier passes, the acked pass's
// critical-path decomposition included, whether a commit claims its
// row or is dropped on a held one.
func TestSampledStampAllocFree(t *testing.T) {
	o := newObserver(Config{SampleEvery: 1}, 64)
	o.SetReplication(2, 1)
	tid := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		o.Commit(tid)
		o.GroupSealed(tid, tid, 1, 1)
		o.GroupPersisted(tid, tid, o.Now(), o.Now())
		o.ReplicaFenced(tid, tid, 1, 5)
		o.DurableAdvanced(tid)
		o.ReproducedAdvanced(tid)
		o.AckedAdvanced(tid)
	}); n != 0 {
		t.Fatalf("sampled stamps allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		o.Commit(tid) // fills the table, then drops
	}); n != 0 {
		t.Fatalf("sampled Commit on a held table allocates %.1f/op, want 0", n)
	}
	if c := o.Snapshot().Crit; c.Txns == 0 || c.Dropped == 0 {
		t.Fatalf("crit %+v: want decomposed and dropped transactions", c)
	}
}

// TestSampleRowReaderRace drives a writer that laps a table of 8 rows
// against concurrent TraceOf and TraceTail readers; under -race this
// proves the row locks order every stamp against every read, and in
// any mode it checks a reader never sees a reused row's stamps mixed
// with its previous owner's.
func TestSampleRowReaderRace(t *testing.T) {
	o := newObserver(Config{SampleEvery: 1}, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lastTid atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tid := uint64(1); ; tid++ {
			select {
			case <-stop:
				return
			default:
			}
			o.Commit(tid)
			o.GroupSealed(tid, tid, 1, 1)
			// Tear detection: the fence record carries tid in its span.
			end := o.Now()
			o.GroupPersisted(tid, tid, end-int64(tid), end)
			o.DurableAdvanced(tid)
			o.ReproducedAdvanced(tid)
			o.AckedAdvanced(tid)
			lastTid.Store(tid)
		}
	}()
	for lastTid.Load() == 0 {
		runtime.Gosched() // single-CPU hosts: let the writer start
	}
	check := func(recs []Record) {
		for _, rec := range recs {
			if rec.MinTid != rec.MaxTid || rec.Kind == EvPersistFence && rec.Dur != int64(rec.MinTid) {
				t.Fatalf("torn record: %+v", rec)
			}
		}
	}
	for n := 0; n < 200; n++ {
		tid := lastTid.Load()
		recs := o.TraceOf(tid)
		for _, rec := range recs {
			if rec.MinTid != tid {
				t.Fatalf("TraceOf(%d) returned a record of tid %d: %v", tid, rec.MinTid, recs)
			}
		}
		check(recs)
		check(o.TraceTail(0))
	}
	close(stop)
	wg.Wait()
}

// TestTraceOfWraparoundRace races TraceOf against a writer that laps a
// tiny table many times over: a timeline read mid-lap must come back
// either as a consistent, time-ordered prefix of the transaction's
// stamps or as a clean miss, and once the writer quiesces, the newest
// transaction's full timeline is reconstructible.
func TestTraceOfWraparoundRace(t *testing.T) {
	o := newObserver(Config{SampleEvery: 1}, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lastTid atomic.Uint64
	stamp := func(tid uint64) {
		o.Commit(tid)
		o.GroupSealed(tid, tid, 1, 1)
		end := o.Now()
		o.GroupPersisted(tid, tid, end-int64(tid), end)
		o.DurableAdvanced(tid)
		o.ReproducedAdvanced(tid)
		o.AckedAdvanced(tid)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stamp(i)
			lastTid.Store(i)
		}
	}()
	for lastTid.Load() == 0 {
		runtime.Gosched() // single-CPU hosts: let the writer start
	}
	kinds := []EventKind{EvCommit, EvGroupSeal, EvPersistFence, EvAcked}
	for n := 0; n < 500; n++ {
		tid := lastTid.Load()
		recs := o.TraceOf(tid)
		if len(recs) > len(kinds) {
			t.Fatalf("TraceOf(%d) = %d records: %v", tid, len(recs), recs)
		}
		var prevAt int64 = -1
		for i, rec := range recs {
			if rec.Kind != kinds[i] || rec.MinTid != tid || rec.MaxTid != tid ||
				rec.Kind == EvPersistFence && rec.Dur != int64(tid) {
				t.Fatalf("TraceOf(%d) record %d = %+v: %v", tid, i, rec, recs)
			}
			if rec.At < prevAt {
				t.Fatalf("timeline out of order for tid %d: %v", tid, recs)
			}
			prevAt = rec.At
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent: the newest timeline survived the last lap intact.
	final := lastTid.Load()
	recs := o.TraceOf(final)
	if len(recs) != len(kinds) {
		t.Fatalf("quiescent TraceOf(%d) = %d records, want the complete timeline:\n%v",
			final, len(recs), recs)
	}
	for i, kind := range kinds {
		if recs[i].Kind != kind {
			t.Fatalf("record %d kind %s, want %s", i, recs[i].Kind, kind)
		}
	}
}

func TestPromRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(100)
	h.Observe(200)
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Gauge("dudetm_durable_tid", "durable frontier", 42)
	pw.Family("dudetm_stage_queue_depth", "gauge", "backlog", "stage", []string{"persist"}, func(int) float64 { return 3 })
	pw.Histogram("dudetm_fence_seconds", "fence duration", h.Snapshot(), 1e-9)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	m := sc.Series
	if m["dudetm_durable_tid"] != 42 {
		t.Errorf("gauge = %v", m["dudetm_durable_tid"])
	}
	if m[`dudetm_stage_queue_depth{stage="persist"}`] != 3 {
		t.Errorf("labeled gauge = %v", m[`dudetm_stage_queue_depth{stage="persist"}`])
	}
	if m["dudetm_fence_seconds_count"] != 2 {
		t.Errorf("hist count = %v", m["dudetm_fence_seconds_count"])
	}
	if m[`dudetm_fence_seconds_bucket{le="+Inf"}`] != 2 {
		t.Errorf("+Inf bucket = %v", m[`dudetm_fence_seconds_bucket{le="+Inf"}`])
	}
	if p := sc.Check(); len(p) != 0 {
		t.Errorf("Check() = %q", p)
	}
}

func BenchmarkCommitDisabled(b *testing.B) {
	o := New(Config{SampleEvery: 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Commit(uint64(i))
	}
}

func BenchmarkCommitSampled(b *testing.B) {
	o := New(Config{SampleEvery: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Commit(uint64(i) + 1)
		if i%64 == 0 {
			o.DurableAdvanced(uint64(i) + 1)
			o.ReproducedAdvanced(uint64(i) + 1)
			o.AckedAdvanced(uint64(i) + 1)
		}
	}
}
