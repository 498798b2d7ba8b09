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

func TestTraceRingWrap(t *testing.T) {
	r := newTraceRing(8)
	for i := uint64(1); i <= 20; i++ {
		r.put(EvCommit, i, i, int64(i), 0, 0)
	}
	recs := r.collect(nil, 0)
	if len(recs) != 8 {
		t.Fatalf("collected %d records from a ring of 8", len(recs))
	}
	for _, rec := range recs {
		if rec.MinTid <= 12 {
			t.Errorf("record for tid %d survived 20 puts in a ring of 8", rec.MinTid)
		}
	}
	if got := r.collect(nil, 15); len(got) != 1 || got[0].MinTid != 15 {
		t.Fatalf("collect(tid=15) = %v", got)
	}
}

func TestSampling(t *testing.T) {
	o := New(Config{SampleEvery: 4, Sources: 1})
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
	off := New(Config{SampleEvery: 0, Sources: 1})
	if off.Sampled(4) || off.rangeSampled(1, 100) {
		t.Error("sampling disabled but Sampled/rangeSampled returned true")
	}
}

func TestTraceOfTimeline(t *testing.T) {
	o := New(Config{SampleEvery: 1, Sources: 3})
	o.Commit(0, 7)
	seal := o.GroupSealed(1, 6, 9, 4, 16)
	start := o.Now()
	end := o.Now() + 1
	o.GroupPersisted(1, 6, 9, seal, start, end)
	o.GroupApplied(2, 6, 9)
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
	o := New(Config{SampleEvery: 1, Sources: 1})
	o.Commit(0, 1)
	o.Commit(0, 2)
	o.DurableAdvanced(1)
	s := o.Snapshot()
	if s.CommitDurable.Count != 1 {
		t.Fatalf("commit→durable count = %d, want 1", s.CommitDurable.Count)
	}
	o.DurableAdvanced(5)
	o.ReproducedAdvanced(5)
	o.AckedAdvanced(0, 5)
	s = o.Snapshot()
	if s.CommitDurable.Count != 2 || s.CommitReproduced.Count != 2 {
		t.Fatalf("after full advance: durable %d reproduced %d, want 2/2",
			s.CommitDurable.Count, s.CommitReproduced.Count)
	}
	if o.pendN.Load() != 0 {
		t.Fatalf("pendN = %d after draining everything", o.pendN.Load())
	}
	o.Close()
}

// TestDisabledHooksAllocFree pins the disabled-sampling hot path at
// zero allocations: tracing off must cost a comparison, not garbage.
func TestDisabledHooksAllocFree(t *testing.T) {
	o := New(Config{SampleEvery: 0, Sources: 2})
	tid := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		o.Commit(0, tid)
		o.DurableAdvanced(tid)
		o.ReproducedAdvanced(tid)
	}); n != 0 {
		t.Fatalf("disabled per-txn hooks allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		seal := o.GroupSealed(1, tid, tid, 1, 4)
		o.GroupPersisted(1, tid, tid, seal, seal, seal+1)
		o.GroupApplied(1, tid, tid)
	}); n != 0 {
		t.Fatalf("per-group hooks allocate %.1f/op, want 0", n)
	}
}

// TestSampledStampAllocFree pins the sampled ring stamp itself at zero
// allocations (the pending-latency append may grow its slice; the
// slices are primed first).
func TestSampledStampAllocFree(t *testing.T) {
	o := New(Config{SampleEvery: 1, Sources: 1})
	o.pendDur = make([]pendTx, 0, 4096)
	o.pendRepro = make([]pendTx, 0, 4096)
	o.pendAck = make([]pendTx, 0, 4096)
	tid := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		tid++
		o.Commit(0, tid)
	}); n != 0 {
		t.Fatalf("sampled Commit allocates %.1f/op, want 0", n)
	}
}

// TestTraceRingReaderRace drives a writer and a concurrent reader over
// one ring; under -race this proves the seqlock publication is clean,
// and in any mode it checks a reader never observes a torn record.
func TestTraceRingReaderRace(t *testing.T) {
	r := newTraceRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Tear detection: every field of a stable record carries i.
			r.put(EvCommit, i, i, int64(i), i, int64(i))
		}
	}()
	for n := 0; n < 200; n++ {
		for _, rec := range r.collect(nil, 0) {
			if rec.MinTid != rec.MaxTid || rec.At != int64(rec.MinTid) ||
				rec.Arg != rec.MinTid || rec.Dur != rec.At {
				t.Fatalf("torn record: %+v", rec)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestTraceOfWraparoundRace races TraceOf against a writer that laps a
// tiny ring many times over: a timeline read mid-wrap must come back
// either as internally consistent records or as a clean miss — never
// torn — and once the writer quiesces, the newest transaction's full
// timeline is reconstructible. Run under -race this also proves the
// seqlock publication across the wrap boundary.
func TestTraceOfWraparoundRace(t *testing.T) {
	o := New(Config{SampleEvery: 1, Sources: 1, RingEntries: 8})
	defer o.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lastTid atomic.Uint64
	// One timeline = three adjacent stamps; a ring of 8 holds barely two
	// timelines, so the reader constantly observes slots mid-overwrite.
	stamp := func(tid uint64) {
		o.rings[0].put(EvCommit, tid, tid, int64(tid*10), tid, int64(tid))
		o.rings[0].put(EvGroupSeal, tid, tid, int64(tid*10+1), tid, int64(tid))
		o.rings[0].put(EvPersistFence, tid, tid, int64(tid*10+2), tid, int64(tid))
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
	for n := 0; n < 500; n++ {
		tid := lastTid.Load()
		recs := o.TraceOf(tid)
		// Complete, partial-but-consistent, or clean miss — each
		// surviving record must carry tid in every field (tear check)
		// and the timeline must stay time-ordered.
		var prevAt int64 = -1
		for _, rec := range recs {
			if rec.MinTid != tid || rec.MaxTid != tid || rec.Arg != tid ||
				rec.Dur != int64(tid) || rec.At/10 != int64(tid) {
				t.Fatalf("torn record for tid %d: %+v", tid, rec)
			}
			if rec.At <= prevAt {
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
	if len(recs) != 3 {
		t.Fatalf("quiescent TraceOf(%d) = %d records, want the complete 3-stamp timeline:\n%v",
			final, len(recs), recs)
	}
	for i, kind := range []EventKind{EvCommit, EvGroupSeal, EvPersistFence} {
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
	o := New(Config{SampleEvery: 0, Sources: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Commit(0, uint64(i))
	}
}

func BenchmarkCommitSampled(b *testing.B) {
	o := New(Config{SampleEvery: 1, Sources: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Commit(0, uint64(i)+1)
		if i%64 == 0 {
			o.DurableAdvanced(uint64(i) + 1)
			o.ReproducedAdvanced(uint64(i) + 1)
		}
	}
}
