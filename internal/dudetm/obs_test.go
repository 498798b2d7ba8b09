package dudetm

import (
	"testing"
	"time"

	"dudetm/internal/obs"
)

// TestTraceLifecycleTimeline runs traced transactions through the full
// pipeline and checks that TraceOf reconstructs a monotonic
// Perform→Persist→Reproduce timeline: commit first, reproduce-apply
// last, timestamps non-decreasing.
func TestTraceLifecycleTimeline(t *testing.T) {
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		cfg := testConfig()
		cfg.Mode = mode
		cfg.Threads = 2
		cfg.GroupSize = 4
		cfg.TraceSampleEvery = 1
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for i := uint64(0); i < 40; i++ {
			tid, err := s.Run(int(i%2), func(tx *Tx) error { tx.Store(i*8, i+1); return nil })
			if err != nil {
				t.Fatal(err)
			}
			last = tid
		}
		s.Drain()
		s.Close()

		recs := s.TraceOf(last)
		if len(recs) < 3 {
			t.Fatalf("mode %d: TraceOf(%d) = %d records, want a full lifecycle: %v", mode, last, len(recs), recs)
		}
		seen := map[obs.EventKind]bool{}
		var prevAt int64 = -1
		for i, r := range recs {
			if r.MinTid > last || r.MaxTid < last {
				t.Fatalf("mode %d: record %d range [%d,%d] does not cover tid %d", mode, i, r.MinTid, r.MaxTid, last)
			}
			if r.At < prevAt {
				t.Fatalf("mode %d: record %d out of time order: %d < %d (%v)", mode, i, r.At, prevAt, recs)
			}
			prevAt = r.At
			seen[r.Kind] = true
		}
		for _, k := range []obs.EventKind{obs.EvCommit, obs.EvGroupSeal, obs.EvPersistFence, obs.EvReproApply} {
			if !seen[k] {
				t.Errorf("mode %d: timeline missing %s stamp: %v", mode, k, recs)
			}
		}
		if recs[0].Kind != obs.EvCommit {
			t.Errorf("mode %d: first record = %s, want commit", mode, recs[0].Kind)
		}
		if recs[len(recs)-1].Kind != obs.EvReproApply {
			t.Errorf("mode %d: last record = %s, want reproduce-apply", mode, recs[len(recs)-1].Kind)
		}
	}
}

// TestObsStatsHistograms checks that the latency histograms in
// Stats().Obs account for every committed transaction once the
// pipeline drains: with SampleEvery=1, one commit→durable and one
// commit→reproduced observation per commit; with tracing off, none.
func TestObsStatsHistograms(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 4
	cfg.TraceSampleEvery = 1
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := uint64(0); i < n; i++ {
		if _, err := s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Obs.SampleEvery != 1 || st.Obs.SampledCommits != n {
		t.Errorf("sampled commits = %d (every %d), want %d (every 1)", st.Obs.SampledCommits, st.Obs.SampleEvery, n)
	}
	if st.Obs.CommitDurable.Count != n {
		t.Errorf("commit→durable observations = %d, want %d", st.Obs.CommitDurable.Count, n)
	}
	if st.Obs.CommitReproduced.Count != n {
		t.Errorf("commit→reproduced observations = %d, want %d", st.Obs.CommitReproduced.Count, n)
	}
	if st.Obs.Fence.Count == 0 || st.Obs.GroupTxns.Count == 0 {
		t.Errorf("per-group histograms empty: fences %d groups %d", st.Obs.Fence.Count, st.Obs.GroupTxns.Count)
	}
	if st.Obs.GroupTxns.Sum != n {
		t.Errorf("group-size histogram sums to %d transactions, want %d", st.Obs.GroupTxns.Sum, n)
	}
	if p50 := st.Obs.CommitDurable.Quantile(0.5); p50 == 0 {
		t.Error("commit→durable p50 = 0, want a positive latency")
	}

	// Tracing off (forced, whatever DUDETM_TRACE_SAMPLE says): no
	// transaction is sampled, but the per-group histograms still fill.
	cfg.TraceSampleEvery = -1
	s, err = Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if _, err := s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st = s.Stats()
	if st.Obs.SampledCommits != 0 || st.Obs.CommitDurable.Count != 0 {
		t.Errorf("tracing off: %d commits sampled, %d commit→durable observations, want 0",
			st.Obs.SampledCommits, st.Obs.CommitDurable.Count)
	}
	if st.Obs.GroupTxns.Sum != n {
		t.Errorf("tracing off: group-size histogram sums to %d transactions, want %d", st.Obs.GroupTxns.Sum, n)
	}
}

// TestTraceCrashRecovery crashes a system while tracing is active
// (sampling every transaction) and checks that recovery is unaffected
// and the recovered system traces cleanly: the sample table is
// volatile observability state and must never leak into the durable
// image or the replay.
func TestTraceCrashRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1
	cfg.TraceSampleEvery = 1
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		if _, err := s.Run(0, func(tx *Tx) error { tx.Store((i-1)*8, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-pipeline: no drain, rows torn down wherever they are.
	img := s.Crash()
	dev := s.Device()
	dev.Restore(img)

	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s2.Durable()
	if d != s2.Reproduced() || d != s2.Clock() {
		t.Fatalf("recovered frontiers diverge: durable=%d reproduced=%d clock=%d", d, s2.Reproduced(), s2.Clock())
	}
	s2.Run(0, func(tx *Tx) error {
		for i := uint64(1); i <= d; i++ {
			if v := tx.Load((i - 1) * 8); v != i {
				t.Errorf("addr %d = %d, want %d (durable tx lost)", (i-1)*8, v, i)
			}
		}
		return nil
	})
	// The recovered system's tracing starts fresh and works.
	tid, err := s2.Run(0, func(tx *Tx) error { tx.Store(0, 42); return nil })
	if err != nil {
		t.Fatal(err)
	}
	s2.Drain()
	if recs := s2.TraceOf(tid); len(recs) == 0 || recs[0].Kind != obs.EvCommit {
		t.Errorf("post-recovery TraceOf(%d) = %v, want a fresh timeline", tid, recs)
	}
	s2.Close()
}

// TestCritpathFenceBudget pins the zero-added-fence contract of the
// tracing and critpath paths: an identical deterministic workload run
// with sampling off and with sampling 1-in-1 issues exactly the same
// number of device persist barriers, and the persist stage spends one
// fence per group in both. Every sampled transaction is decomposed
// before the counters are read, so the critpath work is proven to never
// touch the device.
func TestCritpathFenceBudget(t *testing.T) {
	const n = 100
	run := func(sample int) (regions map[string]uint64, stageFences, groups uint64) {
		cfg := testConfig()
		cfg.Threads = 1
		cfg.GroupSize = 1 // every txn its own group: fence count is exact
		cfg.TraceSampleEvery = sample
		s, err := Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Commit under a frozen Reproduce, so the whole run queues as a
		// dense backlog and replay groups it into epochs every time,
		// however the scheduler interleaves the stages.
		s.PauseReproduce()
		var last uint64
		for i := uint64(0); i < n; i++ {
			tid, err := s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil })
			if err != nil {
				t.Fatal(err)
			}
			last = tid
		}
		if err := s.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
		s.ResumeReproduce()
		s.Drain()
		if sample > 0 {
			// Every sampled transaction must be decomposed before the
			// fence counters are read.
			deadline := time.Now().Add(5 * time.Second)
			for {
				crit := s.Stats().Obs.Crit
				if crit.Txns+crit.Incomplete+crit.Dropped >= n {
					if crit.Txns != n {
						t.Fatalf("sampling %d: decomposed %d of %d (incomplete %d, dropped %d)",
							sample, crit.Txns, n, crit.Incomplete, crit.Dropped)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("sampling %d: collector stuck at %+v", sample, crit)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		st := s.Stats()
		s.Close()
		if sample < 0 && st.Obs.SampledCommits != 0 {
			t.Fatalf("tracing off: %d of %d commits sampled", st.Obs.SampledCommits, n)
		}
		return regionFences(t, st), st.Persist.Fences, st.Persist.Groups
	}
	rOff, fOff, gOff := run(-1) // -1: off even under DUDETM_TRACE_SAMPLE
	rOn, fOn, gOn := run(1)
	if gOff != n || gOn != n {
		t.Fatalf("groups = %d/%d, want %d each (GroupSize 1)", gOff, gOn, n)
	}
	// Steady-state cost: exactly one persist barrier per group, and the
	// log region carries exactly that barrier — identical with tracing
	// off and fully on.
	if fOff != gOff || fOn != gOn {
		t.Errorf("persist fences = %d/%d for %d groups, want one fence per group", fOff, fOn, n)
	}
	if rOff["log"] != n || rOn["log"] != n {
		t.Errorf("log-region fences = %d/%d, want exactly %d with tracing off/on", rOff["log"], rOn["log"], n)
	}
	// Boot-time regions must match exactly; tracing happens after boot.
	for _, region := range []string{"header", "blackbox"} {
		if rOn[region] != rOff[region] {
			t.Errorf("%s-region fences: %d with sampling on vs %d off", region, rOn[region], rOff[region])
		}
	}
	// Batched maintenance (meta recycles on a deferral timer, data
	// replay epochs over the paused backlog) may split a batch
	// differently when the tracer shifts timing by microseconds — but it
	// must stay batched, nowhere near one fence per transaction.
	for _, region := range []string{"meta", "data"} {
		if rOn[region] > n/4 || rOff[region] > n/4 {
			t.Errorf("%s-region fences = %d/%d for %d txns — maintenance no longer batched",
				region, rOff[region], rOn[region], n)
		}
	}
}

// regionFences indexes a Stats snapshot's per-region fence counters.
func regionFences(t *testing.T, st Stats) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, r := range st.Regions {
		out[r.Name] = r.Fences
	}
	return out
}

// TestWatchdogQuietDuringPauseDrills pins the suppression contract:
// PausePersist / PauseReproduce freeze a frontier with work queued
// behind it — the exact shape of a stall — and the watchdog must not
// fire, because the pause flags explain the freeze.
func TestWatchdogQuietDuringPauseDrills(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1
	// Wide enough that two consecutive ticks never both land inside one
	// race-detector scheduling hiccup (a 2ms interval false-fires under
	// -race); the pause sleeps below still span several ticks, so the
	// watchdog does sample the frozen-frontier shape it must stay quiet
	// about.
	cfg.Watchdog = 25 * time.Millisecond
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) uint64 {
		var last uint64
		for i := 0; i < n; i++ {
			tid, err := s.Run(0, func(tx *Tx) error { tx.Store(0, uint64(i)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			last = tid
		}
		return last
	}
	run(20)

	s.PausePersist()
	run(10) // commits pile up behind the frozen durable frontier
	time.Sleep(100 * time.Millisecond)
	s.ResumePersist()

	last := run(10)
	s.WaitDurable(last)
	s.PauseReproduce()
	run(10)
	time.Sleep(100 * time.Millisecond)
	s.ResumeReproduce()

	s.Drain()
	s.Close()
	if st := s.Stats(); st.Stalls != 0 {
		t.Fatalf("watchdog fired %d times during pause drills", st.Stalls)
	}
}

// TestWatchdogFiresOnGenuineStall wedges the Persist coordinator
// directly — holding its gate without raising the pause flag, the
// shape of a real deadlock — and checks the watchdog fires with a
// usable report.
func TestWatchdogFiresOnGenuineStall(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1
	cfg.TraceSampleEvery = 1
	cfg.Watchdog = 2 * time.Millisecond
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Run(0, func(tx *Tx) error { tx.Store(0, 1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()

	s.persistGate.Lock() // wedge the coordinator, no pause flag
	var last uint64
	for i := 0; i < 5; i++ {
		if last, err = s.Run(0, func(tx *Tx) error { tx.Store(8, 2); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A slow first batch can already have raised a reproduce-lag report;
	// the wedge's report is the one whose clock covers the wedged commits.
	deadline := time.Now().Add(2 * time.Second)
	r := s.LastStall()
	for ; r == nil || r.Clock < last; r = s.LastStall() {
		if time.Now().After(deadline) {
			s.persistGate.Unlock()
			t.Fatal("watchdog never fired on a wedged persist coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	rep := *r
	s.persistGate.Unlock()

	if rep.Stage != "persist" {
		t.Errorf("report stage = %q, want persist", rep.Stage)
	}
	if rep.Clock <= rep.Durable {
		t.Errorf("report clock=%d durable=%d: no work behind the frontier", rep.Clock, rep.Durable)
	}
	if len(rep.Trace) == 0 {
		t.Error("report carries no trace tail")
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}

	s.Drain()
	s.Close()
	if s.Stats().Stalls == 0 {
		t.Error("Stats().Stalls = 0 after a detected stall")
	}
}

// TestStallVerdict unit-tests the watchdog's pure decision function.
func TestStallVerdict(t *testing.T) {
	base := watchSample{valid: true, clock: 10, durable: 5, reproduced: 5}
	cases := []struct {
		name         string
		prev, cur    watchSample
		wantP, wantR bool
	}{
		{"first tick", watchSample{}, base, false, false},
		{"persist stuck", base, base, true, false},
		{"durable moved", base, watchSample{valid: true, clock: 12, durable: 7, reproduced: 5}, false, false},
		{"repro stuck", watchSample{valid: true, clock: 10, durable: 10, reproduced: 5},
			watchSample{valid: true, clock: 10, durable: 10, reproduced: 5}, false, true},
		{"both stuck", watchSample{valid: true, clock: 10, durable: 8, reproduced: 5},
			watchSample{valid: true, clock: 10, durable: 8, reproduced: 5}, true, true},
		{"idle", watchSample{valid: true, clock: 5, durable: 5, reproduced: 5},
			watchSample{valid: true, clock: 5, durable: 5, reproduced: 5}, false, false},
		{"persist paused", base, watchSample{valid: true, clock: 10, durable: 5, reproduced: 5, persistPaused: true}, false, false},
		{"persist pause also masks repro", watchSample{valid: true, clock: 10, durable: 8, reproduced: 5, persistPaused: true},
			watchSample{valid: true, clock: 10, durable: 8, reproduced: 5, persistPaused: true}, false, false},
		{"repro paused", watchSample{valid: true, clock: 10, durable: 10, reproduced: 5, reproPaused: true},
			watchSample{valid: true, clock: 10, durable: 10, reproduced: 5, reproPaused: true}, false, false},
		{"pause just released", watchSample{valid: true, clock: 10, durable: 5, reproduced: 5, persistPaused: true},
			base, false, false},
		{"shutdown", base, watchSample{valid: true, clock: 10, durable: 5, reproduced: 5, quiet: true}, false, false},
	}
	for _, c := range cases {
		p, r := stallVerdict(c.prev, c.cur)
		if p != c.wantP || r != c.wantR {
			t.Errorf("%s: verdict = (%v,%v), want (%v,%v)", c.name, p, r, c.wantP, c.wantR)
		}
	}
}
