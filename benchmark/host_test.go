package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	steal, total, ok := parseProcStat("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	if !ok || steal != 35 || total != 1000 {
		t.Errorf("steal %d total %d ok %v, want 35 1000 true", steal, total, ok)
	}
	// A kernel without the steal column: graceful, not an error.
	if _, _, ok := parseProcStat("cpu  100 0 50 800 10 0 5\n"); ok {
		t.Error("a cpu line without a steal column parsed as having one")
	}
	if _, _, ok := parseProcStat(""); ok {
		t.Error("an empty file parsed")
	}
	if _, _, ok := (procStat{path: "/nonexistent/stat"}).read(); ok {
		t.Error("a missing file read as ok")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		steal, total uint64
		has, quiet   bool
	}{
		{0, 200, true, true},
		{4, 200, true, true},   // exactly 2%: still quiet
		{5, 200, true, false},  // 2.5%
		{90, 200, true, false}, // the 45% spells the design saw
		{90, 200, false, true}, // no steal column: everything is quiet
		{0, 0, true, true},
	}
	for _, c := range cases {
		if _, quiet := classify(c.steal, c.total, c.has); quiet != c.quiet {
			t.Errorf("classify(%d, %d, %v) quiet = %v, want %v", c.steal, c.total, c.has, quiet, c.quiet)
		}
	}
}

func windowsOf(quiet ...bool) []window {
	ws := make([]window, len(quiet))
	for i, q := range quiet {
		ws[i] = window{start: int64(i) * 1e9, end: int64(i+1) * 1e9, quiet: q}
		if !q {
			ws[i].steal = 0.4
		}
	}
	return ws
}

// TestMeasureQuiet: the >= 50% quiet rule, the single bounded retry, and
// noisy propagation.
func TestMeasureQuiet(t *testing.T) {
	cases := []struct {
		name      string
		attempts  [][]window
		wantRuns  int
		wantIdles int
		wantNoisy bool
	}{
		{"quiet at once", [][]window{windowsOf(true, true, true, false)}, 1, 0, false},
		{"exactly half quiet is enough", [][]window{windowsOf(true, false)}, 1, 0, false},
		{"noisy, then quiet", [][]window{windowsOf(false, false, true), windowsOf(true, true, true)}, 2, 1, false},
		{"noisy twice: kept and flagged, no third run", [][]window{windowsOf(false, false, true), windowsOf(false, false, false)}, 2, 1, true},
	}
	for _, c := range cases {
		runs, idles := 0, 0
		noisy := measureQuiet(func(attempt int) []window {
			runs++
			if attempt != runs {
				t.Errorf("%s: attempt %d on run %d", c.name, attempt, runs)
			}
			return c.attempts[attempt-1]
		}, func() { idles++ })
		if runs != c.wantRuns || idles != c.wantIdles || noisy != c.wantNoisy {
			t.Errorf("%s: %d runs, %d idles, noisy %v; want %d, %d, %v", c.name, runs, idles, noisy, c.wantRuns, c.wantIdles, c.wantNoisy)
		}
	}
}

func TestUsableWindows(t *testing.T) {
	ws := windowsOf(true, false, true)
	if got := usable(ws, false); len(got) != 2 || !got[0].quiet || !got[1].quiet {
		t.Errorf("quiet phase: usable = %+v, want the two quiet windows", got)
	}
	if got := usable(ws, true); len(got) != 1 || !got[0].quiet {
		t.Errorf("noisy phase: usable = %+v, want the least-stolen quarter (one window)", got)
	}
	if f := quietFrac(ws); f < 0.66 || f > 0.67 {
		t.Errorf("quietFrac = %v, want 2/3", f)
	}
	if f := stealFrac(ws); f < 0.13 || f > 0.14 {
		t.Errorf("stealFrac = %v, want 0.4/3", f)
	}
}

// scriptedSteal plays back synthetic /proc/stat readings: each read
// advances total by 100 jiffies and steal by the next scripted amount.
type scriptedSteal struct {
	steps        []uint64
	i            int
	steal, total uint64
	absent       bool
}

func (s *scriptedSteal) read() (uint64, uint64, bool) {
	if s.absent {
		return 0, 0, false
	}
	if s.i > 0 { // the first read is the baseline
		s.total += 100
		s.steal += s.steps[min(s.i-1, len(s.steps)-1)]
	}
	s.i++
	return s.steal, s.total, true
}

// TestSamplerWindows drives the sampler with synthetic steal deltas: it
// must cut windows on schedule, classify each from its own delta, and
// attribute completions to the window they happened in.
func TestSamplerWindows(t *testing.T) {
	var completed atomic.Uint64
	src := &scriptedSteal{steps: []uint64{0, 40, 1}}
	s := &sampler{src: src, completed: completed.Load, start: time.Now(), tick: 2 * time.Millisecond, window: 10 * time.Millisecond,
		stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	var gauged atomic.Int64
	s.gauge = func() { gauged.Add(1); completed.Add(3) }
	go s.loop()
	for len(src.steps) > 0 && gauged.Load() < 15 {
		time.Sleep(time.Millisecond)
	}
	ws := s.stop()
	if len(ws) < 3 {
		t.Fatalf("%d windows after 15 ticks of 5 per window, want at least 3", len(ws))
	}
	want := []bool{true, false, true}
	for i, q := range want {
		if ws[i].quiet != q {
			t.Errorf("window %d: quiet %v (steal %.2f), want %v", i, ws[i].quiet, ws[i].steal, q)
		}
		if ws[i].done != 15 {
			t.Errorf("window %d: %d completions, want 15 (5 ticks x 3)", i, ws[i].done)
		}
		if ws[i].end <= ws[i].start || (i > 0 && ws[i].start != ws[i-1].end) {
			t.Errorf("window %d spans [%d, %d), previous ended %d", i, ws[i].start, ws[i].end, ws[max(i-1, 0)].end)
		}
	}

	// No steal column: every window is quiet, whatever else happens.
	s2 := &sampler{src: &scriptedSteal{absent: true}, completed: completed.Load, start: time.Now(), tick: time.Millisecond, window: 2 * time.Millisecond,
		stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	go s2.loop()
	time.Sleep(10 * time.Millisecond)
	for _, w := range s2.stop() {
		if !w.quiet || w.steal != 0 {
			t.Errorf("without a steal column: window %+v", w)
		}
	}
}

func TestWaitQuietWithoutStealColumn(t *testing.T) {
	t0 := time.Now()
	waitQuiet(&scriptedSteal{absent: true}, time.Minute)
	if d := time.Since(t0); d > time.Second {
		t.Errorf("waitQuiet idled %s on a host with no steal column", d)
	}
}
