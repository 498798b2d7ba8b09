package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Host awareness. On a small shared sandbox the hypervisor takes the
// CPUs away for seconds at a time, and a wall-clock number measured
// through such a spell says nothing about the program. Every phase is
// therefore cut into 200 ms windows, each window records the share
// of CPU time /proc/stat reports as stolen, and timing metrics are
// computed per window over the quiet windows only: rates as sums over
// them, latency quantiles reduced with steady (below), which leans
// towards the least disturbed windows.
// Counts use the whole phase: they survive steal. CPU time does not —
// the program's spin-waits burn more of it while the thread they wait
// for is descheduled — so it is taken over the quiet windows too.

const (
	// quietSteal is the largest stolen share of a window's CPU time at
	// which the window still counts as quiet.
	quietSteal = 0.02
	// windowLen is the length of one steal window. The hypervisor steals
	// in bursts of a few hundred milliseconds, seconds apart even in a
	// bad spell, so short windows leave clean ones between the bursts
	// where one-second windows (the design's choice) are all tainted.
	// 200 ms is 40 jiffies over two CPUs: at the 2% threshold a quiet
	// window is one with no stolen jiffy at all.
	windowLen = 200 * time.Millisecond
	// sampleTick is how often the sampler polls pipeline gauges; a
	// window closes every windowLen/sampleTick ticks.
	sampleTick = 100 * time.Millisecond
	// quietStreak is how many consecutive quiet seconds end an idle
	// wait, and maxIdle bounds that wait. (The design said 3 s within
	// 30 s; the driver's cap on the total time of its runs leaves room
	// for 2 s within 4.)
	quietStreak = 2
	maxIdle     = 4 * time.Second
)

// stealReader reads the host's cumulative CPU accounting: jiffies
// stolen by the hypervisor and jiffies in total. ok is false where the
// platform reports no steal column; every window is then quiet.
type stealReader interface {
	read() (steal, total uint64, ok bool)
}

// procStat reads the aggregate cpu line of a /proc/stat file.
type procStat struct{ path string }

func (p procStat) read() (steal, total uint64, ok bool) {
	b, err := os.ReadFile(p.path)
	if err != nil {
		return 0, 0, false
	}
	return parseProcStat(string(b))
}

// parseProcStat extracts steal and total from /proc/stat contents. The
// cpu line reads: user nice system idle iowait irq softirq steal guest
// guest_nice; guest time is already inside user.
func parseProcStat(s string) (steal, total uint64, ok bool) {
	line, _, _ := strings.Cut(s, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// window is one steal window of a phase.
type window struct {
	start, end int64   // ns since phase start
	steal      float64 // stolen share of the window's CPU time
	quiet      bool
	done       uint64 // operations completed inside the window
	cpu        int64  // process CPU time spent inside the window, ns
	p50, p90   int64  // latency phase: quantiles of the requests due inside the window, ns
}

// classify turns one window's jiffy deltas into its stolen share and
// whether it is quiet. Without a steal column every window is quiet.
func classify(stealDelta, totalDelta uint64, hasSteal bool) (frac float64, quiet bool) {
	if !hasSteal || totalDelta == 0 {
		return 0, true
	}
	frac = float64(stealDelta) / float64(totalDelta)
	return frac, frac <= quietSteal
}

// quietFrac returns the share of windows that are quiet (1 for none).
func quietFrac(ws []window) float64 {
	if len(ws) == 0 {
		return 1
	}
	q := 0
	for _, w := range ws {
		if w.quiet {
			q++
		}
	}
	return float64(q) / float64(len(ws))
}

// stealFrac returns the mean stolen share over the windows.
func stealFrac(ws []window) float64 {
	var s float64
	for _, w := range ws {
		s += w.steal
	}
	return ratio(s, float64(len(ws)))
}

// usable returns the windows timing metrics are computed over: the quiet
// ones, or — when the phase is being reported noisy — the quarter of its
// windows with the least steal, which is the cleanest data it has.
func usable(ws []window, noisy bool) []window {
	var out []window
	if !noisy {
		for _, w := range ws {
			if w.quiet {
				out = append(out, w)
			}
		}
		return out
	}
	out = append(out, ws...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].steal < out[j].steal })
	return out[:(len(out)+3)/4]
}

// steady reduces per-window values of a timing metric to one figure:
// the value a quarter of the way in from the better end (the ninth
// smallest of 35 latencies, the fourth largest of 15 rates).
// Interference from the host only ever makes a window worse, so the
// better windows are the ones that say what the program does; stopping
// short of the very best keeps one lucky window from setting the figure.
// A slowdown in the program itself moves every window, this one too.
func steady(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	rank := (len(vs) + 3) / 4 // ceil(n/4), 1-based from the better end
	if better == "higher" {
		return vs[len(vs)-rank]
	}
	return vs[rank-1]
}

// measureQuiet runs a phase and applies the quiet rule: when fewer than
// half of its windows were quiet it idles until the host calms down and
// runs the phase once more; a second noisy attempt is kept and flagged.
// run returns the attempt's windows; it keeps the rest of its results
// itself, so the last attempt's are the ones reported.
func measureQuiet(run func(attempt int) []window, idle func()) (noisy bool) {
	if quietFrac(run(1)) >= 0.5 {
		return false
	}
	idle()
	return quietFrac(run(2)) < 0.5
}

// waitQuiet blocks until the host has been quiet for quietStreak
// consecutive seconds, or maxWait has passed. Steal is only charged
// while a CPU is wanted, so the probe keeps every processor spinning;
// an idle process would read zero steal on the busiest host.
func waitQuiet(src stealReader, maxWait time.Duration) {
	if _, _, ok := src.read(); !ok {
		return
	}
	deadline := time.Now().Add(maxWait)
	streak := 0
	for streak < quietStreak && time.Now().Before(deadline) {
		s0, t0, _ := src.read()
		spinAll(time.Second)
		s1, t1, _ := src.read()
		if _, quiet := classify(s1-s0, t1-t0, true); quiet {
			streak++
		} else {
			streak = 0
		}
	}
}

// spinAll keeps GOMAXPROCS goroutines busy for d.
func spinAll(d time.Duration) {
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
			}
		}()
	}
	wg.Wait()
}

// sampler cuts a running phase into windows. Every sampleTick it calls
// gauge (which polls pipeline gauges for their maxima); every windowLen
// it closes a window with the steal delta and the completions since the
// last one.
type sampler struct {
	src       stealReader
	completed func() uint64
	gauge     func()
	start     time.Time
	tick      time.Duration
	window    time.Duration
	stopCh    chan struct{}
	doneCh    chan struct{}
	windows   []window
}

func startSampler(src stealReader, start time.Time, completed func() uint64, gauge func()) *sampler {
	s := &sampler{src: src, completed: completed, gauge: gauge, start: start, tick: sampleTick, window: windowLen,
		stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.doneCh)
	perWindow := int(s.window / s.tick)
	tk := time.NewTicker(s.tick)
	defer tk.Stop()
	steal0, total0, hasSteal := s.src.read()
	var from int64
	done0, cpu0 := s.completed(), cpuNanos()
	closeWindow := func() {
		now := int64(time.Since(s.start))
		steal1, total1, _ := s.src.read()
		done1, cpu1 := s.completed(), cpuNanos()
		frac, quiet := classify(steal1-steal0, total1-total0, hasSteal)
		s.windows = append(s.windows, window{start: from, end: now, steal: frac, quiet: quiet, done: done1 - done0, cpu: cpu1 - cpu0})
		from, steal0, total0, done0, cpu0 = now, steal1, total1, done1, cpu1
	}
	for ticks := 1; ; ticks++ {
		select {
		case <-s.stopCh:
			// Keep a trailing partial window only if it is most of one;
			// a sliver's steal share and rate are too coarse to use.
			if int64(time.Since(s.start))-from >= int64(s.window)*8/10 || len(s.windows) == 0 {
				closeWindow()
			}
			return
		case <-tk.C:
			if s.gauge != nil {
				s.gauge()
			}
			if ticks%perWindow == 0 {
				closeWindow()
			}
		}
	}
}

// stop ends sampling and returns the windows.
func (s *sampler) stop() []window {
	close(s.stopCh)
	<-s.doneCh
	return s.windows
}

// cpuNanos returns the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var spinSink atomic.Uint64 // keeps the compiler from deleting the loop

// spinMs times a fixed 50 M-iteration integer loop: a crude reading of
// how fast this host's CPU is right now, printed beside each workload
// so a slow run can be told from a slow host.
func spinMs() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := uint64(0); i < 50_000_000; i++ {
		x += i ^ (x >> 3)
	}
	spinSink.Store(x)
	return ms(int64(time.Since(t0)))
}
