// Command benchmark is the repository's benchmark: four seeded
// workloads over the DudeTM library and the dudesrv service, measured
// from outside through public functions and Stats() snapshots only.
//
// The driver's contract (BENCHMARK.json at the repository root) runs it
// one workload at a time:
//
//	go run ./benchmark --workload kv-put --seed 7 --seconds 10 --trace 0
//
// and reads the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Without
// -workload it runs all four; see README.md for -quick, -selfcheck and
// -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four, in order)")
		seed      = flag.Uint64("seed", 1, "workload seed: schedule, keys and values derive from it alone")
		seconds   = flag.Int("seconds", runSeconds, "measured seconds per workload, split between its latency and capacity phases")
		trace     = flag.Int("trace", 0, "1: the traced run (spans, critical paths, layer ladder; prints per-layer metrics); 0: the measured run (prints end-to-end metrics)")
		quick     = flag.Bool("quick", false, "smoke scale: 1 s phases, 5 K keys, small pools")
		selfcheck = flag.Bool("selfcheck", false, "run the measured suite twice with the same seed and hold every workload x end-to-end metric to its bound")
		out       = flag.String("out", "", "also write the full report (header, every metric with its sample count) to this file as JSON")
		traceDir  = flag.String("tracedir", filepath.Join("benchmark", "out"), "directory the traced run writes trace-<workload>.json into")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json as declared in spec.go and exit")
	)
	flag.Parse()
	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-selfcheck] [-out FILE]")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *quick {
		*seconds = 1
	}
	cfg := newRunConfig(*seed, *seconds, *trace == 1, *quick, *traceDir)
	printHeader(os.Stdout, cfg)

	if *selfcheck {
		first := runSuite(cfg, names)
		second := runSuite(cfg, names)
		if !compareSuites(os.Stdout, first, second) {
			os.Exit(1)
		}
		return
	}

	results := runSuite(cfg, names)
	if *out != "" {
		if err := writeJSON(*out, report{Header: headerOf(cfg), Workloads: results}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line := resultLine(cfg, results)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	LostAcked int64    `json:"lost_acked"`
	Noisy     bool     `json:"noisy"`
	Seconds   float64  `json:"elapsed_s"`
	Why       []string `json:"why,omitempty"`
	Stages    []string `json:"stages"`
	Metrics   metrics  `json:"metrics"`
	// Windows are each phase's steal windows, for reading a run's
	// weather after the fact.
	Windows map[string][]window `json:"windows"`
}

func runSuite(cfg *runConfig, names []string) []result {
	var out []result
	for _, name := range names {
		res := runWorkload(cfg, name)
		printResult(os.Stdout, res)
		out = append(out, res)
	}
	return out
}

// runWorkload runs one workload under its watchdog. A workload that
// outlives three times its budget is failed, with a goroutine dump
// saying where it hung, rather than left hanging.
func runWorkload(cfg *runConfig, name string) result {
	t0 := time.Now()
	limit := 3 * cfg.budget()
	dog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s exceeded 3x its budget (%s); goroutines:\n", name, limit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer dog.Stop()

	w := &run{cfg: cfg, name: name, m: metrics{}, tr: newTracer(cfg), windows: map[string][]window{}, stageFrom: t0}
	w.m.set("host.spin_ms", spinMs(), 1)
	var err error
	if name == "tx-btree" {
		err = runBtree(w)
	} else {
		err = runKV(w)
	}
	w.stage("other drills")
	if err == nil && cfg.trace {
		err = runLadder(w)
		w.stage("ladder")
	}
	if err == nil {
		err = w.finish()
	}
	res := result{Workload: name, Attempted: max(1, w.attempted), Failed: w.failed, LostAcked: w.lostAcked,
		Noisy: w.noisy, Seconds: time.Since(t0).Seconds(), Why: w.why, Stages: w.stages, Metrics: w.m, Windows: w.windows}
	if err != nil {
		res.Why = append(res.Why, err.Error())
		res.Failed++
	}
	for name, v := range w.m {
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			res.Why = append(res.Why, fmt.Sprintf("metric %s is not finite", name))
			w.m[name] = value{N: v.N}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.LostAcked == 0
	return res
}

// header states the system under test and the host it ran on.
type header struct {
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Quick      bool   `json:"quick"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Pool       string `json:"pool_options"`
	Load       string `json:"load"`
	Phases     string `json:"phases"`
}

func headerOf(cfg *runConfig) header {
	p := cfg.plan()
	return header{
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Pool: fmt.Sprintf("DataSize=%dMiB Threads=%d (tx-btree %d) GroupSize=%d Watchdog=1s Timing=true Latency=1000cycles Bandwidth=1GB/s TraceSampleEvery=%s; DUDETM_STAGE_THREADS and DUDETM_TRACE_SAMPLE unset",
			cfg.dataSize>>20, kvThreads, btreeThreads, groupSize, map[bool]string{false: "-1 (off)", true: "64"}[cfg.trace]),
		Load: fmt.Sprintf("in-process, %d generator goroutines / pipelined connections; %d keys x %d B values, %d records x %d B; closed-loop window %d per connection",
			conns, cfg.keys, valueBytes, cfg.records, recordWords*8, inflight),
		Phases: fmt.Sprintf("set-up up to x%d, warm-up %s, baseline %s, latency %s (open loop), capacity %s (closed loop), recovery backlog %d tx x%d mounts",
			cfg.setups, cfg.warmup, p.baseline, p.latency, p.capacity, cfg.backlog, cfg.mounts),
	}
}

// commit names the source revision: the build's VCS stamp when there is
// one, else the checkout's HEAD, else unknown (the driver's checkout is
// not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func printHeader(w io.Writer, cfg *runConfig) {
	h := headerOf(cfg)
	fmt.Fprintf(w, "# dudetm benchmark: seed %d, %d s per workload, trace %v, quick %v\n", h.Seed, h.Seconds, h.Trace, h.Quick)
	fmt.Fprintf(w, "# host: nproc %d, GOMAXPROCS %d, %s, commit %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "# pool: %s\n# load: %s\n# phases: %s\n", h.Pool, h.Load, h.Phases)
}

// printResult prints every metric the workload measured, by name, with
// its unit and sample count: end-to-end first, then per-layer in
// declaration order.
func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "\n## %s: correct %v, attempted %d, failed %d, lost_acked %d, noisy %v, %.1f s\n",
		res.Workload, res.Correct, res.Attempted, res.Failed, res.LostAcked, res.Noisy, res.Seconds)
	for _, k := range []string{"host.spin_ms", "host.steal_frac", "host.quiet_frac"} {
		if v, ok := res.Metrics[k]; ok {
			fmt.Fprintf(w, "#   %s %.4g", k, v.V)
		}
	}
	fmt.Fprintf(w, "\n#   stages: %s\n", strings.Join(res.Stages, ", "))
	for _, why := range res.Why {
		fmt.Fprintf(w, "!   %s\n", why)
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			v, ok := res.Metrics[s.Name]
			if !ok {
				continue
			}
			mark := ""
			if res.Noisy && s.Bound > 0 {
				mark = "  (noisy host: unresolved)"
			}
			fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%d%s\n", s.Name, v.V, s.Unit, v.N, mark)
		}
	}
}

// report is the -out file.
type report struct {
	Header    header   `json:"header"`
	Workloads []result `json:"workloads"`
}

func (w window) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		StartMs float64 `json:"start_ms"`
		EndMs   float64 `json:"end_ms"`
		Steal   float64 `json:"steal_frac"`
		Quiet   bool    `json:"quiet"`
		Done    uint64  `json:"completed"`
		CPUMs   float64 `json:"cpu_ms"`
		P50Ms   float64 `json:"p50_ms"`
		P90Ms   float64 `json:"p90_ms"`
	}{ms(w.start), ms(w.end), w.steal, w.quiet, w.done, ms(w.cpu), ms(w.p50), ms(w.p90)})
}

func (v value) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Value float64 `json:"value"`
		N     int     `json:"n"`
	}{v.V, v.N})
}

// line is the contract's result object, the last line of output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine folds the results into the contract's object: the declared
// end-to-end metrics of a measured run, the declared per-layer metrics
// of a traced run. With several workloads the names are prefixed
// "<workload>/".
func resultLine(cfg *runConfig, results []result) line {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	l := line{Correct: true, Metrics: map[string]lineMetric{}}
	for _, res := range results {
		l.Correct = l.Correct && res.Correct
		l.Attempted += res.Attempted
		l.Failed += res.Failed + res.LostAcked
		for _, s := range specs {
			if v, ok := res.Metrics[s.Name]; ok {
				name := s.Name
				if len(results) > 1 {
					name = res.Workload + "/" + name
				}
				l.Metrics[name] = lineMetric{Value: v.V, Unit: s.Unit}
			}
		}
	}
	return l
}

// compareSuites prints, per workload and end-to-end metric, both runs'
// values, the relative difference in the metric's worse direction and
// PASS or FAIL against its bound; a comparison with a noisy side is
// unresolved. It reports whether nothing failed.
func compareSuites(w io.Writer, first, second []result) bool {
	ok := true
	fmt.Fprintf(w, "\n## selfcheck: two runs of the same code, same seed\n")
	fmt.Fprintf(w, "  %-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	for i := range first {
		a, b := first[i], second[i]
		for _, k := range []string{"host.steal_frac", "host.quiet_frac"} {
			fmt.Fprintf(w, "  %-16s %-26s %14.4g %14.4g\n", a.Workload, k, a.Metrics[k].V, b.Metrics[k].V)
		}
		if !a.Correct || !b.Correct {
			fmt.Fprintf(w, "  %-16s incorrect run: first %v, second %v  FAIL\n", a.Workload, a.Correct, b.Correct)
			ok = false
		}
		for _, s := range endToEnd {
			name := s.Name
			va, vb := a.Metrics[name].V, b.Metrics[name].V
			worse := ratio(vb-va, va)
			if s.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := "PASS"
			switch {
			case a.Noisy || b.Noisy:
				verdict = "unresolved (noisy host)"
			case math.Abs(worse) > s.Bound:
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "  %-16s %-26s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", a.Workload, name, va, vb, 100*worse, 100*s.Bound, verdict)
		}
	}
	return ok
}
