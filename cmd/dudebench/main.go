// Command dudebench regenerates every table and figure of the DudeTM
// paper's evaluation (§5) on the simulated-NVM substrate.
//
// Usage:
//
//	dudebench [-experiment all|fig2|table1|table2|table3|fig3|fig4|fig5|table4|recovery]
//	          [-threads N] [-maxthreads N] [-quick] [-list]
//
// Absolute numbers depend on the host; the shapes (which system wins,
// by roughly what factor, where crossovers fall) are the reproduction
// target. See EXPERIMENTS.md for recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dudetm/internal/harness"
)

type exp struct {
	name string
	desc string
	run  func() error
}

// registry lists the experiments. Declaration order is the run order of
// -experiment all and the (stable) output order of -list; scripts key
// off both. Each paper experiment's description is a verbatim clause of
// its doc comment in internal/harness/experiments.go (pinned by
// TestListDescriptionsComeFromDocComments).
func registry(cfg harness.ExpConfig, maxThreads int) []exp {
	return []exp{
		{"fig2", "throughput of Volatile-STM, DUDETM, DUDETM-Inf and DUDETM-Sync across NVM bandwidths of 1-16 GB/s (paper Fig. 2)", func() error { return harness.Fig2(cfg) }},
		{"table1", "memory-write statistics of each benchmark under DUDETM (paper Table 1)", func() error { return harness.Table1(cfg) }},
		{"table2", "DUDETM vs DUDETM-Sync vs Mnemosyne vs NVML (paper Table 2)", func() error { return harness.Table2(cfg) }},
		{"table3", "durable-transaction latency percentiles of hash-based TPC-C across systems (paper Table 3)", func() error { return harness.Table3(cfg) }},
		{"fig3", "NVM-write reduction from cross-transaction log combination and lz4 compression as the persist group size grows (paper Fig. 3)", func() error { return harness.Fig3(cfg) }},
		{"fig4", "throughput of the B+-tree KV update workload as the shadow memory shrinks (paper Fig. 4)", func() error { return harness.Fig4(cfg) }},
		{"fig5", "scalability of TPC-C (B+-tree) with thread count (paper Fig. 5)", func() error { return harness.Fig5(cfg, maxThreads) }},
		{"table4", "STM- vs HTM-based DudeTM (and their volatile upper bounds) with the durability slowdown (paper Table 4)", func() error { return harness.Table4(cfg) }},
		{"recovery", "crash-recovery replay throughput and correctness drill", func() error { return harness.Recovery(cfg) }},
	}
}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	threads := flag.Int("threads", 2, "Perform threads (the paper uses 4 on a 12-core host)")
	maxThreads := flag.Int("maxthreads", 4, "largest thread count in the Figure 5 sweep")
	quick := flag.Bool("quick", false, "divide per-run transaction counts by 10")
	list := flag.Bool("list", false, "list the registered experiments with one-line descriptions and exit")
	flag.Parse()

	cfg := harness.ExpConfig{Threads: *threads, Quick: *quick, Out: os.Stdout}

	exps := registry(cfg, *maxThreads)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	fmt.Printf("dudebench: %d threads on %d CPUs, quick=%v\n\n",
		*threads, runtime.NumCPU(), *quick)
	ran := false
	for _, e := range exps {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "dudebench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Second))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "dudebench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}
