package harness

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"dudetm/internal/dudetm"
	"dudetm/internal/pmem"
	"dudetm/internal/workload/tatp"
	"dudetm/internal/workload/tpcc"
)

// ExpConfig configures an experiment sweep.
type ExpConfig struct {
	// Threads is the Perform thread count (the paper uses 4 on 12
	// cores; on small hosts fewer threads give cleaner shapes).
	Threads int
	// Quick divides the per-run transaction counts by 10.
	Quick bool
	// Out receives the formatted tables.
	Out io.Writer
}

func (c *ExpConfig) applyDefaults() {
	if c.Threads == 0 {
		c.Threads = 2
	}
}

// benchOps is the per-benchmark transaction budget for a measured run.
func benchOps(name string, quick bool) int {
	ops := map[string]int{
		"HashTable":          200000,
		"B+-tree":            150000,
		"TPC-C (B+-tree)":    20000,
		"TPC-C (hash)":       20000,
		"TATP (B+-tree)":     200000,
		"TATP (hash)":        200000,
		"YCSB Session Store": 200000,
		"KV update":          60000,
	}[name]
	if ops == 0 {
		ops = 50000
	}
	if quick {
		ops /= 10
	}
	return ops
}

// fig2Benches builds the six benchmarks of Figure 2 / Tables 1-2.
func fig2Benches() []func() Bench {
	return []func() Bench{
		func() Bench { return NewBTreeBench() },
		func() Bench { return NewTPCCBench(tpcc.BTreeStorage) },
		func() Bench { return NewTATPBench(tatp.BTreeStorage) },
		func() Bench { return NewHashBench() },
		func() Bench { return NewTPCCBench(tpcc.HashStorage) },
		func() Bench { return NewTATPBench(tatp.HashStorage) },
	}
}

func fmtTPS(tps float64) string {
	switch {
	case tps >= 1e6:
		return fmt.Sprintf("%.2f MTPS", tps/1e6)
	case tps >= 1e3:
		return fmt.Sprintf("%.1f KTPS", tps/1e3)
	default:
		return fmt.Sprintf("%.0f TPS", tps)
	}
}

// Fig2 regenerates Figure 2: throughput of Volatile-STM, DUDETM,
// DUDETM-Inf and DUDETM-Sync across NVM bandwidths of 1-16 GB/s (1000-
// cycle latency; DUDETM-Sync additionally at 3500 cycles).
func Fig2(c ExpConfig) error {
	c.applyDefaults()
	bandwidths := []float64{1, 2, 4, 8, 16}
	type series struct {
		name    string
		kind    SysKind
		latency time.Duration
	}
	sweep := []series{
		{"Volatile-STM", VolatileSTM, pmem.Latency1000},
		{"DUDETM", DudeSTM, pmem.Latency1000},
		{"DUDETM-Inf", DudeInf, pmem.Latency1000},
		{"DUDETM-Sync(1000)", DudeSync, pmem.Latency1000},
		{"DUDETM-Sync(3500)", DudeSync, pmem.Latency3500},
	}
	fmt.Fprintf(c.Out, "=== Figure 2: throughput vs NVM bandwidth (%d threads) ===\n", c.Threads)
	for _, mk := range fig2Benches() {
		name := mk().Name()
		tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\t", name)
		for _, bw := range bandwidths {
			fmt.Fprintf(tw, "%.0f GB/s\t", bw)
		}
		fmt.Fprintln(tw)
		for _, s := range sweep {
			fmt.Fprintf(tw, "%s\t", s.name)
			for _, bw := range bandwidths {
				if s.kind == VolatileSTM && bw != bandwidths[0] {
					// Bandwidth-independent; measure once.
					fmt.Fprintf(tw, "-\t")
					continue
				}
				bench := mk()
				res, err := Run(s.kind, bench, Options{
					Threads:   c.Threads,
					Latency:   s.latency,
					Bandwidth: bw * pmem.GB,
					DelaysOn:  true,
				}, MeasureOpts{TotalOps: benchOps(name, c.Quick)})
				if err != nil {
					return fmt.Errorf("fig2 %s/%s@%v: %w", name, s.name, bw, err)
				}
				fmt.Fprintf(tw, "%s\t", fmtTPS(res.TPS))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(c.Out)
	}
	return nil
}

// Table1 regenerates Table 1: memory-write statistics of each benchmark
// under DUDETM (1 GB/s, 1000 cycles).
func Table1(c ExpConfig) error {
	c.applyDefaults()
	fmt.Fprintf(c.Out, "=== Table 1: memory writes (DUDETM, 1 GB/s, 1000 cycles, %d threads) ===\n", c.Threads)
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\t# writes\tThroughput\t# writes per tx")
	order := []int{0, 1, 2, 3, 4, 5} // B+tree group then hash group, as in the paper
	benches := fig2Benches()
	for _, i := range order {
		bench := benches[i]()
		res, err := Run(DudeSTM, bench, Options{
			Threads:  c.Threads,
			DelaysOn: true,
		}, MeasureOpts{TotalOps: benchOps(bench.Name(), c.Quick)})
		if err != nil {
			return fmt.Errorf("table1 %s: %w", bench.Name(), err)
		}
		wps := float64(res.Stats.Writes) / res.Elapsed.Seconds()
		wpt := float64(res.Stats.Writes) / float64(res.Ops)
		fmt.Fprintf(tw, "%s\t%.1f M/s\t%s\t%.1f\n", bench.Name(), wps/1e6, fmtTPS(res.TPS), wpt)
	}
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Table2 regenerates Table 2: DUDETM vs DUDETM-Sync vs Mnemosyne vs NVML
// (NVML on the hash-based benchmarks only, as in the paper).
func Table2(c ExpConfig) error {
	c.applyDefaults()
	fmt.Fprintf(c.Out, "=== Table 2: throughput vs existing systems (1 GB/s, 1000 cycles, %d threads) ===\n", c.Threads)
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tDUDETM\tDUDE-Sync\tMnemosyne\tNVML")
	for _, mk := range fig2Benches() {
		name := mk().Name()
		fmt.Fprintf(tw, "%s\t", name)
		for _, kind := range []SysKind{DudeSTM, DudeSync, Mnemosyne, NVML} {
			bench := mk()
			if kind == NVML {
				if _, ok := bench.(NVMLBench); !ok {
					fmt.Fprintf(tw, "-\t")
					continue
				}
				if tb, ok := bench.(*TATPBench); ok && tb.Cfg.Storage != tatp.HashStorage {
					fmt.Fprintf(tw, "-\t")
					continue
				}
				if tb, ok := bench.(*TPCCBench); ok && tb.Cfg.Storage != tpcc.HashStorage {
					fmt.Fprintf(tw, "-\t")
					continue
				}
				if _, ok := bench.(*BTreeBench); ok {
					fmt.Fprintf(tw, "-\t")
					continue
				}
			}
			res, err := Run(kind, bench, Options{
				Threads:  c.Threads,
				DelaysOn: true,
			}, MeasureOpts{TotalOps: benchOps(name, c.Quick)})
			if err != nil {
				return fmt.Errorf("table2 %s/%s: %w", name, kind, err)
			}
			fmt.Fprintf(tw, "%s\t", fmtTPS(res.TPS))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Table3 regenerates Table 3: durable-transaction latency percentiles of
// hash-based TPC-C across systems. The latency experiment runs a single
// Perform thread so the Persist/Reproduce threads get their own core, as
// they effectively do on the paper's 12-core testbed; with the pipeline
// CPU-starved, DudeTM's ack queue depth (not its design) dominates the
// percentiles.
func Table3(c ExpConfig) error {
	c.applyDefaults()
	c.Threads = 1
	fmt.Fprintf(c.Out, "=== Table 3: durable latency, TPC-C (hash), %d thread ===\n", c.Threads)
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Percentile\tDUDETM\tDUDE-Sync\tMnemosyne\tNVML")
	type row struct{ p50, p90, p99 time.Duration }
	rows := map[SysKind]row{}
	kinds := []SysKind{DudeSTM, DudeSync, Mnemosyne, NVML}
	for _, kind := range kinds {
		bench := NewTPCCBench(tpcc.HashStorage)
		res, err := Run(kind, bench, Options{
			Threads:  c.Threads,
			DelaysOn: true,
		}, MeasureOpts{TotalOps: benchOps(bench.Name(), c.Quick), SampleLat: true})
		if err != nil {
			return fmt.Errorf("table3 %s: %w", kind, err)
		}
		rows[kind] = row{res.P50, res.P90, res.P99}
	}
	for _, p := range []struct {
		name string
		get  func(row) time.Duration
	}{
		{"50%", func(r row) time.Duration { return r.p50 }},
		{"90%", func(r row) time.Duration { return r.p90 }},
		{"99%", func(r row) time.Duration { return r.p99 }},
	} {
		fmt.Fprintf(tw, "%s\t", p.name)
		for _, kind := range kinds {
			fmt.Fprintf(tw, "%d us\t", p.get(rows[kind]).Microseconds())
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Fig3 regenerates Figure 3: NVM-write reduction from cross-transaction
// log combination and lz4 compression as the persist group size grows
// (YCSB Session Store, Zipfian 0.99).
func Fig3(c ExpConfig) error {
	c.applyDefaults()
	fmt.Fprintf(c.Out, "=== Figure 3: log combination and compression (YCSB, Zipfian 0.99, %d threads) ===\n", c.Threads)
	groupSizes := []int{1, 10, 100, 1000, 10000, 100000}
	ops := benchOps("YCSB Session Store", c.Quick)

	measure := func(group int, compress bool) (logBytes, raw, comb uint64, err error) {
		bench := NewYCSBBench()
		res, err := Run(DudeSTM, bench, Options{
			Threads:   c.Threads,
			DelaysOn:  true,
			GroupSize: group,
			Compress:  compress,
		}, MeasureOpts{TotalOps: ops})
		if err != nil {
			return 0, 0, 0, err
		}
		return res.Stats.LogBytes, res.Stats.RawEntries, res.Stats.CombEntries, nil
	}

	base, _, _, err := measure(1, false)
	if err != nil {
		return fmt.Errorf("fig3 baseline: %w", err)
	}
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Group size\tEntries combined\tNVM log writes saved\t+lz4 saved")
	for _, g := range groupSizes {
		lb, raw, comb, err := measure(g, false)
		if err != nil {
			return fmt.Errorf("fig3 g=%d: %w", g, err)
		}
		lbz, _, _, err := measure(g, true)
		if err != nil {
			return fmt.Errorf("fig3 g=%d lz4: %w", g, err)
		}
		combPct := 0.0
		if raw > 0 {
			combPct = 100 * (1 - float64(comb)/float64(raw))
		}
		fmt.Fprintf(tw, "%d\t%.1f%%\t%.1f%%\t%.1f%%\n",
			g, combPct,
			100*(1-float64(lb)/float64(base)),
			100*(1-float64(lbz)/float64(base)))
	}
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Fig4 regenerates Figure 4: throughput of the B+-tree KV update
// workload as the shadow memory shrinks, for software and simulated-
// hardware paging, at Zipfian 0.99 and 1.07.
func Fig4(c ExpConfig) error {
	c.applyDefaults()
	fmt.Fprintf(c.Out, "=== Figure 4: swap overhead (B+-tree KV update, %d threads) ===\n", c.Threads)
	shadowSizes := []uint64{3 << 20, 6 << 20, 12 << 20, 24 << 20, 48 << 20}
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Config\t")
	for _, sb := range shadowSizes {
		fmt.Fprintf(tw, "%dMB\t", sb>>20)
	}
	fmt.Fprintln(tw, "flat")
	for _, theta := range []float64{0.99, 1.07} {
		for _, mode := range []struct {
			name string
			kind dudetm.ShadowKind
		}{{"sw", dudetm.ShadowSW}, {"hw", dudetm.ShadowHW}} {
			fmt.Fprintf(tw, "zipf %.2f %s\t", theta, mode.name)
			for _, sb := range shadowSizes {
				bench := NewKVUpdateBench(theta)
				res, err := Run(DudeSTM, bench, Options{
					Threads:     c.Threads,
					DelaysOn:    true,
					Shadow:      mode.kind,
					ShadowBytes: sb,
				}, MeasureOpts{TotalOps: benchOps(bench.Name(), c.Quick)})
				if err != nil {
					return fmt.Errorf("fig4 %.2f/%s/%d: %w", theta, mode.name, sb, err)
				}
				fmt.Fprintf(tw, "%s\t", fmtTPS(res.TPS))
			}
			// Flat (no paging) reference.
			bench := NewKVUpdateBench(theta)
			res, err := Run(DudeSTM, bench, Options{
				Threads:  c.Threads,
				DelaysOn: true,
			}, MeasureOpts{TotalOps: benchOps(bench.Name(), c.Quick)})
			if err != nil {
				return fmt.Errorf("fig4 flat: %w", err)
			}
			fmt.Fprintf(tw, "%s\n", fmtTPS(res.TPS))
		}
	}
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Fig5 regenerates Figure 5: scalability of TPC-C (B+-tree) with thread
// count, for TinySTM, DUDETM, and the reduced-conflict per-district
// variant, normalized to one thread.
func Fig5(c ExpConfig, maxThreads int) error {
	c.applyDefaults()
	if maxThreads == 0 {
		maxThreads = 4
	}
	fmt.Fprintf(c.Out, "=== Figure 5: scalability, TPC-C (B+-tree), 1..%d threads ===\n", maxThreads)
	type series struct {
		name        string
		kind        SysKind
		lowConflict bool
	}
	sweep := []series{
		{"TinySTM", VolatileSTM, false},
		{"DUDETM", DudeSTM, false},
		{"DUDETM (per-district)", DudeSTM, true},
	}
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "System\t")
	for t := 1; t <= maxThreads; t++ {
		fmt.Fprintf(tw, "%d thr\t", t)
	}
	fmt.Fprintln(tw)
	for _, s := range sweep {
		fmt.Fprintf(tw, "%s\t", s.name)
		var base float64
		for t := 1; t <= maxThreads; t++ {
			bench := NewTPCCBench(tpcc.BTreeStorage)
			bench.LowConflict = s.lowConflict
			if s.lowConflict {
				// One district per thread needs enough districts.
				bench.Cfg.Warehouses = 1
				bench.Cfg.Districts = maxThreads
			}
			res, err := Run(s.kind, bench, Options{
				Threads:  t,
				DelaysOn: true,
			}, MeasureOpts{TotalOps: benchOps(bench.Name(), c.Quick)})
			if err != nil {
				return fmt.Errorf("fig5 %s/%d: %w", s.name, t, err)
			}
			if t == 1 {
				base = res.TPS
			}
			fmt.Fprintf(tw, "%.2fx (%s)\t", res.TPS/base, fmtTPS(res.TPS))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Table4 regenerates Table 4: STM- vs HTM-based DudeTM (and their
// volatile upper bounds) with the durability slowdown.
func Table4(c ExpConfig) error {
	c.applyDefaults()
	fmt.Fprintf(c.Out, "=== Table 4: STM- vs HTM-based DUDETM (1 GB/s, 1000 cycles, %d threads) ===\n", c.Threads)
	benches := []func() Bench{
		func() Bench { return NewBTreeBench() },
		func() Bench { return NewHashBench() },
		func() Bench { return NewTATPBench(tatp.BTreeStorage) },
	}
	tw := tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "System\tB+-Tree\tHashTable\tTATP (B+-tree)")
	tps := map[SysKind][]float64{}
	for _, kind := range []SysKind{VolatileSTM, DudeSTM, VolatileHTM, DudeHTM} {
		for _, mk := range benches {
			bench := mk()
			res, err := Run(kind, bench, Options{
				Threads:  c.Threads,
				DelaysOn: true,
			}, MeasureOpts{TotalOps: benchOps(bench.Name(), c.Quick)})
			if err != nil {
				return fmt.Errorf("table4 %s/%s: %w", kind, bench.Name(), err)
			}
			tps[kind] = append(tps[kind], res.TPS)
		}
	}
	slowdown := func(vol, dude SysKind, i int) string {
		return fmt.Sprintf("%.0f%%", 100*(1-tps[dude][i]/tps[vol][i]))
	}
	for _, kind := range []SysKind{VolatileSTM, DudeSTM} {
		fmt.Fprintf(tw, "%s\t", kind)
		for i := range benches {
			fmt.Fprintf(tw, "%s\t", fmtTPS(tps[kind][i]))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "Slowdown (STM)\t%s\t%s\t%s\n",
		slowdown(VolatileSTM, DudeSTM, 0), slowdown(VolatileSTM, DudeSTM, 1), slowdown(VolatileSTM, DudeSTM, 2))
	for _, kind := range []SysKind{VolatileHTM, DudeHTM} {
		fmt.Fprintf(tw, "%s\t", kind)
		for i := range benches {
			fmt.Fprintf(tw, "%s\t", fmtTPS(tps[kind][i]))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "Slowdown (HTM)\t%s\t%s\t%s\n",
		slowdown(VolatileHTM, DudeHTM, 0), slowdown(VolatileHTM, DudeHTM, 1), slowdown(VolatileHTM, DudeHTM, 2))
	tw.Flush()
	fmt.Fprintln(c.Out)
	return nil
}

// Recovery is the crash-forensics drill: run a DUDETM load with
// Reproduce frozen so the crash image carries a deep unreproduced log,
// pull the plug, remount with crash recovery, and audit the result —
// the durable frontier must cover every acknowledged transaction, the
// standalone forensic report (computed from the image alone) must agree
// with what recovery restored, and the recovery pass must account for
// its replay work. The remounted system then serves a measured run.
func Recovery(c ExpConfig) error {
	c.applyDefaults()
	ops := 20000
	if c.Quick {
		ops /= 10
	}
	opts := Options{
		Threads:   c.Threads,
		GroupSize: 16,
	}

	// Phase 1: the crash. Freeze Reproduce so acknowledged-durable work
	// piles up in the persistent logs, then snapshot the durable image
	// mid-flight — exactly what a power failure leaves behind.
	sys, err := NewSystem(DudeSTM, opts)
	if err != nil {
		return err
	}
	bench := NewHashBench()
	if err := bench.Setup(sys); err != nil {
		sys.Close()
		return fmt.Errorf("recovery setup: %w", err)
	}
	ds := sys.(*dudeSys).Sys()
	ds.PauseReproduce()
	rng := rand.New(rand.NewSource(42))
	var last uint64
	for i := 0; i < ops; i++ {
		tid, err := bench.Op(sys, 0, rng)
		if err != nil {
			ds.ResumeReproduce()
			sys.Close()
			return fmt.Errorf("recovery load: %w", err)
		}
		if tid > last {
			last = tid
		}
	}
	if err := ds.WaitDurable(last); err != nil {
		ds.ResumeReproduce()
		sys.Close()
		return fmt.Errorf("recovery drill: %w", err)
	}
	// The gates wait out the in-flight append.
	ds.PausePersist()
	img := ds.Device().PersistedImage()
	ds.ResumePersist()
	ds.ResumeReproduce()
	sys.Close()

	// Phase 2: standalone forensics on the image, before any recovery
	// mutates it.
	fdev := pmem.New(pmem.Config{Size: uint64(len(img))})
	fdev.Restore(img)
	rep, err := dudetm.Forensics(fdev)
	if err != nil {
		return fmt.Errorf("recovery forensics: %w", err)
	}

	// Phase 3: remount, audit, and cross-check report vs. image.
	rsys, err := RecoverSystem(DudeSTM, img, opts)
	if err != nil {
		return fmt.Errorf("recovery remount: %w", err)
	}
	defer rsys.Close()
	rds := rsys.(*dudeSys).Sys()
	if err := rds.AuditRecovery(last); err != nil {
		return fmt.Errorf("recovery durability audit: %w", err)
	}
	if got := rds.Durable(); got != rep.LogFrontier {
		return fmt.Errorf("recovery: forensic frontier %d != recovered durable %d\n%s",
			rep.LogFrontier, got, rep)
	}
	rec := rsys.Stats().Recovery
	if !rec.Recovered || rec.Report == nil {
		return fmt.Errorf("recovery: stats not instrumented: %+v", rec)
	}
	if rec.GroupsReplayed == 0 || rec.EntriesReplayed == 0 || rec.BytesReplayed == 0 {
		return fmt.Errorf("recovery: paused-Reproduce image replayed nothing: %+v", rec)
	}

	// Phase 4: the recovered system serves a measured run.
	res, err := Measure(rsys, bench, c.Threads, MeasureOpts{TotalOps: ops})
	if err != nil {
		return fmt.Errorf("recovery measured run: %w", err)
	}
	fmt.Fprintf(c.Out, "recovery: audited durable frontier %d (acked %d) · scan %v · replay %v (%d groups, %d entries, %d KiB) · recycle %v · then %s\n",
		rds.Durable(), last,
		time.Duration(rec.ScanNanos), time.Duration(rec.ReplayNanos),
		rec.GroupsReplayed, rec.EntriesReplayed, rec.BytesReplayed>>10,
		time.Duration(rec.RecycleNanos), fmtTPS(res.TPS))
	return nil
}
