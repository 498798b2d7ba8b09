package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dudetm/internal/obs"
)

// MeasureOpts controls one measured run.
type MeasureOpts struct {
	// TotalOps transactions are split evenly across the threads.
	TotalOps int
	// SampleLat measures durable-acknowledgement latency using the
	// paper's application pattern (§5.3): for asynchronously durable
	// systems, a transaction is acknowledged after the *next*
	// transaction's Perform step, when the worker checks the global
	// durable ID; for synchronously durable systems the latency is the
	// Run duration itself.
	SampleLat bool
	// Seed makes runs reproducible.
	Seed int64
}

// Result is one measured benchmark run.
type Result struct {
	Ops     uint64
	Elapsed time.Duration

	// Derived.
	TPS float64

	// Durable-ack latency quantiles (valid when sampled), from the
	// same mergeable power-of-two-bucket histogram all drivers share.
	P50, P90, P99 time.Duration

	// System counters over the measured interval.
	Stats SysStats
}

// Run builds the system, loads the benchmark, measures it, and tears
// everything down.
func Run(kind SysKind, bench Bench, o Options, m MeasureOpts) (Result, error) {
	o.applyDefaults()
	if o.DataSize == 0 || o.DataSize < bench.DataSize() {
		o.DataSize = bench.DataSize()
	}
	sys, err := NewSystem(kind, o)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	if err := bench.Setup(sys); err != nil {
		return Result{}, fmt.Errorf("%s setup on %s: %w", bench.Name(), kind, err)
	}
	return Measure(sys, bench, o.Threads, m)
}

// Measure drives TotalOps transactions through an already-loaded
// benchmark and reports throughput and latency.
func Measure(sys System, bench Bench, threads int, m MeasureOpts) (Result, error) {
	if m.TotalOps == 0 {
		m.TotalOps = 100000
	}
	if m.Seed == 0 {
		m.Seed = 42
	}
	nvmlB, isNVMLBench := bench.(NVMLBench)
	nvmlS, isNVML := sys.(*NVMLSys)
	if isNVML && !isNVMLBench {
		return Result{}, fmt.Errorf("harness: %s has no static (NVML) driver", bench.Name())
	}

	// Setup's last transactions may still be in the pipeline; drain
	// them so the counters below cover the measured transactions only.
	sys.Drain()
	before := sys.Stats()
	perThread := m.TotalOps / threads
	var latHist obs.Histogram
	errs := make([]error, threads)
	asyncLat := m.SampleLat && sys.AsyncDurability()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(m.Seed + int64(w)*7919))
			var prevTid uint64
			var prevT0 time.Time
			havePrev := false
			for i := 0; i < perThread; i++ {
				sample := m.SampleLat
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				var tid uint64
				var err error
				if isNVML {
					err = nvmlB.OpNVML(nvmlS, w, rng)
				} else {
					tid, err = bench.Op(sys, w, rng)
				}
				if err != nil {
					errs[w] = err
					return
				}
				if !sample {
					continue
				}
				if !asyncLat {
					// Durable at Run return.
					latHist.ObserveSince(0, int64(time.Since(t0)))
					continue
				}
				// Acknowledge the previous transaction now that this
				// one's Perform step is done (the paper's pattern).
				if havePrev {
					sys.WaitDurable(prevTid)
					latHist.ObserveSince(0, int64(time.Since(prevT0)))
				}
				prevTid, prevT0, havePrev = tid, t0, true
			}
			if asyncLat && havePrev {
				sys.WaitDurable(prevTid)
				latHist.ObserveSince(0, int64(time.Since(prevT0)))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	// Let the pipeline catch up so byte/entry counters cover every
	// measured transaction (throughput uses the pre-drain wall time,
	// matching the paper's Perform-rate measurement).
	sys.Drain()
	after := sys.Stats()

	res := Result{
		Ops:     uint64(perThread * threads),
		Elapsed: elapsed,
		TPS:     float64(perThread*threads) / elapsed.Seconds(),
		Stats: SysStats{
			Commits:       after.Commits - before.Commits,
			Writes:        after.Writes - before.Writes,
			NVMBytes:      after.NVMBytes - before.NVMBytes,
			LogBytes:      after.LogBytes - before.LogBytes,
			RawEntries:    after.RawEntries - before.RawEntries,
			CombEntries:   after.CombEntries - before.CombEntries,
			PersistBusyNS: after.PersistBusyNS - before.PersistBusyNS,
			ReproBusyNS:   after.ReproBusyNS - before.ReproBusyNS,
			PersistFences: after.PersistFences - before.PersistFences,
			ReproFences:   after.ReproFences - before.ReproFences,
			Obs:           after.Obs.Sub(before.Obs),
		},
	}
	if m.SampleLat {
		if lat := latHist.Snapshot(); lat.Count > 0 {
			res.P50 = time.Duration(lat.Quantile(0.50))
			res.P90 = time.Duration(lat.Quantile(0.90))
			res.P99 = time.Duration(lat.Quantile(0.99))
		}
	}
	return res, nil
}
