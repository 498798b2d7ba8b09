// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one family per table/figure. These run each configuration at
// benchmark scale on one Perform thread for stable per-op numbers; the
// full multi-threaded sweeps with formatted output are produced by
// cmd/dudebench (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results).
package dudetm_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	idudetm "dudetm/internal/dudetm"
	"dudetm/internal/harness"
	"dudetm/internal/pmem"
	"dudetm/internal/workload/tatp"
	"dudetm/internal/workload/tpcc"
)

// benchLoop sets up kind/bench and drives b.N transactions on slot 0.
func benchLoop(b *testing.B, kind harness.SysKind, bench harness.Bench, o harness.Options) {
	b.Helper()
	o.DelaysOn = true
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.DataSize < bench.DataSize() {
		o.DataSize = bench.DataSize()
	}
	sys, err := harness.NewSystem(kind, o)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := bench.Setup(sys); err != nil {
		b.Fatal(err)
	}
	nvmlB, _ := bench.(harness.NVMLBench)
	nvmlS, isNVML := sys.(*harness.NVMLSys)
	rng := rand.New(rand.NewSource(1))
	before := sys.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if isNVML {
			err = nvmlB.OpNVML(nvmlS, 0, rng)
		} else {
			_, err = bench.Op(sys, 0, rng)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := sys.Stats()
	if w := after.Writes - before.Writes; w > 0 {
		b.ReportMetric(float64(w)/float64(b.N), "writes/tx")
	}
	if nb := after.NVMBytes - before.NVMBytes; nb > 0 {
		b.ReportMetric(float64(nb)/float64(b.N), "NVM-B/tx")
	}
}

func fig2Benches() map[string]func() harness.Bench {
	return map[string]func() harness.Bench{
		"BTree":      func() harness.Bench { return harness.NewBTreeBench() },
		"TPCC-BTree": func() harness.Bench { return harness.NewTPCCBench(tpcc.BTreeStorage) },
		"TATP-BTree": func() harness.Bench { return harness.NewTATPBench(tatp.BTreeStorage) },
		"HashTable":  func() harness.Bench { return harness.NewHashBench() },
		"TPCC-Hash":  func() harness.Bench { return harness.NewTPCCBench(tpcc.HashStorage) },
		"TATP-Hash":  func() harness.Bench { return harness.NewTATPBench(tatp.HashStorage) },
	}
}

// BenchmarkFig2 measures the Figure 2 systems at the 1 GB/s baseline.
func BenchmarkFig2(b *testing.B) {
	for name, mk := range fig2Benches() {
		for _, kind := range []harness.SysKind{
			harness.VolatileSTM, harness.DudeSTM, harness.DudeInf, harness.DudeSync,
		} {
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				benchLoop(b, kind, mk(), harness.Options{})
			})
		}
	}
}

// BenchmarkTable1 measures DUDETM on every benchmark, reporting the
// writes-per-transaction column of Table 1 as a metric.
func BenchmarkTable1(b *testing.B) {
	for name, mk := range fig2Benches() {
		b.Run(name, func(b *testing.B) {
			benchLoop(b, harness.DudeSTM, mk(), harness.Options{})
		})
	}
}

// BenchmarkTable2 compares DUDETM against DUDETM-Sync, Mnemosyne and
// NVML (hash benchmarks only for NVML, as in the paper).
func BenchmarkTable2(b *testing.B) {
	for name, mk := range fig2Benches() {
		for _, kind := range []harness.SysKind{
			harness.DudeSTM, harness.DudeSync, harness.Mnemosyne, harness.NVML,
		} {
			if kind == harness.NVML {
				switch name {
				case "HashTable", "TPCC-Hash", "TATP-Hash":
				default:
					continue
				}
			}
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				benchLoop(b, kind, mk(), harness.Options{})
			})
		}
	}
}

// BenchmarkTable3 measures durable-acknowledgement latency on hash-based
// TPC-C: every transaction waits for durability, so ns/op is the mean
// durable latency per system.
func BenchmarkTable3(b *testing.B) {
	for _, kind := range []harness.SysKind{
		harness.DudeSTM, harness.DudeSync, harness.Mnemosyne, harness.NVML,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			var bench harness.Bench = harness.NewTPCCBench(tpcc.HashStorage)
			o := harness.Options{Threads: 1, DelaysOn: true, DataSize: bench.DataSize()}
			sys, err := harness.NewSystem(kind, o)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := bench.Setup(sys); err != nil {
				b.Fatal(err)
			}
			nvmlB, _ := bench.(harness.NVMLBench)
			nvmlS, isNVML := sys.(*harness.NVMLSys)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if isNVML {
					if err := nvmlB.OpNVML(nvmlS, 0, rng); err != nil {
						b.Fatal(err)
					}
					continue
				}
				tid, err := bench.Op(sys, 0, rng)
				if err != nil {
					b.Fatal(err)
				}
				sys.WaitDurable(tid)
			}
		})
	}
}

// BenchmarkFig3 sweeps the persist group size of the log-combination
// optimization on YCSB; the NVM-B/tx metric is the Figure 3 signal.
func BenchmarkFig3(b *testing.B) {
	for _, group := range []int{1, 10, 100, 1000, 10000} {
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("group=%d/lz4=%v", group, compress)
			b.Run(name, func(b *testing.B) {
				benchLoop(b, harness.DudeSTM, harness.NewYCSBBench(), harness.Options{
					GroupSize: group,
					Compress:  compress,
				})
			})
		}
	}
}

// BenchmarkFig4 sweeps the shadow-memory size for software and
// simulated-hardware paging on the KV update workload.
func BenchmarkFig4(b *testing.B) {
	for _, theta := range []float64{0.99, 1.07} {
		for _, mode := range []struct {
			name string
			kind idudetm.ShadowKind
		}{{"sw", idudetm.ShadowSW}, {"hw", idudetm.ShadowHW}} {
			for _, mb := range []uint64{3, 12, 48} {
				name := fmt.Sprintf("zipf=%.2f/%s/%dMB", theta, mode.name, mb)
				b.Run(name, func(b *testing.B) {
					benchLoop(b, harness.DudeSTM, harness.NewKVUpdateBench(theta), harness.Options{
						Shadow:      mode.kind,
						ShadowBytes: mb << 20,
					})
				})
			}
		}
	}
}

// BenchmarkFig5 measures TPC-C (B+-tree) at 1, 2 and 4 threads.
func BenchmarkFig5(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			bench := harness.NewTPCCBench(tpcc.BTreeStorage)
			o := harness.Options{Threads: threads, DelaysOn: true, DataSize: bench.DataSize()}
			sys, err := harness.NewSystem(harness.DudeSTM, o)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := bench.Setup(sys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			// Explicit workers: each engine slot must have exactly one
			// goroutine (testing.B's RunParallel spawns GOMAXPROCS
			// workers regardless of the thread count under test).
			var wg sync.WaitGroup
			per := b.N / threads
			for s := 0; s < threads; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s) + 9))
					for i := 0; i < per; i++ {
						if _, err := bench.Op(sys, s, rng); err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
		})
	}
}

// BenchmarkTable4 compares STM- and HTM-based DudeTM with their
// volatile upper bounds.
func BenchmarkTable4(b *testing.B) {
	benches := map[string]func() harness.Bench{
		"BTree":      func() harness.Bench { return harness.NewBTreeBench() },
		"HashTable":  func() harness.Bench { return harness.NewHashBench() },
		"TATP-BTree": func() harness.Bench { return harness.NewTATPBench(tatp.BTreeStorage) },
	}
	for name, mk := range benches {
		for _, kind := range []harness.SysKind{
			harness.VolatileSTM, harness.DudeSTM, harness.VolatileHTM, harness.DudeHTM,
		} {
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				benchLoop(b, kind, mk(), harness.Options{})
			})
		}
	}
}

// BenchmarkAblationGroupLatency shows the combination trade-off the
// paper discusses in §5.4: larger persist groups cut NVM writes but
// stretch durable latency (ns/op here includes the durability wait).
func BenchmarkAblationGroupLatency(b *testing.B) {
	for _, group := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			bench := harness.NewYCSBBench()
			o := harness.Options{
				Threads: 1, DelaysOn: true, GroupSize: group,
				DataSize: bench.DataSize(),
			}
			sys, err := harness.NewSystem(harness.DudeSTM, o)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := bench.Setup(sys); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tid, err := bench.Op(sys, 0, rng)
				if err != nil {
					b.Fatal(err)
				}
				sys.WaitDurable(tid)
			}
		})
	}
}

// BenchmarkAblationVLogCapacity shows Perform back-pressure when the
// volatile log buffer is small and the NVM is slow — the blocking the
// DUDETM-Inf configuration removes.
func BenchmarkAblationVLogCapacity(b *testing.B) {
	for _, entries := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			benchLoop(b, harness.DudeSTM, harness.NewHashBench(), harness.Options{
				VLogEntries: entries,
				Bandwidth:   0.25 * pmem.GB, // slow NVM to expose the bound
			})
		})
	}
}

// BenchmarkAblationLatencyModel sweeps the modeled NVM persist latency
// for the synchronous design, showing why decoupling matters as
// latency grows (compare DudeSync across rows with BenchmarkFig2's
// DudeSTM numbers).
func BenchmarkAblationLatencyModel(b *testing.B) {
	for _, lat := range []time.Duration{pmem.Latency1000, pmem.Latency3500} {
		b.Run(fmt.Sprintf("latency=%v", lat), func(b *testing.B) {
			benchLoop(b, harness.DudeSync, harness.NewTATPBench(tatp.HashStorage), harness.Options{
				Latency: lat,
			})
		})
	}
}

// BenchmarkExtensionMixes measures the full TPC-C and TATP transaction
// blends (repository extensions beyond the paper's single-transaction
// workloads) under DUDETM and its synchronous variant.
func BenchmarkExtensionMixes(b *testing.B) {
	benches := map[string]func() harness.Bench{
		"TPCCMix-BTree": func() harness.Bench { return harness.NewTPCCMixBench(tpcc.BTreeStorage) },
		"TATPMix-Hash":  func() harness.Bench { return harness.NewTATPMixBench(tatp.HashStorage) },
	}
	for name, mk := range benches {
		for _, kind := range []harness.SysKind{harness.DudeSTM, harness.DudeSync} {
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				benchLoop(b, kind, mk(), harness.Options{})
			})
		}
	}
}
