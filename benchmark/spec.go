package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// The benchmark's declarations: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics with the layer that
// owns them and the end-to-end metric they are expected to move.
// BENCHMARK.json at the repository root repeats the names, units,
// directions and bounds; TestSpecMatchesBenchmarkJSON keeps the two in
// step. Every metric is declared here exactly once, and a workload that
// fails to emit a declared metric fails (see metrics.missing).

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"tx-btree", "library only: Pool.Update overwriting 128 B records under a B+-tree, so Perform/Persist/Reproduce, stm, shadow, redolog and pmem do all the work and wire, server, notifier and repl do none"},
	{"kv-put", "service over loopback TCP, uniform PUTs: durable-ack latency at a light fixed rate and capacity are set by the commit-to-ack path through server, wire and the group-commit notifier"},
	{"kv-read-mostly", "same service at 95% GET / 5% PUT, Zipfian keys: reads bypass Persist/Reproduce/notify but share connections and hot keys, so a write-path gain that taxes reads shows here"},
	{"kv-put-repl", "kv-put with one in-process replica (R=1, Q=1): differs from kv-put in R only, so the difference is the cost of repl, lz4, REPL frames, IngestGroup and the quorum gate"},
}

// metricSpec declares one metric. Bound is set on end-to-end metrics
// only; Layer and Moves on per-layer metrics only.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by
	Layer  string  // owning module
	Moves  string  // end-to-end metric and workload it should move
}

// endToEnd lists the metrics a user of the system sees. The driver's
// contract wants every one of them from every workload and never zero,
// which is why latency is one pair over the workload's own request mix
// (per-kind quantiles are per-layer client.* metrics) and why failures
// and lost writes are reported through correct/attempted/failed rather
// than as metrics. The bounds are what a two-vCPU sandbox can resolve:
// over ten seeds the timing metrics' interquartile spread is 5-17% of
// the median (README.md), and a bound has to clear it. cpu_us_per_op
// was designed as an end-to-end metric and is per-layer instead: a noisy
// spell inflates the CPU cost of every operation in the run (the
// program's spin-waits spin longer when a partner is descheduled), and
// with a third of ten runs in such spells its spread reached 23-27% on
// two workloads, more than any bound the driver allows.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sat_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "nvm_bytes_per_user_byte", Unit: "B/B", Better: "lower", Bound: 0.10},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// satLayer is the shortlist of Stats()-delta metrics that are also
// reported over the capacity phase, under the "sat." prefix: the ones
// whose predicted effect is on sat_ops_per_s.
var satLayer = []string{
	"stm.abort_ratio",
	"dudetm.persist.tx_per_group",
	"dudetm.persist.busy_frac",
	"dudetm.reproduce.busy_frac",
	"dudetm.reproduce.lag_tx_max",
	"pmem.delay_frac",
	"server.backlog_max",
	"server.notifier.released_per_wakeup",
	"repl.ship_group_us",
	"nvm_bytes_per_user_byte",
}

// perLayer lists the single-layer metrics. Stats()-delta metrics are
// taken over the latency phase (fixed offered load, so counts compare
// across commits); "_per_tx"/"_per_op" divide by the phase's completed
// requests, each of which is one transaction, read-only ones included.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	l := []metricSpec{
		{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Layer: "process", Moves: "process CPU per completed request at the latency phase's light load: the cost the Persist coordinator's polling inflates; demoted from end-to-end (too sensitive to noisy spells to bound)"},
		{Name: "stm.abort_ratio", Unit: "ratio", Better: "lower", Layer: "stm", Moves: "sat_ops_per_s, cpu_us_per_op on kv-put (two writers collide in the heap allocator); sat_ops_per_s on tx-btree (kv-read-mostly: ~0)"},
		{Name: "redolog.entries_per_tx", Unit: "count", Better: "lower", Layer: "redolog", Moves: "nvm_bytes_per_user_byte on kv-put, tx-btree; recover_ms"},
		{Name: "redolog.combine_ratio", Unit: "ratio", Better: "higher", Layer: "redolog", Moves: "nvm_bytes_per_user_byte on kv-put, tx-btree"},
		{Name: "redolog.log_bytes_per_tx", Unit: "B", Better: "lower", Layer: "redolog", Moves: "nvm_bytes_per_user_byte on kv-put, tx-btree; recover_ms"},
		{Name: "dudetm.persist.tx_per_group", Unit: "count", Better: "higher", Layer: "dudetm", Moves: "lat_p50_ms on kv-put (group fill vs. dwell), sat_ops_per_s on tx-btree (kv-read-mostly latency: none)"},
		{Name: "dudetm.persist.fences_per_tx", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "lat_p50_ms on kv-put, sat_ops_per_s on tx-btree (kv-read-mostly: under a quarter of kv-put's)"},
		{Name: "dudetm.persist.busy_frac", Unit: "ratio", Better: "lower", Layer: "dudetm", Moves: "sat_ops_per_s on tx-btree, kv-put"},
		{Name: "dudetm.persist.queue_max", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "lat_p90_ms on kv-put"},
		{Name: "dudetm.reproduce.busy_frac", Unit: "ratio", Better: "lower", Layer: "dudetm", Moves: "sat_ops_per_s on tx-btree (log back-pressure)"},
		{Name: "dudetm.reproduce.coalesce_ratio", Unit: "ratio", Better: "higher", Layer: "dudetm", Moves: "nvm_bytes_per_user_byte on tx-btree (flush dedup)"},
		{Name: "dudetm.reproduce.lines_per_tx", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "nvm_bytes_per_user_byte on tx-btree, kv-put"},
		{Name: "dudetm.reproduce.epochs", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "sat_ops_per_s on tx-btree; recover_ms (kv-put latency: none)"},
		{Name: "dudetm.reproduce.lag_tx_max", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "sat_ops_per_s on tx-btree; recover_ms"},
		{Name: "dudetm.durable_lag_tx_p50", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "commit-to-durable distance on tx-btree; leading indicator for lat_p50_ms (kv-*: not measurable from outside, 0)"},
		{Name: "dudetm.stalls", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "must stay 0 everywhere"},
		{Name: "dudetm.recovery.scan_ms", Unit: "ms", Better: "lower", Layer: "dudetm", Moves: "split of recover_ms"},
		{Name: "dudetm.recovery.replay_ms", Unit: "ms", Better: "lower", Layer: "dudetm", Moves: "split of recover_ms"},
		{Name: "dudetm.recovery.recycle_ms", Unit: "ms", Better: "lower", Layer: "dudetm", Moves: "split of recover_ms"},
		{Name: "dudetm.recovery.mount_ms", Unit: "ms", Better: "lower", Layer: "dudetm", Moves: "OpenSnapshot wall time; excluded from recover_ms (dominated by allocating the simulated device)"},
		{Name: "dudetm.recovery.entries_replayed", Unit: "count", Better: "lower", Layer: "dudetm", Moves: "recover_ms"},
		{Name: "pmem.log.bytes_flushed_per_tx", Unit: "B", Better: "lower", Layer: "pmem", Moves: "nvm_bytes_per_user_byte"},
		{Name: "pmem.data.bytes_flushed_per_tx", Unit: "B", Better: "lower", Layer: "pmem", Moves: "nvm_bytes_per_user_byte"},
		{Name: "pmem.fences_per_tx", Unit: "count", Better: "lower", Layer: "pmem", Moves: "lat_p50_ms on kv-put; sat_ops_per_s on tx-btree when the modeled device binds"},
		{Name: "pmem.delay_frac", Unit: "ratio", Better: "lower", Layer: "pmem", Moves: "sat_ops_per_s on tx-btree when the modeled device binds"},
		{Name: "server.backlog_max", Unit: "count", Better: "lower", Layer: "server", Moves: "lat_p90_ms, sat_ops_per_s on kv-put (tx-btree: 0)"},
		{Name: "server.notifier.released_per_wakeup", Unit: "count", Better: "higher", Layer: "server", Moves: "lat_p90_ms, sat_ops_per_s on kv-put (tx-btree: 0)"},
		{Name: "server.notifier.max_batch", Unit: "count", Better: "higher", Layer: "server", Moves: "sat_ops_per_s on kv-put (tx-btree: 0)"},
		{Name: "wire.req_bytes_per_op", Unit: "B", Better: "lower", Layer: "wire", Moves: "cpu_us_per_op, lat_p50_ms on kv-read-mostly (tx-btree: 0)"},
		{Name: "wire.resp_bytes_per_op", Unit: "B", Better: "lower", Layer: "wire", Moves: "cpu_us_per_op, lat_p50_ms on kv-read-mostly (tx-btree: 0)"},
		{Name: "repl.ship_group_us", Unit: "us", Better: "lower", Layer: "repl", Moves: "lat_p50_ms, sat_ops_per_s, cpu_us_per_op on kv-put-repl (kv-put: 0)"},
		{Name: "repl.wire_bytes_per_tx", Unit: "B", Better: "lower", Layer: "repl", Moves: "sat_ops_per_s on kv-put-repl (kv-put: 0)"},
		{Name: "repl.compress_ratio", Unit: "ratio", Better: "higher", Layer: "repl", Moves: "sat_ops_per_s, cpu_us_per_op on kv-put-repl (kv-put: 0)"},
		{Name: "repl.ack_p50_ms", Unit: "ms", Better: "lower", Layer: "repl", Moves: "lat_p50_ms on kv-put-repl; Sender histogram, power-of-two buckets, up to 2x error (kv-put: 0)"},
		{Name: "repl.ack_p99_ms", Unit: "ms", Better: "lower", Layer: "repl", Moves: "lat_p90_ms on kv-put-repl; same histogram, up to 2x error (kv-put: 0)"},
		{Name: "repl.replica_lag_tx_max", Unit: "count", Better: "lower", Layer: "repl", Moves: "sat_ops_per_s on kv-put-repl (kv-put: 0)"},
		{Name: "repl.oversize_drops", Unit: "count", Better: "lower", Layer: "repl", Moves: "must stay 0"},
		{Name: "repl.gaps", Unit: "count", Better: "lower", Layer: "repl", Moves: "must stay 0"},
		{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Layer: "runtime", Moves: "cpu_us_per_op, lat_p90_ms on every kv-* (per-wait channels, per-response buffers)"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "lat_p90_ms on every kv-*"},
		{Name: "client.send_skew_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "generator honesty: how late requests left"},
		{Name: "client.send_skew_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "generator honesty"},
		{Name: "client.send_us", Unit: "us", Better: "lower", Layer: "client", Moves: "median GoFn (tx-btree: Update) call"},
		{Name: "client.service_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "actual send to ack; where a small server-side gain shows first"},
		{Name: "client.put_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "write share of lat_p50_ms (tx-btree: its transactions)"},
		{Name: "client.put_p90_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "write share of lat_p90_ms"},
		{Name: "client.put_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "diagnostic: tracks the generator's own p99 send skew on two shared cores"},
		{Name: "client.get_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "read share of lat_p50_ms on kv-read-mostly (others: 0)"},
		{Name: "client.get_p90_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "read share of lat_p90_ms on kv-read-mostly (others: 0)"},
		{Name: "client.get_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "diagnostic (others: 0)"},
		{Name: "client.p90_worst_window_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "worst 1 s window's p90: periodic spikes a median hides"},
		{Name: "client.slo_miss_frac", Unit: "ratio", Better: "lower", Layer: "client", Moves: "share not answered within 20 ms, failures included"},
		{Name: "client.failed_frac", Unit: "ratio", Better: "lower", Layer: "client", Moves: "errors + refusals + unanswered at the 5 s drain + wrong reads, over attempted; must stay 0"},
		{Name: "drill.lost_acked", Unit: "count", Better: "lower", Layer: "drill", Moves: "acknowledged writes missing or older than acked after recovery / on the replica; must stay 0"},
		{Name: "host.steal_frac", Unit: "ratio", Better: "lower", Layer: "host", Moves: "explains, never gates"},
		{Name: "host.quiet_frac", Unit: "ratio", Better: "higher", Layer: "host", Moves: "explains, never gates"},
		{Name: "host.spin_ms", Unit: "ms", Better: "lower", Layer: "host", Moves: "fixed 50 M-iteration loop before the workload; explains, never gates"},
	}
	for _, seg := range critSegments {
		l = append(l, metricSpec{Name: "critpath." + seg + "_ms", Unit: "ms", Better: "lower", Layer: "critpath", Moves: "mean share of the wait span on sampled writes; lat_p50_ms"})
	}
	l = append(l,
		metricSpec{Name: "critpath.front_residual_ms", Unit: "ms", Better: "lower", Layer: "critpath", Moves: "wait minus the six segments: socket read, pending, slot wait, Perform, encode, flush, client read"},
		metricSpec{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "obs", Moves: "traced / untraced cpu_us_per_op - 1"},
	)
	for _, r := range ladderRungs {
		l = append(l,
			metricSpec{Name: "ladder." + r + "_us", Unit: "us", Better: "lower", Layer: "ladder", Moves: "median wall time per single-key PUT at this rung; its cost over the rung below is the layer's self time"},
			metricSpec{Name: "ladder." + r + "_cpu_us", Unit: "us", Better: "lower", Layer: "ladder", Moves: "process CPU per PUT at this rung"},
		)
	}
	byName := map[string]metricSpec{}
	for _, m := range l {
		byName[m.Name] = m
	}
	for _, m := range endToEnd {
		byName[m.Name] = m
	}
	for _, name := range satLayer {
		m := byName[name]
		l = append(l, metricSpec{Name: "sat." + name, Unit: m.Unit, Better: m.Better, Layer: "sat", Moves: "capacity-phase value of " + name + "; sat_ops_per_s"})
	}
	return append(l, metricSpec{Name: "sat.cpu_us_per_op", Unit: "us", Better: "lower", Layer: "sat", Moves: "process CPU per operation at saturation; sat_ops_per_s"})
}

// critSegments are the six commit-to-acked segments Pool.CritpathOf
// tiles, in pipeline order (obs.CritSegment.String names).
var critSegments = []string{"ring_dwell", "seal_wait", "persist_fence", "repl_ship", "quorum_wait", "notify"}

// ladderRungs are the layer-ladder rungs, bottom up.
var ladderRungs = []string{"wire", "stm_memdb", "perform", "durable", "tcp", "tcp_repl"}

// value is one measured metric: the figure and how many samples it
// rests on.
type value struct {
	V float64
	N int
}

// metrics collects one workload's measured values by name.
type metrics map[string]value

func (m metrics) set(name string, v float64, n int) { m[name] = value{V: v, N: n} }

// zero records explicit zeros for every declared per-layer metric with
// one of the prefixes: the layer does no work on this workload, which
// is a measurement, not a gap.
func (m metrics) zero(prefixes ...string) {
	for _, s := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(s.Name, p) {
				if _, ok := m[s.Name]; !ok {
					m[s.Name] = value{}
				}
			}
		}
	}
}

// missing returns the declared metrics of specs absent from m. A
// workload with a missing metric fails: a silent gap would read as "no
// change" in a later comparison.
func (m metrics) missing(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		if _, ok := m[s.Name]; !ok {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// runSeconds is the measured time per run the driver asks for.
const runSeconds = 8

// benchmarkFile is BENCHMARK.json: the driver's view of the
// declarations above, with exactly the keys its contract names.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileBounded  `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type fileBounded struct {
	fileMetric
	Bound float64 `json:"bound"`
}

// writeSpec prints BENCHMARK.json from the declarations.
func writeSpec(w io.Writer) error {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileBounded{fileMetric{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, fileMetric{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(f)
}
