package harness

import (
	"encoding/json"
	"io"
	"sync"
)

// Record is one measured run in machine-readable form. encoding/json
// emits struct fields in declaration order, so the key order below is
// the stable output order — downstream diffing and plotting scripts can
// rely on it.
type Record struct {
	Experiment  string  `json:"experiment"`
	System      string  `json:"system"`
	Bench       string  `json:"bench"`
	Threads     int     `json:"threads"`
	Ops         uint64  `json:"ops"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	TPS         float64 `json:"tps"`
	P50NS       int64   `json:"p50_ns"`
	P90NS       int64   `json:"p90_ns"`
	P99NS       int64   `json:"p99_ns"`
	Commits     uint64  `json:"commits"`
	Aborts      uint64  `json:"aborts"`
	Writes      uint64  `json:"writes"`
	NVMBytes    uint64  `json:"nvm_bytes"`
	LogBytes    uint64  `json:"log_bytes"`
	RawEntries  uint64  `json:"raw_entries"`
	CombEntries uint64  `json:"comb_entries"`
	// Background-stage utilization over the measured interval (new
	// fields append after the original ones to keep the key order of
	// older records stable).
	PersistBusyNS uint64 `json:"persist_busy_ns"`
	ReproBusyNS   uint64 `json:"repro_busy_ns"`
	PersistFences uint64 `json:"persist_fences"`
	ReproFences   uint64 `json:"repro_fences"`
	// Observability-layer interval metrics (DudeTM only): sampled
	// lifecycle latencies and per-group histogram quantiles.
	TraceSampled    uint64 `json:"trace_sampled"`
	DurP50NS        uint64 `json:"dur_p50_ns"`
	DurP99NS        uint64 `json:"dur_p99_ns"`
	DurP999NS       uint64 `json:"dur_p999_ns"`
	ReproP99NS      uint64 `json:"repro_p99_ns"`
	FenceP99NS      uint64 `json:"fence_p99_ns"`
	QueueDwellP99NS uint64 `json:"queue_dwell_p99_ns"`
	GroupTxnsP50    uint64 `json:"group_txns_p50"`
	// Crash-recovery instrumentation (DudeTM only, zero unless the
	// system was mounted with Recover): per-phase timings and replay
	// volume of the mount-time recovery pass.
	RecoveryScanNS    int64  `json:"recovery_scan_ns"`
	RecoveryReplayNS  int64  `json:"recovery_replay_ns"`
	RecoveryRecycleNS int64  `json:"recovery_recycle_ns"`
	RecoveryGroups    uint64 `json:"recovery_groups_replayed"`
	RecoveryEntries   uint64 `json:"recovery_entries_replayed"`
	RecoveryBytes     uint64 `json:"recovery_bytes_replayed"`
	// Replicated-durability metrics (repl experiment only): the quorum
	// shape, ship-to-replica-ack latency quantiles, and the shipped
	// payload volume before/after wire compression.
	ReplFactor    int    `json:"repl_factor"`
	ReplQuorum    int    `json:"repl_quorum"`
	ReplAckP50NS  uint64 `json:"repl_ack_p50_ns"`
	ReplAckP99NS  uint64 `json:"repl_ack_p99_ns"`
	ReplAckP999NS uint64 `json:"repl_ack_p999_ns"`
	ReplRawBytes  uint64 `json:"repl_raw_bytes"`
	ReplWireBytes uint64 `json:"repl_wire_bytes"`
	// Replay-epoch coalescing and per-stage utilization (DudeTM only):
	// coalesced Reproduce epochs, the entries-in/entries-out reduction
	// of last-writer-wins coalescing, the distinct cache lines replay
	// wrote back, and the per-worker stage utilizations over the run.
	ReproEpochs        uint64  `json:"repro_epochs"`
	ReproCoalesceIn    uint64  `json:"repro_coalesce_in"`
	ReproCoalesceOut   uint64  `json:"repro_coalesce_out"`
	ReproCoalesceRatio float64 `json:"repro_coalesce_ratio"`
	ReproLinesFlushed  uint64  `json:"repro_lines_flushed"`
	PersistUtil        float64 `json:"persist_util"`
	ReproUtil          float64 `json:"repro_util"`
	// p999 of the sampled transaction latency (latency-sampling runs
	// only; omitted when the run did not sample).
	P999NS int64 `json:"p999_ns,omitempty"`
}

// recorder collects the Result of every Measure call while recording is
// active. Experiments run sequentially, so one current-experiment label
// suffices; the mutex covers the measurement goroutine itself.
var recorder struct {
	mu         sync.Mutex
	active     bool
	experiment string
	records    []Record
}

// StartRecording makes every subsequent measured run append a Record.
func StartRecording() {
	recorder.mu.Lock()
	recorder.active = true
	recorder.records = nil
	recorder.mu.Unlock()
}

// SetExperiment labels subsequent records (e.g. "fig2"); the driver
// calls it before each experiment function.
func SetExperiment(name string) {
	recorder.mu.Lock()
	recorder.experiment = name
	recorder.mu.Unlock()
}

// record appends one measured result if recording is active.
func record(res Result) {
	recorder.mu.Lock()
	if recorder.active {
		recorder.records = append(recorder.records, Record{
			Experiment:    recorder.experiment,
			System:        res.Sys.String(),
			Bench:         res.Bench,
			Threads:       res.Threads,
			Ops:           res.Ops,
			ElapsedNS:     res.Elapsed.Nanoseconds(),
			TPS:           res.TPS,
			P50NS:         res.P50.Nanoseconds(),
			P90NS:         res.P90.Nanoseconds(),
			P99NS:         res.P99.Nanoseconds(),
			Commits:       res.Stats.Commits,
			Aborts:        res.Stats.Aborts,
			Writes:        res.Stats.Writes,
			NVMBytes:      res.Stats.NVMBytes,
			LogBytes:      res.Stats.LogBytes,
			RawEntries:    res.Stats.RawEntries,
			CombEntries:   res.Stats.CombEntries,
			PersistBusyNS: res.Stats.PersistBusyNS,
			ReproBusyNS:   res.Stats.ReproBusyNS,
			PersistFences: res.Stats.PersistFences,
			ReproFences:   res.Stats.ReproFences,

			TraceSampled:    res.Stats.Obs.SampledCommits,
			DurP50NS:        res.Stats.Obs.CommitDurable.Quantile(0.5),
			DurP99NS:        res.Stats.Obs.CommitDurable.Quantile(0.99),
			DurP999NS:       res.Stats.Obs.CommitDurable.Quantile(0.999),
			ReproP99NS:      res.Stats.Obs.CommitReproduced.Quantile(0.99),
			FenceP99NS:      res.Stats.Obs.Fence.Quantile(0.99),
			QueueDwellP99NS: res.Stats.Obs.QueueDwell.Quantile(0.99),
			GroupTxnsP50:    res.Stats.Obs.GroupTxns.Quantile(0.5),

			RecoveryScanNS:    res.Stats.Recovery.ScanNanos,
			RecoveryReplayNS:  res.Stats.Recovery.ReplayNanos,
			RecoveryRecycleNS: res.Stats.Recovery.RecycleNanos,
			RecoveryGroups:    res.Stats.Recovery.GroupsReplayed,
			RecoveryEntries:   res.Stats.Recovery.EntriesReplayed,
			RecoveryBytes:     res.Stats.Recovery.BytesReplayed,

			ReproEpochs:        res.Stats.ReproEpochs,
			ReproCoalesceIn:    res.Stats.ReproCoalesceIn,
			ReproCoalesceOut:   res.Stats.ReproCoalesceOut,
			ReproCoalesceRatio: coalesceRatio(res.Stats.ReproCoalesceIn, res.Stats.ReproCoalesceOut),
			ReproLinesFlushed:  res.Stats.ReproLines,
			PersistUtil:        res.Stats.PersistUtil,
			ReproUtil:          res.Stats.ReproUtil,
			P999NS:             res.P999.Nanoseconds(),
		})
	}
	recorder.mu.Unlock()
}

// coalesceRatio is entries-in over entries-out of epoch coalescing
// (1 when no epochs formed — no duplication observed).
func coalesceRatio(in, out uint64) float64 {
	if out == 0 {
		return 1
	}
	return float64(in) / float64(out)
}

// recordRaw appends a fully-formed record if recording is active,
// stamping the current experiment label. Experiments whose
// measurements do not flow through Measure (repl: the workload spans
// several processes' worth of pools and a TCP transport) build their
// Record directly.
func recordRaw(rec Record) {
	recorder.mu.Lock()
	if recorder.active {
		rec.Experiment = recorder.experiment
		recorder.records = append(recorder.records, rec)
	}
	recorder.mu.Unlock()
}

// WriteJSON emits every recorded run as one indented JSON document:
// {"records": [...]} with per-record keys in the fixed Record order.
func WriteJSON(w io.Writer) error {
	recorder.mu.Lock()
	records := recorder.records
	recorder.mu.Unlock()
	if records == nil {
		records = []Record{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Records []Record `json:"records"`
	}{records})
}
