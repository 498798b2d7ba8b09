package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"dudetm"
	idudetm "dudetm/internal/dudetm"
	"dudetm/internal/obs"
	"dudetm/internal/repl"
)

// WriteMetrics renders the pool's pipeline state and the server's
// service counters in the Prometheus text exposition format (0.0.4).
// One scrape is a consistent-enough snapshot for operations: every
// value is read from a monotonic counter or a current gauge; no locks
// are taken on the transaction hot path.
//
// Each family's name, type and help are declared here once and
// nowhere else. Every family writes at least one sample whatever the
// load or topology (zeros on a fresh or unreplicated node), which is
// what obs.Scrape.Check holds a scrape to.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.pool.Stats()
	sv := s.Stats()
	p := obs.NewPromWriter(w)

	// Pipeline frontiers. clock >= durable >= reproduced in steady
	// state; the gaps are the Persist and Reproduce backlogs in
	// transaction IDs — the decoupling the paper buys throughput with.
	p.Gauge("dudetm_clock_tid", "Largest committed transaction ID (Perform frontier).", float64(st.Clock))
	p.Gauge("dudetm_durable_tid", "Durable frontier: every transaction at or below it survives a crash.", float64(st.Durable))
	p.Gauge("dudetm_reproduced_tid", "Largest transaction ID applied to persistent data.", float64(st.Reproduced))

	p.Counter("dudetm_commits_total", "Committed write transactions.", float64(st.Committed))
	p.Counter("dudetm_log_bytes_total", "Serialized bytes appended to persistent redo logs.", float64(st.LogBytes))
	p.Counter("dudetm_nvm_bytes_total", "Bytes written back to (simulated) NVM.", float64(st.Device.BytesFlushed))
	p.Counter("dudetm_device_fences_total", "Persist barriers issued to the device.", float64(st.Device.Fences))

	// Per-stage utilization, labeled like a real job system so one
	// dashboard query covers both background stages.
	stageNames := []string{"persist", "reproduce"}
	stages := []idudetm.StageStats{st.Persist, st.Reproduce}
	p.Family("dudetm_stage_busy_seconds_total", "counter", "Busy time per pipeline stage (summed across workers).",
		"stage", stageNames, func(i int) float64 { return float64(stages[i].BusyNanos) * 1e-9 })
	p.Family("dudetm_stage_groups_total", "counter", "Groups processed per pipeline stage.",
		"stage", stageNames, func(i int) float64 { return float64(stages[i].Groups) })
	p.Family("dudetm_stage_fences_total", "counter", "Persist barriers issued per pipeline stage.",
		"stage", stageNames, func(i int) float64 { return float64(stages[i].Fences) })
	p.Family("dudetm_stage_workers", "gauge", "Configured worker count per pipeline stage.",
		"stage", stageNames, func(i int) float64 { return float64(stages[i].Workers) })
	p.Family("dudetm_stage_queue_depth", "gauge", "Current stage backlog in groups.",
		"stage", stageNames, func(i int) float64 { return float64(stages[i].QueueDepth) })
	p.Family("dudetm_stage_utilization", "gauge", "Per-worker stage utilization in [0,1] over the process lifetime.",
		"stage", stageNames, func(i int) float64 { return stages[i].Utilization })
	p.Counter("dudetm_persist_wakes_total", "Persist coordinator wakes from an idle park (a commit, a drained persist queue, Close or Crash); divided by dudetm_stage_groups_total{stage=\"persist\"} it is wakes per group.", float64(st.Persist.Wakes))

	// Replay epochs (Reproduce stage). The counters exist (at zero)
	// while Reproduce keeps up — epochs only form under backlog — so the
	// scrape contract is stable across load levels. Epochs replay every
	// entry (the dirty bit, not a combiner, dedups the write-back), so
	// entries in and out are equal and the ratio reads 1.
	rp := st.Reproduce
	p.Counter("dudetm_repro_epochs_total", "Replay epochs (dense backlog runs of two or more groups replayed under one fence).", float64(rp.Epochs))
	p.Counter("dudetm_repro_epoch_entries_in_total", "Log entries replayed in epochs.", float64(rp.CoalesceIn))
	p.Counter("dudetm_repro_epoch_entries_out_total", "Log entries replayed in epochs; equal to entries_in, because epochs store every entry in tid order and the dirty bit dedups the write-back.", float64(rp.CoalesceOut))
	p.Counter("dudetm_repro_lines_flushed_total", "Distinct cache lines written back by Reproduce replay.", float64(rp.LinesFlushed))
	ratio := 1.0
	if rp.CoalesceOut > 0 {
		ratio = float64(rp.CoalesceIn) / float64(rp.CoalesceOut)
	}
	p.Gauge("dudetm_repro_epoch_coalesce_ratio", "Epoch entries in over entries out (1: epochs no longer combine entries).", ratio)

	// Lifecycle latency histograms (nanosecond observations rendered in
	// seconds) and their headline quantiles as ready-made gauges, so a
	// scraper without histogram_quantile still sees p50/p99/p999.
	ob := st.Obs
	p.Gauge("dudetm_trace_sample_every", "Lifecycle trace sampling period (0 = tracing off).", float64(ob.SampleEvery))
	p.Counter("dudetm_trace_sampled_total", "Transactions stamped by the lifecycle tracer.", float64(ob.SampledCommits))
	p.Histogram("dudetm_commit_durable_seconds", "Commit to durable-fence latency of sampled transactions.", ob.CommitDurable, 1e-9)
	p.Histogram("dudetm_commit_reproduced_seconds", "Commit to reproduce-apply latency of sampled transactions.", ob.CommitReproduced, 1e-9)
	p.Histogram("dudetm_fence_seconds", "Per-group log append + persist barrier duration.", ob.Fence, 1e-9)
	p.Histogram("dudetm_group_txns", "Transactions per sealed persist group.", ob.GroupTxns, 1)
	p.Histogram("dudetm_group_entries", "Combined log entries per sealed persist group.", ob.GroupEntries, 1)
	p.Histogram("dudetm_repro_epoch_groups", "Groups replayed per replay epoch.", ob.EpochGroups, 1)
	p.Histogram("dudetm_repro_epoch_entries", "Log entries replayed per replay epoch.", ob.EpochEntries, 1)

	p.Quantiles("dudetm_commit_durable_latency_seconds", "Commit to durable latency quantiles of sampled transactions.", ob.CommitDurable, 1e-9)
	p.Quantiles("dudetm_commit_reproduced_latency_seconds", "Commit to reproduced latency quantiles of sampled transactions.", ob.CommitReproduced, 1e-9)

	// Critical-path decomposition of sampled transactions: where the
	// commit→acked window goes, segment by segment. The segment set is
	// fixed (unreplicated nodes report zero repl segments), so the
	// scrape contract is stable across topologies.
	crit := ob.Crit
	p.Counter("dudetm_critpath_txns_total", "Sampled transactions decomposed into critical-path segments.", float64(crit.Txns))
	p.Counter("dudetm_critpath_incomplete_total", "Sampled transactions whose timeline was missing a required stamp.", float64(crit.Incomplete))
	p.Counter("dudetm_critpath_dropped_total", "Sampled transactions left untraced because their sample row still held an earlier transaction's trace.", float64(crit.Dropped))
	p.Histogram("dudetm_critpath_e2e_seconds", "Commit to quorum-acked latency of decomposed transactions.", crit.E2E, 1e-9)
	segNames := make([]string, obs.NumCritSegments)
	for seg := range segNames {
		segNames[seg] = obs.CritSegment(seg).String()
	}
	p.Family("dudetm_critpath_segment_seconds_total", "counter", "Critical-path time attributed per segment across decomposed transactions.",
		"segment", segNames, func(i int) float64 { return float64(crit.Segments[i].Sum) * 1e-9 })
	p.Family("dudetm_critpath_segment_share", "gauge", "Fraction of total critical-path time attributed per segment.",
		"segment", segNames, func(i int) float64 {
			if crit.E2E.Sum == 0 {
				return 0
			}
			return float64(crit.Segments[i].Sum) / float64(crit.E2E.Sum)
		})
	p.Family("dudetm_critpath_segment_p99_seconds", "gauge", "Per-transaction p99 of each critical-path segment.",
		"segment", segNames, func(i int) float64 { return float64(crit.Segments[i].Quantile(0.99)) * 1e-9 })

	p.Counter("dudetm_watchdog_stalls_total", "Pipeline stall episodes detected by the watchdog.", float64(st.Stalls))

	// Recovery observability. The gauges exist (at zero) on a fresh
	// pool so scrapers and `dudectl top -check` see a stable series set;
	// after a recovery mount they describe it.
	rec := st.Recovery
	var recovered float64
	if rec.Recovered {
		recovered = 1
	}
	p.Counter("dudetm_recovery_runs_total", "Recovery mounts performed by this process's pool (0 or 1).", recovered)
	p.Gauge("dudetm_recovery_scan_seconds", "Wall time of the recovery log-scan phase.", float64(rec.ScanNanos)*1e-9)
	p.Gauge("dudetm_recovery_replay_seconds", "Wall time of the recovery replay phase.", float64(rec.ReplayNanos)*1e-9)
	p.Gauge("dudetm_recovery_recycle_seconds", "Wall time of the recovery log-reset phase.", float64(rec.RecycleNanos)*1e-9)
	p.Gauge("dudetm_recovery_groups_replayed", "Redo-log groups replayed by recovery.", float64(rec.GroupsReplayed))
	p.Gauge("dudetm_recovery_entries_replayed", "Redo-log entries replayed by recovery.", float64(rec.EntriesReplayed))
	p.Gauge("dudetm_recovery_bytes_replayed", "Bytes written back to the data region by recovery replay.", float64(rec.BytesReplayed))

	// Replication. Like the recovery gauges, every series exists (at
	// zero or "healthy") on an unreplicated node so the scrape contract
	// is stable across R=0 and R>0 deployments.
	rs := s.pool.ReplStats()
	var enabled, healthy float64
	if rs.Enabled {
		enabled = 1
	}
	if !rs.Degraded {
		healthy = 1 // replication off counts as healthy: acks gate on local only
	}
	p.Gauge("dudetm_repl_peers", "Configured replication peers (0 = replication off).", float64(rs.Peers))
	p.Gauge("dudetm_repl_quorum", "Replica acks required before the quorum frontier advances.", float64(rs.Quorum))
	p.Gauge("dudetm_repl_enabled", "1 when this node ships its persist log to peers.", enabled)
	p.Gauge("dudetm_repl_quorum_state", "1 while the ack quorum is intact (or replication is off), 0 while degraded.", healthy)
	acked := s.pool.AckFrontier()
	// acked is read after the Stats snapshot; without replication the
	// two race, so clamp the lag at zero rather than report a negative.
	lag := float64(st.Durable) - float64(acked)
	if lag < 0 {
		lag = 0
	}
	p.Gauge("dudetm_repl_acked_tid", "Quorum-acked frontier: client acks never pass it.", float64(acked))
	p.Gauge("dudetm_repl_frontier_lag", "Local durable frontier minus the quorum-acked frontier, in transaction IDs.", lag)
	p.Counter("dudetm_repl_degraded_events_total", "Times the ack quorum was lost.", float64(rs.DegradedEvents))
	p.Counter("dudetm_repl_raw_bytes_total", "Shipped group payload bytes before compression.", float64(st.Persist.ReplRawBytes))
	p.Counter("dudetm_repl_wire_bytes_total", "Shipped group payload bytes after compression (on the wire).", float64(st.Persist.ReplWireBytes))

	// Transport detail comes from the attached sender; without one the
	// zero snapshot keeps the series present.
	var snd repl.SenderStats
	if s.replSnd != nil {
		snd = s.replSnd.Stats()
	}
	p.Counter("dudetm_repl_groups_shipped_total", "Sealed groups handed to the replication transport.", float64(snd.GroupsShipped))
	p.Gauge("dudetm_repl_peers_connected", "Peers with a live replication stream.", float64(snd.Connected))
	p.Counter("dudetm_repl_dead_peers_total", "Peers abandoned permanently (queue overflow or oversize group).", float64(snd.DeadPeers))
	p.Histogram("dudetm_repl_ack_seconds", "Ship-to-replica-ack latency per shipped group.", snd.AckLatency, 1e-9)
	p.Quantiles("dudetm_repl_ack_latency_seconds", "Ship-to-replica-ack latency quantiles.", snd.AckLatency, 1e-9)

	// Per-region device traffic: which pool region (header, meta,
	// blackbox, log, data) the flush/fence/byte volume lands in.
	regionNames := make([]string, len(st.Regions))
	for i, r := range st.Regions {
		regionNames[i] = r.Name
	}
	p.Family("dudetm_region_stored_bytes_total", "counter", "Bytes stored per pool region.",
		"region", regionNames, func(i int) float64 { return float64(st.Regions[i].BytesStored) })
	p.Family("dudetm_region_flushed_bytes_total", "counter", "Bytes written back per pool region.",
		"region", regionNames, func(i int) float64 { return float64(st.Regions[i].BytesFlushed) })
	p.Family("dudetm_region_flushed_lines_total", "counter", "Cache lines written back per pool region.",
		"region", regionNames, func(i int) float64 { return float64(st.Regions[i].LinesFlushed) })
	p.Family("dudetm_region_fences_total", "counter", "Persist barriers attributed per pool region.",
		"region", regionNames, func(i int) float64 { return float64(st.Regions[i].Fences) })

	// Service counters.
	p.Counter("dudesrv_connections_total", "Connections accepted.", float64(sv.Conns))
	p.Counter("dudesrv_requests_total", "Requests executed.", float64(sv.Requests))
	p.Counter("dudesrv_acked_writes_total", "Write transactions acknowledged durable to clients.", float64(sv.AckedWrites))
	p.Counter("dudesrv_failed_acks_total", "Strict writes answered with an error because their durability wait failed (quorum lost, or pool closed or crashed); the response's error text and dudetm_repl_quorum_state say which.", float64(sv.FailedAcks))
	p.Counter("dudesrv_offered_requests_total", "Requests decoded off the wire (demand, counted before execution).", float64(sv.Offered))
	p.Counter("dudesrv_served_responses_total", "Responses written back to clients.", float64(sv.Served))
	p.Counter("dudesrv_notifier_wakeups_total", "Ack-frontier advances that released at least one parked waiter (counted by the pool's durability notifier, Pool.NotifierStats; the server has none of its own).", float64(sv.Notifier.Wakeups))
	p.Counter("dudesrv_notifier_released_total", "Parked waiters released by ack-frontier advances (server connections and library WaitDurable callers alike).", float64(sv.Notifier.Released))
	p.Gauge("dudesrv_notifier_max_batch", "Most waiters released by a single frontier advance.", float64(sv.Notifier.MaxBatch))
	return p.Err()
}

// DebugHandler returns the server's observability endpoint: /metrics
// (Prometheus text), /debug/trace (lifecycle trace inspection),
// /debug/stall (last watchdog report) and the standard pprof profiles
// under /debug/pprof/. Serve it on a loopback or operations port — it
// is diagnostic surface, not client API.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			// Headers are gone; the truncated body is the best signal.
			fmt.Fprintf(w, "\n# write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/stall", s.handleStall)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleTrace serves lifecycle trace records. ?tid=N reconstructs one
// sampled transaction's timeline (&format=chrome renders it as a
// Chrome trace-event / Perfetto JSON document); without it the most
// recent ?n= records (default 64) across the sample table are dumped, oldest
// first. An unknown tid is a 404, not an empty 200 — scripts piping
// the output into Perfetto should fail loudly, and the body says why
// the tid has no records.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if tidStr := r.URL.Query().Get("tid"); tidStr != "" {
		tid, err := strconv.ParseUint(tidStr, 10, 64)
		if err != nil {
			http.Error(w, "trace: bad tid: "+err.Error(), http.StatusBadRequest)
			return
		}
		recs := s.pool.TraceOf(tid)
		if len(recs) == 0 {
			every := s.pool.Stats().Obs.SampleEvery
			if every == 0 {
				http.Error(w, fmt.Sprintf("tid %d not sampled; tracing is off (start with -trace-sample)", tid), http.StatusNotFound)
				return
			}
			http.Error(w, fmt.Sprintf("tid %d not sampled; sampling is 1-in-%d (or its sample row has since traced a later transaction)", tid, every), http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			if err := obs.WriteChromeTrace(w, tid, recs); err != nil {
				fmt.Fprintf(w, "\n// write error: %v\n", err)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "tid %d lifecycle:\n", tid)
		writeTrace(w, recs)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	n := 64
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		v, err := strconv.Atoi(nStr)
		if err != nil {
			http.Error(w, "trace: bad n: "+err.Error(), http.StatusBadRequest)
			return
		}
		n = v
	}
	recs := s.pool.TraceTail(n)
	if len(recs) == 0 {
		fmt.Fprintln(w, "no trace records (is -trace-sample enabled?)")
		return
	}
	fmt.Fprintf(w, "last %d trace records:\n", len(recs))
	writeTrace(w, recs)
}

// writeTrace renders records with timestamps relative to the first, so
// a timeline reads as elapsed pipeline time.
func writeTrace(w io.Writer, recs []dudetm.TraceRecord) {
	base := recs[0].At
	for _, rec := range recs {
		fmt.Fprintf(w, "  +%-12v %-15s tids [%d,%d]",
			time.Duration(rec.At-base), rec.Kind, rec.MinTid, rec.MaxTid)
		if rec.Kind == obs.EvReplSent || rec.Kind == obs.EvReplicaFence {
			fmt.Fprintf(w, " peer %d", rec.Arg)
		}
		if rec.Dur > 0 {
			fmt.Fprintf(w, " dur %v", time.Duration(rec.Dur))
		}
		fmt.Fprintln(w)
	}
}

// handleStall serves the most recent watchdog stall report.
func (s *Server) handleStall(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep := s.pool.LastStall()
	if rep == nil {
		fmt.Fprintln(w, "no stalls recorded")
		return
	}
	fmt.Fprintln(w, rep.String())
}
