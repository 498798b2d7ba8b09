package dudetm

import (
	"sort"
	"time"

	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// RecoveryStats instruments one Recover: per-phase wall times, replay
// volume, and the forensic report of the image it mounted. Zero-valued
// (Recovered false) on a pool mounted with Create.
type RecoveryStats struct {
	// Recovered reports whether this mount came from Recover.
	Recovered bool `json:"recovered"`
	// ScanNanos, ReplayNanos and RecycleNanos are the wall times of the
	// three recovery phases: scanning the persistent logs, replaying
	// the dense unreproduced prefix into the data region, and resetting
	// the logs for the fresh writers.
	ScanNanos    int64 `json:"scan_nanos"`
	ReplayNanos  int64 `json:"replay_nanos"`
	RecycleNanos int64 `json:"recycle_nanos"`
	// LogsScanned is the number of persistent logs examined.
	LogsScanned int `json:"logs_scanned"`
	// GroupsReplayed / EntriesReplayed / BytesReplayed size the replay:
	// groups and log entries applied, and bytes written back to the
	// persistent data region.
	GroupsReplayed  uint64 `json:"groups_replayed"`
	EntriesReplayed uint64 `json:"entries_replayed"`
	BytesReplayed   uint64 `json:"bytes_replayed"`
	// Report is the forensic analysis of the image as mounted.
	Report *CrashReport `json:"report,omitempty"`
}

// Recover mounts a pool image after a crash (§3.5): it scans every
// persistent log, replays the dense prefix of unreproduced groups in
// transaction-ID order into the persistent data region, abandons any
// group beyond the first missing ID (those transactions were never
// acknowledged as durable), and restarts the pipeline with fresh, empty
// logs and a fresh shadow memory.
//
// cfg supplies the runtime configuration (threads, mode, engine, shadow,
// timing model); the pool geometry (data size, page size, log size,
// flight-recorder size) is read from the pool header and overrides the
// corresponding cfg fields. Recovery itself is instrumented: phase
// timings, replay volume and the forensic CrashReport of the image are
// exposed through Stats().Recovery.
func Recover(dev *pmem.Device, cfg Config) (*System, error) {
	cfg.applyDefaults()
	lay, err := readHeader(dev)
	if err != nil {
		return nil, err
	}
	cfg.DataSize = lay.dataSize
	cfg.LogBufBytes = lay.logSize
	if uint64(cfg.Threads) > lay.nlogs {
		// The pool was created with fewer Perform threads than the
		// mount configuration asks for; the persistent geometry wins.
		cfg.Threads = int(lay.nlogs)
	}
	dev.SetRegions(lay.regions())

	rec := RecoveryStats{Recovered: true, LogsScanned: int(lay.nlogs)}

	// Phase 1: scan all logs; the replay anchor is the largest
	// reproduced-ID any recycle persisted.
	scanStart := time.Now()
	results, anchor, all, err := scanPool(dev, lay)
	if err != nil {
		return nil, err
	}
	rec.ScanNanos = int64(time.Since(scanStart))

	frontier := denseFrontier(anchor, all)
	rec.Report = buildCrashReport(dev, lay, results, anchor, frontier, all)

	groups := make([]repoMsg, 0, len(all))
	for i := range results {
		for j := range results[i].Groups {
			groups = append(groups, repoMsg{g: &results[i].Groups[j], wi: i})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].g.MinTid < groups[j].g.MinTid })

	// Phase 2: replay the dense prefix above the anchor, one group at a
	// time under one closing fence. Groups at or below the anchor were
	// already reproduced before the crash (recycling lagged behind);
	// groups beyond the first gap were never durable. Replay is
	// single-threaded, so the device's flushed-byte delta is exactly the
	// replay write-back volume.
	replayStart := time.Now()
	flushedBefore := dev.Stats().BytesFlushed
	next := anchor + 1
	b := dev.NewBatch()
	for i, gr := range groups {
		if gr.g.MaxTid <= anchor {
			continue
		}
		if gr.g.MinTid != next {
			break
		}
		applyRuns(dev, b, lay.dataOff, groups[i:i+1])
		next = gr.g.MaxTid + 1
		rec.GroupsReplayed++
		rec.EntriesReplayed += uint64(len(gr.g.Entries))
	}
	b.Fence()
	rec.BytesReplayed = dev.Stats().BytesFlushed - flushedBefore
	rec.ReplayNanos = int64(time.Since(replayStart))

	s, err := build(cfg, dev, lay, frontier)
	if err != nil {
		return nil, err
	}

	// Phase 3: reset the logs — each writer restarts empty past the
	// scanned prefix, persisting the post-recovery watermark.
	recycleStart := time.Now()
	for i := range s.writers {
		s.writers[i] = redolog.Resume(dev, lay.metaAddr(i), lay.logAddr(i), lay.logSize,
			cfg.Compress, results[i], frontier)
	}
	rec.RecycleNanos = int64(time.Since(recycleStart))
	s.bindWriters()
	s.recov = rec
	s.start()
	return s, nil
}
