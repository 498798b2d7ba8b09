// Package dudetm implements the DudeTM durable transaction system: the
// decoupled Perform / Persist / Reproduce pipeline of the paper, over the
// simulated persistent memory in internal/pmem, the TM engines in
// internal/stm, the shadow memory in internal/shadow, and the redo logs
// in internal/redolog.
//
// A transaction executes in three fully asynchronous steps:
//
//	Perform   — run on shadow DRAM under an out-of-the-box TM, emitting a
//	            volatile redo log per thread (never touching NVM).
//	Persist   — a background thread merges the volatile logs in commit-ID
//	            order, optionally combines and compresses groups of
//	            transactions, and flushes each group to the persistent
//	            log region with a single persist barrier, advancing the
//	            global durable ID.
//	Reproduce — a background thread replays persisted groups, in ID
//	            order, into the persistent data region, then recycles
//	            their log space.
//
// Dirty shadow data is never written back directly; the redo log is the
// only channel into persistent memory, so CPU-cache evictions (simulated
// by pmem) can never corrupt the durable state.
package dudetm

import (
	"os"
	"strconv"
	"time"

	"dudetm/internal/pmem"
)

// Mode selects how the Persist step is driven.
type Mode int

const (
	// ModeAsync is DudeTM proper: Run returns after Perform; Persist and
	// Reproduce happen on background threads.
	ModeAsync Mode = iota
	// ModeSync is the DUDETM-Sync baseline (§5.1): each transaction
	// flushes its own redo log synchronously after Perform and returns
	// only once it is durable. Perform threads cannot run back-to-back.
	ModeSync
)

// EngineKind selects the TM the Perform step runs on.
type EngineKind int

const (
	// EngineSTM is the TinySTM-like software TM.
	EngineSTM EngineKind = iota
	// EngineHTM is the simulated hardware TM (§4.2).
	EngineHTM
)

// ShadowKind selects the shadow-memory configuration.
type ShadowKind int

const (
	// ShadowFlat mirrors the whole data region in DRAM (no paging).
	ShadowFlat ShadowKind = iota
	// ShadowSW uses software paging over ShadowBytes of DRAM.
	ShadowSW
	// ShadowHW uses simulated hardware (Dune-style) paging.
	ShadowHW
)

const (
	// pageSize is the paging granularity of pools this build creates.
	// Recover takes an existing pool's page size from its header.
	pageSize = 4096
	// blackboxEntries is the slot count of the persistent flight
	// recorder (one 64-byte slot per entry, in its own pool region):
	// the pipeline stamps it at persistence milestones and the
	// post-crash forensics pass decodes the survivors into the
	// CrashReport.
	blackboxEntries = 1024
)

// Config describes a DudeTM system.
type Config struct {
	// DataSize is the persistent data region size in bytes (page
	// aligned).
	DataSize uint64
	// Threads is the number of Perform threads; Run's slot argument
	// must be in [0, Threads).
	Threads int
	// Mode selects asynchronous (decoupled) or synchronous persistence.
	Mode Mode
	// Engine selects the TM implementation.
	Engine EngineKind
	// Shadow selects the shadow-memory configuration.
	Shadow ShadowKind
	// ShadowBytes is the shadow DRAM budget for paged configurations.
	ShadowBytes uint64
	// VLogEntries is the per-thread volatile redo-log capacity in
	// entries, rounded up to a power of two (default 1<<14; the paper
	// uses one million, and the DUDETM-Inf configuration a value large
	// enough never to fill). In ModeAsync a transaction's writes and its
	// end mark must fit the ring, so the default caps a transaction at
	// 16 383 writes: Run refuses a larger one with ErrTxTooLarge. The
	// smaller ring keeps each Perform thread's log cache resident; a
	// burst it cannot absorb blocks the committer until Persist frees
	// space.
	VLogEntries int
	// LogBufBytes is the size of each persistent log buffer (default
	// 8 MiB).
	LogBufBytes uint64
	// GroupSize is the number of consecutive transactions combined into
	// one persist group (default 1 = no cross-transaction combination).
	// It caps a group; a partial group seals as soon as the Persist
	// step has nothing else to wait for (see persistLoop), never on a
	// timer.
	GroupSize int
	// Compress enables lz4 compression of persisted groups.
	Compress bool
	// TraceSampleEvery enables lifecycle tracing for every N-th
	// transaction ID: sampled transactions are stamped at commit,
	// group-seal, persist-fence and reproduce-apply (TraceOf
	// reconstructs the timeline) and their commit→durable /
	// commit→reproduced latencies feed the obs histograms. 1 traces
	// everything; 0 disables per-transaction tracing (the default,
	// overridable with DUDETM_TRACE_SAMPLE). Per-group metrics (fence
	// duration, group size) are always recorded.
	TraceSampleEvery int
	// Watchdog enables the stall watchdog: when > 0, a background
	// goroutine samples the pipeline every Watchdog interval and
	// reports a stall (logged, counted in Stats().Stalls, kept as
	// LastStall) when a frontier with work queued behind it fails to
	// advance across two consecutive samples (pauses via PausePersist /
	// PauseReproduce are suppressed). 0 disables it.
	Watchdog time.Duration
	// ReplFactor is the number of peer replicas the attached
	// replication sender ships sealed groups to (R; 0 = replication
	// off). The pool itself only gates on acks — the sender attached
	// with EnableReplication does the shipping.
	ReplFactor int
	// ReplQuorum is the number of replica acknowledgments a transaction
	// needs, beyond local log durability, before WaitDurable releases
	// it (Q; default ReplFactor when ReplFactor > 0, i.e. wait for all
	// replicas).
	ReplQuorum int
	// ReplDegradeLocal selects the degraded-mode behavior when fewer
	// than ReplQuorum replicas are live: true falls back to local-only
	// durability (flagged in metrics, never silent); false fails
	// waiters with ErrQuorumLost until the quorum heals.
	ReplDegradeLocal bool
	// Pmem carries the NVM timing model (latency, bandwidth,
	// DelayEnabled); its Size field is computed from the layout.
	Pmem pmem.Config
}

func (c *Config) applyDefaults() {
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.VLogEntries == 0 {
		c.VLogEntries = 1 << 14
	}
	if c.LogBufBytes == 0 {
		c.LogBufBytes = 8 << 20
	}
	if c.GroupSize == 0 {
		c.GroupSize = 1
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = defaultTraceSample()
	}
	if c.TraceSampleEvery < 0 {
		c.TraceSampleEvery = 0
	}
	if c.DataSize == 0 {
		c.DataSize = 64 << 20
	}
	if c.ReplFactor > 0 && c.ReplQuorum == 0 {
		c.ReplQuorum = c.ReplFactor
	}
	c.DataSize = (c.DataSize + pageSize - 1) &^ (pageSize - 1)
}

// defaultTraceSample resolves the default trace-sampling period:
// DUDETM_TRACE_SAMPLE when set (the CI knob that exercises the tracing
// paths in configs that don't ask for them), otherwise disabled. A
// negative Config.TraceSampleEvery forces tracing off even when the
// environment sets a period.
func defaultTraceSample() int {
	if v := os.Getenv("DUDETM_TRACE_SAMPLE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}
