// Package harness runs the paper's benchmarks against every system in
// this repository and regenerates each table and figure of the
// evaluation (§5). Benchmarks are written once against memdb.Ctx and run
// unchanged on the volatile TMs, on every DudeTM configuration, and on
// the Mnemosyne baseline; the NVML baseline needs statically planned
// lock sets, so hash-based benchmarks additionally provide an NVML
// driver (mirroring the paper, which runs NVML only on its hash-based
// workloads).
package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"dudetm/internal/baseline/mnemosyne"
	"dudetm/internal/baseline/nvml"
	"dudetm/internal/dudetm"
	"dudetm/internal/memdb"
	"dudetm/internal/obs"
	"dudetm/internal/pmem"
	"dudetm/internal/shadow"
	"dudetm/internal/stm"
)

// SysKind enumerates the systems under evaluation.
type SysKind int

const (
	// VolatileSTM is TinySTM-like STM on DRAM, no durability — the
	// paper's upper bound.
	VolatileSTM SysKind = iota
	// VolatileHTM is the simulated HTM on DRAM, no durability.
	VolatileHTM
	// DudeSTM is DudeTM: decoupled, asynchronous persist.
	DudeSTM
	// DudeInf is DudeTM with an effectively unbounded volatile log.
	DudeInf
	// DudeSync is DUDETM-Sync: log flushed synchronously at commit.
	DudeSync
	// DudeHTM is DudeTM over the simulated HTM.
	DudeHTM
	// Mnemosyne is the redo-logging baseline.
	Mnemosyne
	// NVML is the undo-logging static-transaction baseline.
	NVML
)

// String returns the display name used in tables.
func (k SysKind) String() string {
	switch k {
	case VolatileSTM:
		return "Volatile-STM"
	case VolatileHTM:
		return "Volatile-HTM"
	case DudeSTM:
		return "DUDETM"
	case DudeInf:
		return "DUDETM-Inf"
	case DudeSync:
		return "DUDETM-Sync"
	case DudeHTM:
		return "DUDETM-HTM"
	case Mnemosyne:
		return "Mnemosyne"
	case NVML:
		return "NVML"
	}
	return fmt.Sprintf("SysKind(%d)", int(k))
}

// Options configures a system instance for one benchmark run.
type Options struct {
	Threads  int
	DataSize uint64
	// NVM timing model (§5.1): persist latency and write bandwidth.
	Latency   time.Duration
	Bandwidth float64
	// DelaysOn enables the timing model (off for functional tests).
	DelaysOn bool
	// DudeTM knobs.
	GroupSize   int
	Compress    bool
	VLogEntries int
	Shadow      dudetm.ShadowKind
	ShadowBytes uint64
	// TraceSampleEvery enables lifecycle tracing for every N-th
	// transaction (DudeTM only; 0 = default / DUDETM_TRACE_SAMPLE).
	TraceSampleEvery int
}

func (o *Options) applyDefaults() {
	if o.Threads == 0 {
		o.Threads = 2
	}
	if o.DataSize == 0 {
		o.DataSize = 64 << 20
	}
	if o.Latency == 0 {
		o.Latency = pmem.Latency1000
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = pmem.GB
	}
}

// SysStats is a cross-system statistics snapshot. All fields are
// monotonic counters, so interval activity is the difference of two
// snapshots.
type SysStats struct {
	Commits     uint64
	Writes      uint64 // transactional writes (dtmWrite count; DudeTM only)
	NVMBytes    uint64 // bytes written back to NVM
	LogBytes    uint64 // serialized log bytes (after combine/compress)
	RawEntries  uint64
	CombEntries uint64
	// Background-stage utilization (DudeTM only): busy nanoseconds and
	// persist barriers per stage.
	PersistBusyNS uint64
	ReproBusyNS   uint64
	PersistFences uint64
	ReproFences   uint64
	// Obs carries the lifecycle-latency histograms (DudeTM only;
	// mergeable snapshots, interval activity via Obs.Sub).
	Obs obs.Snapshot
	// Recovery describes the mount-time recovery pass (DudeTM only).
	// Unlike the counters above it is not an interval delta: recovery
	// happens once, at mount, so only System.Stats carries it.
	Recovery dudetm.RecoveryStats
}

// System is the harness view of a system under test.
type System interface {
	// Run executes one transaction; tid is meaningful for durability
	// waiting on DudeTM systems.
	Run(slot int, fn func(memdb.Ctx) error) (uint64, error)
	// WaitDurable blocks until the transaction is durable (no-op for
	// volatile systems and systems that are durable at Run return).
	WaitDurable(tid uint64)
	// Drain blocks until the background pipeline has fully caught up
	// (no-op for systems without one), so byte and entry counters are
	// exact.
	Drain()
	// AsyncDurability reports whether transactions become durable after
	// Run returns (DudeTM's decoupled modes) rather than at return.
	AsyncDurability() bool
	Close()
	Stats() SysStats
}

// NewSystem builds a system of the given kind.
func NewSystem(kind SysKind, o Options) (System, error) {
	o.applyDefaults()
	pc := pmem.Config{
		WriteLatency: o.Latency,
		Bandwidth:    o.Bandwidth,
		DelayEnabled: o.DelaysOn,
	}
	switch kind {
	case VolatileSTM:
		sp := shadow.NewFlat(o.DataSize, nil, 4096)
		return &volatileSys{tm: stm.New(sp, stm.Config{MaxSlots: o.Threads})}, nil
	case VolatileHTM:
		sp := shadow.NewFlat(o.DataSize, nil, 4096)
		return &volatileSys{tm: stm.NewHTM(sp, stm.HTMConfig{MaxSlots: o.Threads})}, nil
	case DudeSTM, DudeInf, DudeSync, DudeHTM:
		s, err := dudetm.Create(dudeConfig(kind, o, pc))
		if err != nil {
			return nil, err
		}
		return &dudeSys{kind: kind, s: s}, nil
	case Mnemosyne:
		s, err := mnemosyne.Create(mnemosyne.Config{
			DataSize: o.DataSize,
			Threads:  o.Threads,
			Pmem:     pc,
		})
		if err != nil {
			return nil, err
		}
		return &mnemoSys{s: s}, nil
	case NVML:
		s, err := nvml.Create(nvml.Config{
			DataSize: o.DataSize,
			Threads:  o.Threads,
			Pmem:     pc,
		})
		if err != nil {
			return nil, err
		}
		return &NVMLSys{s: s}, nil
	}
	return nil, fmt.Errorf("harness: unknown system kind %d", kind)
}

// dudeConfig maps harness Options onto a dudetm.Config for the given
// DudeTM variant.
func dudeConfig(kind SysKind, o Options, pc pmem.Config) dudetm.Config {
	cfg := dudetm.Config{
		DataSize:         o.DataSize,
		Threads:          o.Threads,
		GroupSize:        o.GroupSize,
		Compress:         o.Compress,
		VLogEntries:      o.VLogEntries,
		Shadow:           o.Shadow,
		ShadowBytes:      o.ShadowBytes,
		TraceSampleEvery: o.TraceSampleEvery,
		Pmem:             pc,
	}
	switch kind {
	case DudeInf:
		if cfg.VLogEntries == 0 {
			cfg.VLogEntries = 1 << 23 // effectively unbounded for a run
		}
	case DudeSync:
		cfg.Mode = dudetm.ModeSync
	case DudeHTM:
		cfg.Engine = dudetm.EngineHTM
	}
	return cfg
}

// RecoverSystem remounts a DudeTM crash image as a harness System,
// running the crash-recovery pass; Stats().Recovery carries its phase
// timings and replay counters. Only the DudeTM kinds can recover.
func RecoverSystem(kind SysKind, img []byte, o Options) (System, error) {
	switch kind {
	case DudeSTM, DudeInf, DudeSync, DudeHTM:
	default:
		return nil, fmt.Errorf("harness: %s cannot recover a crash image", kind)
	}
	o.applyDefaults()
	pc := pmem.Config{
		WriteLatency: o.Latency,
		Bandwidth:    o.Bandwidth,
		DelayEnabled: o.DelaysOn,
	}
	devCfg := pc
	devCfg.Size = uint64(len(img))
	dev := pmem.New(devCfg)
	dev.Restore(img)
	s, err := dudetm.Recover(dev, dudeConfig(kind, o, pc))
	if err != nil {
		return nil, err
	}
	return &dudeSys{kind: kind, s: s}, nil
}

// --- volatile TM adapter ---

type volatileSys struct {
	tm stm.TM
}

func (v *volatileSys) Run(slot int, fn func(memdb.Ctx) error) (uint64, error) {
	return v.tm.Run(slot, func(tx stm.Tx) error { return fn(tx) })
}

func (v *volatileSys) WaitDurable(uint64)    {}
func (v *volatileSys) Drain()                {}
func (v *volatileSys) AsyncDurability() bool { return false }
func (v *volatileSys) Close()                {}

func (v *volatileSys) Stats() SysStats {
	st := v.tm.Stats()
	return SysStats{Commits: st.Commits}
}

// --- DudeTM adapter ---

type dudeSys struct {
	kind SysKind
	s    *dudetm.System
}

// Sys exposes the underlying system (for paging stats and experiments).
func (d *dudeSys) Sys() *dudetm.System { return d.s }

func (d *dudeSys) Run(slot int, fn func(memdb.Ctx) error) (uint64, error) {
	return d.s.Run(slot, func(tx *dudetm.Tx) error { return fn(tx) })
}

func (d *dudeSys) WaitDurable(tid uint64) { d.s.WaitDurable(tid) }
func (d *dudeSys) Drain()                 { d.s.Drain() }

// AsyncDurability reports whether Run returns before durability (true
// for the decoupled modes, false for DUDETM-Sync).
func (d *dudeSys) AsyncDurability() bool { return d.kind != DudeSync }

func (d *dudeSys) Close() { d.s.Close() }

func (d *dudeSys) Stats() SysStats {
	st := d.s.Stats()
	return SysStats{
		Commits:       st.TM.Commits,
		Writes:        st.Writes,
		NVMBytes:      st.Device.BytesFlushed,
		LogBytes:      st.LogBytes,
		RawEntries:    st.RawEntries,
		CombEntries:   st.CombEntries,
		PersistBusyNS: st.Persist.BusyNanos,
		ReproBusyNS:   st.Reproduce.BusyNanos,
		PersistFences: st.Persist.Fences,
		ReproFences:   st.Reproduce.Fences,
		Obs:           st.Obs,
		Recovery:      st.Recovery,
	}
}

// --- Mnemosyne adapter ---

type mnemoSys struct {
	s *mnemosyne.System
}

func (m *mnemoSys) Run(slot int, fn func(memdb.Ctx) error) (uint64, error) {
	return m.s.Run(slot, func(tx *mnemosyne.Tx) error { return fn(tx) })
}

func (m *mnemoSys) WaitDurable(uint64)    {} // durable at Run return
func (m *mnemoSys) Drain()                {}
func (m *mnemoSys) AsyncDurability() bool { return false }
func (m *mnemoSys) Close()                {}

func (m *mnemoSys) Stats() SysStats {
	c, _ := m.s.Stats()
	return SysStats{Commits: c, NVMBytes: m.s.Device().Stats().BytesFlushed}
}

// --- NVML adapter ---

// NVMLSys adapts the NVML baseline. Its generic Run serializes under a
// single global lock (used for single-threaded setup); measured
// operations use the statically planned drivers in nvmlops.go.
type NVMLSys struct {
	s       *nvml.System
	commits atomic.Uint64
}

// S exposes the underlying system for the static drivers.
func (n *NVMLSys) S() *nvml.System { return n.s }

const nvmlGlobalLockKey = ^uint64(0) >> 1

// Run implements System by serializing under one global lock — correct
// for any transaction, and only used for setup/validation paths.
func (n *NVMLSys) Run(slot int, fn func(memdb.Ctx) error) (uint64, error) {
	err := n.s.Run(slot, []uint64{nvmlGlobalLockKey}, func(tx *nvml.Tx) error { return fn(tx) })
	if err != nil {
		return 0, err
	}
	n.commits.Add(1)
	return 0, nil
}

func (n *NVMLSys) countCommit() { n.commits.Add(1) }

// WaitDurable implements System (durable at Run return).
func (n *NVMLSys) WaitDurable(uint64) {}

// Drain implements System (no background pipeline).
func (n *NVMLSys) Drain() {}

// AsyncDurability implements System (durable at Run return).
func (n *NVMLSys) AsyncDurability() bool { return false }

// Close implements System.
func (n *NVMLSys) Close() {}

// Stats implements System.
func (n *NVMLSys) Stats() SysStats {
	return SysStats{Commits: n.commits.Load(), NVMBytes: n.s.Device().Stats().BytesFlushed}
}
