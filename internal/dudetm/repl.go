package dudetm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dudetm/internal/redolog"
	"dudetm/internal/wire"
)

// Replication support. The sealed persist group — the unit the paper
// fences into the NVM log — is also the unit of log shipping: the
// Persist coordinator hands every group it seals, in dense
// transaction-ID order, to an attached ReplSink, and the durability
// acknowledgment frontier generalizes from "fenced into the local log"
// to "fenced locally AND acked by at least ReplQuorum replicas".
//
// The System stays transport-agnostic: internal/repl provides the TCP
// sender/receiver, feeding replica acks back through ReplicaAcked and
// liveness transitions through ReplicaLive. On a replica, IngestGroup
// is the inverse of the coordinator's seal: append the shipped group to
// the local NVM log with one fence, advance the durable frontier, and
// hand the group to Reproduce — so a promoted replica recovers with
// exactly the machinery (Recover, forensics, AuditRecovery) a primary
// would.

// Replication errors.
var (
	// ErrQuorumLost is delivered to durability waiters when fewer than
	// ReplQuorum replicas are live and the pool is configured to fail
	// (rather than degrade to local-only durability). The transaction IS
	// locally durable; what failed is the replication guarantee.
	ErrQuorumLost = errors.New("dudetm: replication quorum lost before transaction was quorum-acked")
	// ErrReplGap: a shipped group does not extend the replica's dense
	// tid stream (the connection missed groups); the receiver must
	// resync from its durable frontier.
	ErrReplGap = errors.New("dudetm: replicated group leaves a gap in the tid stream")
)

// ReplSink receives every sealed persist group, in dense
// transaction-ID order, from the Persist coordinator. ShipGroup is
// called on the coordinator's goroutine and must not retain entries
// after returning (the slice is pooled); implementations serialize or
// copy synchronously and do the network work elsewhere. ShipStats
// reports cumulative serialized bytes before and after compression for
// the StageStats replication-ratio counters.
type ReplSink interface {
	ShipGroup(minTid, maxTid uint64, entries []redolog.Entry)
	ShipStats() (rawBytes, wireBytes uint64)
}

// replPeer is the primary's view of one replica.
type replPeer struct {
	acked uint64 // largest durable frontier this peer ever acked (monotonic)
	live  bool
}

// replState is the quorum bookkeeping attached by EnableReplication.
type replState struct {
	sink         ReplSink
	quorum       int
	degradeLocal bool

	mu        sync.Mutex
	peers     map[string]*replPeer
	local     uint64 // local durable frontier high-water
	published uint64 // quorum-acked frontier actually published to waiters
	degraded  bool
	scratch   []uint64

	degradedEvents atomic.Uint64
}

// ReplQuorumStats is a snapshot of the quorum gate.
type ReplQuorumStats struct {
	// Enabled reports whether replication is attached.
	Enabled bool
	// Quorum is the configured replica-ack requirement Q.
	Quorum int
	// Peers is the number of attached replicas R.
	Peers int
	// Published is the quorum-acked frontier WaitDurable gates on.
	Published uint64
	// Degraded reports that fewer than Quorum replicas are live.
	Degraded bool
	// DegradedEvents counts quorum-lost transitions (never reset; a
	// nonzero value means durability ran degraded at some point).
	DegradedEvents uint64
	// PeerAcked maps each replica to its last acked frontier.
	PeerAcked map[string]uint64
}

// replGroupEntries is the most entries one REPL frame carries at the
// run encoding's worst case: the replicated cap on a group, and so on
// a transaction.
const replGroupEntries = wire.MaxReplGroupPayload / redolog.MaxEntryBytes

// EnableReplication attaches a replication sink and the quorum gate.
// It must be called on a fresh, idle pool — before any transaction
// beyond the mount itself — and only in ModeAsync (the coordinator is
// the single in-order shipping point; ModeSync threads flush logs
// concurrently with no global order to ship). peers names the replicas
// acks will arrive under; Config.ReplQuorum of them must ack before the
// durability frontier is published.
func (s *System) EnableReplication(sink ReplSink, peers []string) error {
	if s.cfg.Mode != ModeAsync {
		return errors.New("dudetm: replication requires ModeAsync")
	}
	if sink == nil {
		return errors.New("dudetm: nil replication sink")
	}
	if s.cfg.ReplQuorum > len(peers) {
		return fmt.Errorf("dudetm: quorum %d exceeds %d peers", s.cfg.ReplQuorum, len(peers))
	}
	// Quiesce the pipeline first: every already-committed transaction
	// must be sealed and locally durable before the sink attaches, so
	// the first shipped group starts exactly at durable+1. A replica
	// holding the same pre-attach prefix (same Options, or a restored
	// image of this pool) then sees a dense stream; a group straddling
	// the attach point would partially overlap the replica's history
	// and be rejected as a gap it can never fill.
	if err := s.WaitDurable(s.engine.Clock()); err != nil {
		return err
	}
	rs := &replState{
		sink:         sink,
		quorum:       s.cfg.ReplQuorum,
		degradeLocal: s.cfg.ReplDegradeLocal,
		peers:        make(map[string]*replPeer, len(peers)),
		local:        s.durable.Load(),
	}
	for _, p := range peers {
		rs.peers[p] = &replPeer{}
	}
	// Nothing is quorum-acked yet beyond what the mount itself already
	// made durable (the pre-attach prefix — heap format, recovery
	// frontier — which predates replication and stays locally gated).
	rs.published = rs.local
	if !s.repl.CompareAndSwap(nil, rs) {
		return errors.New("dudetm: replication already enabled")
	}
	// A transaction whose group no frame could carry would break every
	// peer's stream: Run refuses it with ErrTxTooLarge instead. The pool
	// is idle, so no Run is reading the limit.
	s.maxTxWrites = min(s.maxTxWrites, replGroupEntries)
	s.acked.Store(rs.published)
	// Sample rows gain a stamp slot per peer, and the critical-path
	// pass now waits for the quorum-th replica fence.
	s.obs.SetReplication(len(peers), rs.quorum)
	if rs.quorum > 0 {
		// No replica has connected yet: the gate starts degraded and
		// heals as acks arrive. Waiters fail fast (or gate locally)
		// instead of hanging on a quorum that was never reachable.
		rs.mu.Lock()
		s.setDegradedLocked(rs, true)
		rs.mu.Unlock()
	}
	return nil
}

// ReplStats returns a snapshot of the quorum gate (Enabled false when
// replication was never attached).
func (s *System) ReplStats() ReplQuorumStats {
	rs := s.repl.Load()
	if rs == nil {
		return ReplQuorumStats{}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st := ReplQuorumStats{
		Enabled:        true,
		Quorum:         rs.quorum,
		Peers:          len(rs.peers),
		Published:      rs.published,
		Degraded:       rs.degraded,
		DegradedEvents: rs.degradedEvents.Load(),
		PeerAcked:      make(map[string]uint64, len(rs.peers)),
	}
	for name, p := range rs.peers {
		st.PeerAcked[name] = p.acked
	}
	return st
}

// AckFrontier returns the durability frontier WaitDurable gates on: the
// local durable frontier, capped by the quorum-acked replica frontier
// when replication is enabled.
func (s *System) AckFrontier() uint64 { return s.acked.Load() }

// publishDurable routes a local durable-frontier advance through the
// quorum gate (when enabled) and wakes waiters the published frontier
// passed. The non-replicated fast path is the pre-replication behavior:
// publish the local frontier directly.
func (s *System) publishDurable(f uint64) {
	rs := s.repl.Load()
	if rs == nil {
		s.publishAcked(f)
		return
	}
	rs.mu.Lock()
	if f > rs.local {
		rs.local = f
	}
	pub := s.recomputePublishedLocked(rs)
	rs.mu.Unlock()
	s.publishAcked(pub)
}

// publishAcked stamps the acked pass for every sampled transaction f
// covers (the critical-path window end), raises the acknowledgment
// frontier and wakes waiters. Stamp before publishing: WaitDurable's
// spin returns on the raised frontier alone, and a waiter that then
// reads its trace must see the acked record.
//
//dudelint:fencebudget 0
func (s *System) publishAcked(f uint64) {
	s.obs.AckedAdvanced(f)
	storeMax(&s.acked, f)
	s.notif.advance(f)
}

// ReplicaAcked records a replica's durable frontier. Frontiers are
// taken as a monotonic maximum per peer, so a reconnecting replica
// re-acking an older frontier (catch-up always restarts from the last
// ack) can never move the quorum frontier backward. An ack also counts
// as a liveness signal.
func (s *System) ReplicaAcked(peer string, frontier uint64) {
	rs := s.repl.Load()
	if rs == nil {
		return
	}
	rs.mu.Lock()
	p, ok := rs.peers[peer]
	if !ok {
		rs.mu.Unlock()
		return
	}
	if frontier > p.acked {
		p.acked = frontier
	}
	if !p.live {
		p.live = true
		s.updateDegradedLocked(rs)
	}
	pub := s.recomputePublishedLocked(rs)
	rs.mu.Unlock()
	s.publishAcked(pub)
}

// ReplicaLive records a replica connecting (live) or dying (not live).
// Quorum loss — fewer live replicas than ReplQuorum — is never silent:
// the degraded flag (and its metrics series) raises, and waiters either
// fail with ErrQuorumLost or, with Config.ReplDegradeLocal, fall back
// to local-only durability until the quorum heals.
func (s *System) ReplicaLive(peer string, live bool) {
	rs := s.repl.Load()
	if rs == nil {
		return
	}
	rs.mu.Lock()
	p, ok := rs.peers[peer]
	if !ok {
		rs.mu.Unlock()
		return
	}
	p.live = live
	s.updateDegradedLocked(rs)
	pub := s.recomputePublishedLocked(rs)
	rs.mu.Unlock()
	s.publishAcked(pub)
}

// updateDegradedLocked re-derives the degraded flag from peer liveness.
func (s *System) updateDegradedLocked(rs *replState) {
	liveCount := 0
	for _, p := range rs.peers {
		if p.live {
			liveCount++
		}
	}
	s.setDegradedLocked(rs, liveCount < rs.quorum)
}

// setDegradedLocked applies a degraded-state transition: entering
// degraded fails current and future waiters with ErrQuorumLost (unless
// the pool degrades to local-only durability), leaving it restores
// normal quorum gating.
func (s *System) setDegradedLocked(rs *replState, degraded bool) {
	if degraded == rs.degraded {
		return
	}
	rs.degraded = degraded
	if degraded {
		rs.degradedEvents.Add(1)
		if !rs.degradeLocal {
			s.notif.setDegraded(ErrQuorumLost)
		}
	} else {
		s.notif.clearDegraded()
	}
}

// recomputePublishedLocked derives the published frontier: the local
// durable frontier capped by the Q-th largest per-peer acked frontier
// (so at least Q replicas hold everything at or below it). Degraded
// pools with ReplDegradeLocal publish the local frontier instead. The
// result is monotonic: a recomputation can never regress it.
func (s *System) recomputePublishedLocked(rs *replState) uint64 {
	var pub uint64
	switch {
	case rs.quorum == 0:
		pub = rs.local
	case rs.degraded && rs.degradeLocal:
		pub = rs.local
	default:
		rs.scratch = rs.scratch[:0]
		for _, p := range rs.peers {
			rs.scratch = append(rs.scratch, p.acked)
		}
		sort.Slice(rs.scratch, func(i, j int) bool { return rs.scratch[i] > rs.scratch[j] })
		qth := uint64(0)
		if rs.quorum <= len(rs.scratch) {
			qth = rs.scratch[rs.quorum-1]
		}
		pub = min(rs.local, qth)
	}
	if pub > rs.published {
		rs.published = pub
	}
	return rs.published
}

// shipGroup hands a sealed group to the replication sink, if attached.
// Called only from the Persist coordinator (dense tid order). The ship
// stamp is taken after the synchronous part of ShipGroup (serialize,
// compress, per-peer enqueue), so repl-ship critical-path time starts
// where the coordinator's own work on the group ends.
//
//dudelint:fencebudget 0
func (s *System) shipGroup(minTid, maxTid uint64, entries []redolog.Entry) {
	if rs := s.repl.Load(); rs != nil {
		rs.sink.ShipGroup(minTid, maxTid, entries)
		s.obs.ReplShipped(minTid, maxTid)
	}
}

// ReplicaGroupSent stamps a group's frame fully written to a peer's
// socket (called from the sender's per-peer write loops).
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (s *System) ReplicaGroupSent(peer int, minTid, maxTid uint64) {
	s.obs.ReplSent(minTid, maxTid, peer)
}

// ReplicaGroupAcked stamps a replica's group acknowledgment: the
// replica fenced [minTid,maxTid] into its local log, self-measuring
// ingestNanos for the append+barrier (clock-free; the primary anchors
// the replica's span at the ack's arrival). Called from the sender's
// per-peer ack readers just before the frontier feeds ReplicaAcked.
//
//dudelint:fencebudget 0
//dudelint:noalloc
func (s *System) ReplicaGroupAcked(peer int, minTid, maxTid uint64, ingestNanos int64) {
	s.obs.ReplicaFenced(minTid, maxTid, peer, ingestNanos)
}

// storeMax raises an atomic to v if it is below it.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// IngestGroup appends one replicated group to this (replica) pool: the
// entries are fenced into the local NVM log by the same persistGroup a
// coordinator-sealed group takes, the durable frontier advances, and the
// group flows into Reproduce for replay and log recycling. Groups must
// arrive in dense tid order: a group at or below the durable frontier
// is a catch-up duplicate and is skipped (idempotent — it may be
// re-acked, and crucially it is NOT re-appended, since recovery's
// dense replay stops at a repeated tid range); a group beyond the next
// expected tid fails with ErrReplGap and the stream must resync from
// the acked frontier.
//
// The caller (internal/repl's receiver) must stop ingesting before the
// pool is closed or crashed.
//
//dudelint:fencebudget 1
func (s *System) IngestGroup(minTid, maxTid uint64, entries []redolog.Entry) error {
	if s.cfg.Mode != ModeAsync {
		return errors.New("dudetm: IngestGroup requires ModeAsync")
	}
	if minTid == 0 || maxTid < minTid {
		return fmt.Errorf("dudetm: ingest group tid range [%d,%d]", minTid, maxTid)
	}
	if limit := redolog.MaxGroupEntries(s.lay.logSize); len(entries) > limit {
		return fmt.Errorf("dudetm: ingest group of %d entries exceeds this pool's record limit of %d", len(entries), limit)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.stopping.Load() || s.closed.Load() {
		return ErrClosed
	}
	cur := s.durable.Load()
	if maxTid <= cur {
		return nil // duplicate from catch-up: already fenced, just re-ack
	}
	if minTid != cur+1 {
		return fmt.Errorf("%w: got [%d,%d], durable frontier %d", ErrReplGap, minTid, maxTid, cur)
	}
	ep := getEntrySlice()
	*ep = append((*ep)[:0], entries...)
	g := &redolog.Group{MinTid: minTid, MaxTid: maxTid, Entries: *ep}
	// The fenced record is the same forensic evidence a locally sealed
	// group leaves, so dudectl forensics reads a promoted replica's log
	// exactly like a primary's.
	s.obs.GroupIngested(minTid, maxTid, len(entries))
	if !s.persistGroup(g, ep) {
		return ErrCrashed // halted while waiting for log space
	}
	s.rawEntries.Add(uint64(len(entries)))
	s.combEntries.Add(uint64(len(entries)))
	return nil
}
