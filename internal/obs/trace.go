package obs

import (
	"cmp"
	"slices"
	"sync"
)

// EventKind labels one point of the transaction lifecycle.
type EventKind uint8

const (
	// EvCommit: the transaction committed in the Perform step (the
	// timestamp is taken before the ring publish, so it orders before
	// every downstream stamp of the same transaction).
	EvCommit EventKind = iota + 1
	// EvGroupSeal: the Persist coordinator sealed the group covering
	// the transaction (on a replica: the group arrived for ingest).
	EvGroupSeal
	// EvPersistFence: the group's log append and persist barrier
	// completed — the transaction is on NVM.
	EvPersistFence
	// EvReproApply: the Reproduce step applied the group to the
	// persistent data region.
	EvReproApply
	// EvReplShip: the Persist coordinator handed the sealed group to
	// the replication sink (frame build + per-peer enqueue).
	EvReplShip
	// EvReplSent: a peer's write loop finished writing the group's
	// frame to the socket. Arg is the peer index.
	EvReplSent
	// EvReplicaFence: a replica acknowledged the group: its local log
	// append and persist barrier completed. At is the ack's arrival
	// time on the primary's clock; Dur is the replica's self-measured
	// ingest duration (clock-free, so the fence span is anchored at
	// At-Dur..At). Arg is the peer index.
	EvReplicaFence
	// EvAcked: the quorum-gated acknowledged frontier covered the
	// transaction — client notifiers may fire from here.
	EvAcked
)

// String returns the lifecycle-stage name.
func (k EventKind) String() string {
	switch k {
	case EvCommit:
		return "commit"
	case EvGroupSeal:
		return "group-seal"
	case EvPersistFence:
		return "persist-fence"
	case EvReproApply:
		return "reproduce-apply"
	case EvReplShip:
		return "repl-ship"
	case EvReplSent:
		return "repl-sent"
	case EvReplicaFence:
		return "replica-fence"
	case EvAcked:
		return "acked"
	}
	return "unknown"
}

// Record is one trace stamp. Commit stamps cover a single transaction
// (MinTid == MaxTid); group stamps cover the sealed ID range. At is
// nanoseconds since the observer's epoch (monotonic), so subtracting
// two records of one transaction gives the stage latency between them.
// Arg carries a kind-specific operand (peer index on replication
// stamps); Dur a kind-specific duration in nanoseconds (fence span on
// EvPersistFence, replica ingest span on EvReplicaFence), zero when
// the kind has none.
type Record struct {
	Kind   EventKind
	MinTid uint64
	MaxTid uint64
	At     int64
	Arg    uint64
	Dur    int64
}

// traceRows is the sample table's row count. Sampled transaction t
// owns row (t/SampleEvery) mod traceRows, so the table holds the
// traces of the last traceRows sampled transactions.
const traceRows = 4096

// The frontier hooks that have passed a row's transaction. A row is
// held from its first stamp until all three have; a sampled
// transaction whose row is still held is dropped, not traced.
const (
	passedDurable uint8 = 1 << iota
	passedReproduced
	passedAcked
	passedAll = passedDurable | passedReproduced | passedAcked
)

// sampleRow is one sampled transaction's whole trace on this node,
// guarded by its own lock.
type sampleRow struct {
	mu sync.Mutex
	s  rowState
}

// rowState holds a row's stamps as the records TraceOf returns, one
// slot per kind and, for the per-peer kinds, per peer; a zero Kind is
// an empty slot.
type rowState struct {
	tid    uint64 // owner (0: never claimed)
	passed uint8  // frontier hooks that have passed tid
	stamps [EvAcked + 1]Record
	peers  [][2]Record // EvReplSent, EvReplicaFence per replication peer
}

// held reports whether the row still belongs to its transaction.
func (s *rowState) held() bool { return s.tid != 0 && s.passed != passedAll }

// stamp records one lifecycle event over [minTid, maxTid] (the
// transaction itself for EvCommit and EvAcked, its group otherwise).
// The first stamp of a kind wins, so a peer re-acking after a
// reconnect does not move its fence. peer is the replication peer
// index on EvReplSent / EvReplicaFence, dur the span ending at at on
// EvPersistFence / EvReplicaFence.
//
//dudelint:noalloc
func (s *rowState) stamp(kind EventKind, minTid, maxTid uint64, at int64, peer int, dur int64) {
	slot := &s.stamps[kind]
	if kind == EvReplSent || kind == EvReplicaFence {
		if peer < 0 || peer >= len(s.peers) {
			return
		}
		slot = &s.peers[peer][kind-EvReplSent]
	}
	if slot.Kind == 0 {
		*slot = Record{Kind: kind, MinTid: minTid, MaxTid: maxTid, At: at, Arg: uint64(peer), Dur: max(dur, 0)}
	}
}

// records appends the row's stamps to dst.
func (s *rowState) records(dst []Record) []Record {
	for _, r := range s.stamps {
		if r.Kind != 0 {
			dst = append(dst, r)
		}
	}
	for _, p := range s.peers {
		for _, r := range p {
			if r.Kind != 0 {
				dst = append(dst, r)
			}
		}
	}
	return dst
}

// critpath decomposes the row's commit→acked window at the given
// replication quorum (see DecomposeCritpath). ok is false when a
// required stamp is missing or fewer than quorum replica fences
// arrived.
//
//dudelint:noalloc
func (s *rowState) critpath(quorum int) (Critpath, bool) {
	cp := Critpath{Tid: s.tid, Quorum: quorum}
	commit, seal, fence, acked := s.stamps[EvCommit], s.stamps[EvGroupSeal], s.stamps[EvPersistFence], s.stamps[EvAcked]
	if commit.Kind == 0 || seal.Kind == 0 || fence.Kind == 0 || acked.Kind == 0 {
		return cp, false
	}
	var q Record
	if quorum > 0 {
		// The ack whose arrival completed the quorum: the quorum-th
		// earliest replica-fence arrival (ties in peer order).
		for i, p := range s.peers {
			rank := 0
			for j, r := range s.peers {
				if r[1].Kind != 0 && (r[1].At < p[1].At || r[1].At == p[1].At && j < i) {
					rank++
				}
			}
			if p[1].Kind != 0 && rank == quorum-1 {
				q = p[1]
				break
			}
		}
		if q.Kind == 0 {
			return cp, false
		}
	}
	return cp, tile(&cp, commit.At, seal.At, fence.At, fence.Dur, q.At, q.Dur, acked.At)
}

// sortRecords orders records by time, then by kind and range, so
// equal records sit side by side.
func sortRecords(recs []Record) {
	slices.SortStableFunc(recs, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.MinTid, b.MinTid), cmp.Compare(a.MaxTid, b.MaxTid), cmp.Compare(a.Arg, b.Arg))
	})
}
