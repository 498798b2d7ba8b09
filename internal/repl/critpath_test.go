package repl_test

import (
	"testing"
	"time"

	"dudetm/internal/dudetm"
	"dudetm/internal/obs"
)

// TestCritpathReplicatedReconciliation proves the cross-node tracing
// contract under a real R=2, Q=2 cluster: a sampled transaction's
// merged timeline carries the replica-side events (ship, per-peer
// sent, per-peer fence), and the critical-path decomposition's segment
// sum reconciles with the timeline's measured commit→acked latency.
func TestCritpathReplicatedReconciliation(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSampleEvery = 1
	r1 := startReplica(t, cfg)
	defer r1.close()
	r2 := startReplica(t, cfg)
	defer r2.close()
	pri, snd := startPrimary(t, cfg, r1, r2)
	defer pri.Close()
	defer snd.Close()
	if !snd.WaitConnected(2, 10*time.Second) {
		t.Fatal("replicas never connected")
	}

	var last uint64
	for i := uint64(0); i < 50; i++ {
		tid, err := pri.Run(int(i)%cfg.Threads, func(tx *dudetm.Tx) error {
			tx.Store(i%128*8, i+1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	// WaitDurable returning nil means the quorum acked a frontier
	// covering last — and the ack path stamps the trace before it
	// releases waiters, so every stamp of last's timeline is in place.
	if err := pri.WaitDurable(last); err != nil {
		t.Fatal(err)
	}

	recs := pri.TraceOf(last)
	if len(recs) == 0 {
		t.Fatal("sampled transaction has no trace records")
	}
	kinds := map[obs.EventKind]int{}
	fencePeers := map[uint64]bool{}
	var commitAt, ackedAt int64
	for _, r := range recs {
		kinds[r.Kind]++
		switch r.Kind {
		case obs.EvCommit:
			commitAt = r.At
		case obs.EvAcked:
			ackedAt = r.At
		case obs.EvReplicaFence:
			fencePeers[r.Arg] = true
			if r.Dur < 0 {
				t.Fatalf("replica fence with negative ingest duration: %+v", r)
			}
		}
	}
	// The merged timeline must cover both sides of the wire: the
	// coordinator's ship handoff, at least one per-peer sent stamp, and
	// a quorum's worth of re-associated replica fences.
	for _, kind := range []obs.EventKind{obs.EvReplShip, obs.EvReplSent, obs.EvReplicaFence, obs.EvAcked} {
		if kinds[kind] == 0 {
			t.Errorf("merged timeline missing %s events:\n%v", kind, recs)
		}
	}
	if len(fencePeers) < 2 {
		t.Errorf("replica fences from %d peers, want 2 (R=2, Q=2)", len(fencePeers))
	}

	cp, ok := pri.CritpathOf(last)
	if !ok {
		t.Fatalf("critpath decomposition incomplete for tid %d:\n%v", last, recs)
	}
	if !cp.Replicated || cp.Quorum != 2 {
		t.Fatalf("cp = %+v, want replicated at quorum 2", cp)
	}
	var sum int64
	for _, d := range cp.Seg {
		sum += d
	}
	// Reconciliation: the segments tile the measured commit→acked
	// window. The tiling is exact by construction; hold it to the 5%
	// contract so a future lossy decomposition fails loudly.
	e2e := ackedAt - commitAt
	if e2e <= 0 {
		t.Fatalf("measured e2e %d (commit %d, acked %d)", e2e, commitAt, ackedAt)
	}
	diff := sum - e2e
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(e2e) {
		t.Fatalf("segment sum %d deviates from measured e2e %d by more than 5%%", sum, e2e)
	}
	if cp.Total != e2e {
		t.Fatalf("cp.Total %d != measured e2e %d", cp.Total, e2e)
	}
	// Replication did real work on this path: the shipped-and-waited
	// time is visible in the decomposition.
	if cp.Seg[obs.SegReplShip]+cp.Seg[obs.SegQuorumWait] <= 0 {
		t.Errorf("replication segments empty in a replicated decomposition: %+v", cp.Seg)
	}

	// The acked pass folds sampled transactions into the aggregate the
	// /metrics endpoint exports.
	deadline := time.Now().Add(5 * time.Second)
	for {
		crit := pri.Stats().Obs.Crit
		if crit.Txns > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never decomposed a txn: %+v", crit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaTraceOf: a replica pool with tracing on traces the
// sampled transactions it ingests — the ingest seal claims the row,
// then its own persist fence and reproduce-apply extend it.
func TestReplicaTraceOf(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSampleEvery = 1
	cfg.ReplFactor, cfg.ReplQuorum = 1, 1
	r := startReplica(t, cfg)
	defer r.close()
	pri, snd := startPrimary(t, cfg, r)
	defer pri.Close()
	defer snd.Close()
	if !snd.WaitConnected(1, 10*time.Second) {
		t.Fatal("replica never connected")
	}
	var last uint64
	for i := uint64(0); i < 20; i++ {
		tid, err := pri.Run(0, func(tx *dudetm.Tx) error { tx.Store(i*8, i+1); return nil })
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	if err := pri.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.sys.Reproduced() < last {
		if time.Now().After(deadline) {
			t.Fatalf("replica reproduced %d, want %d", r.sys.Reproduced(), last)
		}
		time.Sleep(time.Millisecond)
	}
	recs := r.sys.TraceOf(last)
	want := []obs.EventKind{obs.EvGroupSeal, obs.EvPersistFence, obs.EvReproApply}
	seen := map[obs.EventKind]int64{}
	for _, rec := range recs {
		if rec.MinTid > last || rec.MaxTid < last {
			t.Fatalf("replica record %+v does not cover tid %d", rec, last)
		}
		seen[rec.Kind] = rec.At
	}
	for i, k := range want {
		at, ok := seen[k]
		if !ok {
			t.Fatalf("replica TraceOf(%d) lacks %s: %v", last, k, recs)
		}
		if i > 0 && at < seen[want[i-1]] {
			t.Fatalf("replica %s before %s: %v", k, want[i-1], recs)
		}
	}
	if _, ok := seen[obs.EvCommit]; ok {
		t.Fatalf("replica trace carries a commit stamp: %v", recs)
	}
}
