package obs

import "testing"

// synthetic timeline: commit@100, seal@250, fence 400→500, replica
// fences (peer0 ack@900 ingest 150, peer1 ack@1200 ingest 200),
// acked@1300.
func replicatedTimeline() []Record {
	return []Record{
		{Kind: EvCommit, MinTid: 8, MaxTid: 8, At: 100},
		{Kind: EvGroupSeal, MinTid: 5, MaxTid: 9, At: 250},
		{Kind: EvPersistFence, MinTid: 5, MaxTid: 9, At: 500, Dur: 100},
		{Kind: EvReplShip, MinTid: 5, MaxTid: 9, At: 520},
		{Kind: EvReplSent, MinTid: 5, MaxTid: 9, At: 560, Arg: 0},
		{Kind: EvReplicaFence, MinTid: 5, MaxTid: 9, At: 900, Arg: 0, Dur: 150},
		{Kind: EvReplicaFence, MinTid: 5, MaxTid: 9, At: 1200, Arg: 1, Dur: 200},
		{Kind: EvAcked, MinTid: 8, MaxTid: 8, At: 1300},
	}
}

func TestDecomposeCritpathReplicated(t *testing.T) {
	cp, ok := DecomposeCritpath(8, replicatedTimeline(), 2)
	if !ok {
		t.Fatal("decomposition incomplete")
	}
	if !cp.Replicated || cp.Total != 1200 {
		t.Fatalf("cp = %+v", cp)
	}
	// Quorum 2 → the 2nd-smallest replica-fence arrival (1200, ingest
	// 200) sets the quorum boundary.
	want := [NumCritSegments]int64{
		SegRingDwell:    150, // 100→250
		SegSealWait:     150, // 250→400 (fence end 500 - dur 100)
		SegPersistFence: 100, // 400→500
		SegReplShip:     500, // 500→1000 (1200 - ingest 200)
		SegQuorumWait:   200, // 1000→1200
		SegNotify:       100, // 1200→1300
	}
	if cp.Seg != want {
		t.Fatalf("segments = %v, want %v", cp.Seg, want)
	}
	var sum int64
	for _, d := range cp.Seg {
		sum += d
	}
	if sum != cp.Total {
		t.Fatalf("segment sum %d != total %d", sum, cp.Total)
	}
}

func TestDecomposeCritpathUnreplicated(t *testing.T) {
	recs := replicatedTimeline()[:3]
	recs = append(recs, Record{Kind: EvAcked, MinTid: 8, MaxTid: 8, At: 600})
	cp, ok := DecomposeCritpath(8, recs, 0)
	if !ok {
		t.Fatal("decomposition incomplete")
	}
	if cp.Replicated {
		t.Fatal("unreplicated decomposition marked replicated")
	}
	if cp.Seg[SegReplShip] != 0 || cp.Seg[SegQuorumWait] != 0 {
		t.Fatalf("repl segments nonzero: %v", cp.Seg)
	}
	if cp.Seg[SegNotify] != 100 || cp.Total != 500 {
		t.Fatalf("cp = %+v", cp)
	}
}

func TestDecomposeCritpathIncomplete(t *testing.T) {
	full := replicatedTimeline()
	drop := func(kind EventKind) []Record {
		var out []Record
		for _, r := range full {
			if r.Kind != kind {
				out = append(out, r)
			}
		}
		return out
	}
	for _, kind := range []EventKind{EvCommit, EvGroupSeal, EvPersistFence, EvAcked} {
		if _, ok := DecomposeCritpath(8, drop(kind), 2); ok {
			t.Errorf("decomposed without %s", kind)
		}
	}
	// Quorum 2 but only one replica fence survived.
	one := append(drop(EvReplicaFence), Record{Kind: EvReplicaFence, MinTid: 5, MaxTid: 9, At: 900, Dur: 150})
	if _, ok := DecomposeCritpath(8, one, 2); ok {
		t.Error("decomposed with 1 of 2 quorum fences")
	}
	// ...which is fine at quorum 1.
	if cp, ok := DecomposeCritpath(8, one, 1); !ok || !cp.Replicated {
		t.Errorf("quorum-1 decomposition failed: %+v ok=%v", cp, ok)
	}
	// Records not covering the tid are invisible.
	if _, ok := DecomposeCritpath(4, full, 2); ok {
		t.Error("decomposed a tid outside the commit/acked stamps")
	}
}

// Out-of-order or skewed stamps must clamp into the window: the tiling
// identity holds and no segment goes negative.
func TestDecomposeCritpathClamping(t *testing.T) {
	recs := []Record{
		{Kind: EvCommit, MinTid: 3, MaxTid: 3, At: 1000},
		{Kind: EvGroupSeal, MinTid: 1, MaxTid: 4, At: 400},               // before commit
		{Kind: EvPersistFence, MinTid: 1, MaxTid: 4, At: 5000, Dur: 100}, // after acked
		{Kind: EvReplicaFence, MinTid: 1, MaxTid: 4, At: 1100, Dur: 900}, // ingest start before commit
		{Kind: EvAcked, MinTid: 3, MaxTid: 3, At: 1500},
	}
	cp, ok := DecomposeCritpath(3, recs, 1)
	if !ok {
		t.Fatal("decomposition incomplete")
	}
	var sum int64
	for s, d := range cp.Seg {
		if d < 0 {
			t.Fatalf("segment %s negative: %d", CritSegment(s), d)
		}
		sum += d
	}
	if sum != cp.Total || cp.Total != 500 {
		t.Fatalf("sum %d, total %d, want 500", sum, cp.Total)
	}
}

// TestCritpathCollector drives a full synthetic lifecycle through the
// Observer hooks: the acked pass decomposes it on the spot and folds it
// into the aggregate.
func TestCritpathCollector(t *testing.T) {
	o := New(Config{SampleEvery: 1})
	o.SetReplication(2, 2)
	o.Commit(1)
	o.GroupSealed(1, 1, 1, 4)
	o.GroupPersisted(1, 1, o.Now(), o.Now()+1)
	o.ReplShipped(1, 1)
	o.ReplSent(1, 1, 0)
	o.ReplicaFenced(1, 1, 0, 500)
	o.ReplicaFenced(1, 1, 1, 700)
	o.DurableAdvanced(1)
	o.AckedAdvanced(1)
	c := o.Snapshot().Crit
	if c.Txns != 1 || c.Incomplete != 0 || c.E2E.Count != 1 || c.Segments[SegQuorumWait].Count != 1 {
		t.Fatalf("crit snapshot: %+v", c)
	}
	var segSum uint64
	for _, s := range c.Segments {
		segSum += s.Sum
	}
	if segSum != c.E2E.Sum {
		t.Fatalf("segment sum %d != e2e sum %d", segSum, c.E2E.Sum)
	}
	// The row's decomposition is the one DecomposeCritpath builds from
	// the row's records.
	cp, ok := o.CritpathOf(1)
	want, wantOK := DecomposeCritpath(1, o.TraceOf(1), 2)
	if !ok || !wantOK || cp != want {
		t.Fatalf("CritpathOf = %+v %v, from records %+v %v", cp, ok, want, wantOK)
	}
	// Sub is closed over the crit aggregate too.
	s := o.Snapshot()
	if d := s.Sub(s); d.Crit.Txns != 0 || d.Crit.E2E.Count != 0 {
		t.Fatalf("self-sub not zero: %+v", d.Crit)
	}
}
