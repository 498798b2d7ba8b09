package dudetm

import (
	"math/rand"
	"testing"
	"time"

	"dudetm/internal/redolog"
)

// TestPipelineStageStats runs a write-heavy async workload through the
// pipeline and checks that the stage utilization counters move: a zero
// here means work was routed around a stage.
func TestPipelineStageStats(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 16
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 16 txs/group x 8 stores over a wide address range.
	for i := uint64(0); i < 400; i++ {
		w := int(i) % cfg.Threads
		if _, err := s.Run(w, func(tx *Tx) error {
			for j := uint64(0); j < 8; j++ {
				tx.Store(((i*8+j)%(1<<14))*8, i^j)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()

	ps := s.PersistStats()
	if ps.Workers != 1 {
		t.Errorf("persist workers = %d, want 1", ps.Workers)
	}
	if ps.Groups == 0 || ps.Fences == 0 || ps.BusyNanos == 0 {
		t.Errorf("persist counters idle: %+v", ps)
	}
	if ps.WallNanos <= 0 || ps.Utilization < 0 || ps.Utilization > 1 {
		t.Errorf("persist utilization out of range: %+v", ps)
	}

	rs := s.ReproduceStats()
	if rs.Workers != 1 {
		t.Errorf("repro workers = %d, want 1", rs.Workers)
	}
	if rs.Groups == 0 || rs.Fences == 0 || rs.BusyNanos == 0 {
		t.Errorf("reproduce counters idle: %+v", rs)
	}
	if got := s.Stats(); got.Persist.Groups == 0 || got.Reproduce.Groups == 0 {
		t.Errorf("Stats() does not carry stage snapshots: %+v / %+v", got.Persist, got.Reproduce)
	}

	// Drained pipeline: no backlog left in either stage.
	if ps.QueueDepth != 0 {
		t.Errorf("persist queue depth %d after Drain, want 0", ps.QueueDepth)
	}
	if rs.QueueDepth != 0 {
		t.Errorf("reproduce queue depth %d after Drain, want 0", rs.QueueDepth)
	}
	if ps.MaxQueueDepth != 1 {
		t.Errorf("persist max queue depth %d, want 1 (the coordinator's own append): %+v", ps.MaxQueueDepth, ps)
	}
}

// TestRecycleTimerIdle checks the lazy recycle timer: once the pipeline
// drains and the deferred recycles are flushed, the timer must stop
// firing. A wake count that keeps growing while the system is idle is
// the periodic-polling regression this timer was built to remove.
func TestRecycleTimerIdle(t *testing.T) {
	cfg := testConfig()
	cfg.GroupSize = 8
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := uint64(0); i < 200; i++ {
		if _, err := s.Run(int(i)%cfg.Threads, func(tx *Tx) error {
			tx.Store(i%128*8, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()

	// Wait for the wake count to settle (one final fire may be pending
	// right after Drain), then require it to hold still while idle.
	var stable uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		a := s.ReproduceStats().Wakes
		time.Sleep(5 * recycleInterval)
		b := s.ReproduceStats().Wakes
		if a == b {
			stable = b
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recycle timer still firing 2s after Drain: %d -> %d", a, b)
		}
	}
	time.Sleep(50 * recycleInterval)
	if got := s.ReproduceStats().Wakes; got != stable {
		t.Errorf("recycle timer fired while idle: wakes %d -> %d", stable, got)
	}
}

// TestReplayQueueOutOfOrder feeds the Reproduce queue groups out of tid
// order, as ModeSync's per-thread appends deliver them, draining it the
// way the Reproduce loop does after every arrival. Every group must
// replay exactly once, in ascending dense tid order, in epochs of at
// most replayEpochGroups; a group whose predecessor has not arrived must
// wait for it.
func TestReplayQueueOutOfOrder(t *testing.T) {
	const groups = 500
	rng := rand.New(rand.NewSource(1))
	// Groups of one to three transactions tile tids 1..N.
	var all []repoMsg
	for tid := uint64(1); len(all) < groups; {
		n := uint64(1 + rng.Intn(3))
		all = append(all, repoMsg{g: &redolog.Group{MinTid: tid, MaxTid: tid + n - 1}})
		tid += n
	}
	// Arrival order: ascending, with each group swapped with one up to
	// eight places later.
	arrival := append([]repoMsg(nil), all...)
	for i := range arrival {
		j := min(len(arrival)-1, i+rng.Intn(9))
		arrival[i], arrival[j] = arrival[j], arrival[i]
	}

	var q replayQueue
	next := uint64(1)
	replayed := 0
	for _, m := range arrival {
		q.push(m)
		for epoch := q.dense(next, replayEpochGroups); len(epoch) > 0; epoch = q.dense(next, replayEpochGroups) {
			if len(epoch) > replayEpochGroups {
				t.Fatalf("epoch of %d groups, cap %d", len(epoch), replayEpochGroups)
			}
			for _, g := range epoch {
				if want := all[replayed].g; g.g != want {
					t.Fatalf("replay %d: group [%d,%d], want [%d,%d]",
						replayed, g.g.MinTid, g.g.MaxTid, want.MinTid, want.MaxTid)
				}
				replayed++
			}
			next = epoch[len(epoch)-1].g.MaxTid + 1
			q.pop(len(epoch))
		}
	}
	if replayed != groups || q.len() != 0 {
		t.Fatalf("replayed %d of %d groups, %d left queued", replayed, groups, q.len())
	}
}
