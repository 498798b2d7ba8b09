package dudetm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
)

// captureSink records every shipped group (copying the pooled entry
// slice, per the ReplSink contract).
type captureSink struct {
	mu     sync.Mutex
	groups []capturedGroup
	raw    uint64
}

type capturedGroup struct {
	minTid, maxTid uint64
	entries        []redolog.Entry
}

func (c *captureSink) ShipGroup(minTid, maxTid uint64, entries []redolog.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = append(c.groups, capturedGroup{
		minTid:  minTid,
		maxTid:  maxTid,
		entries: append([]redolog.Entry(nil), entries...),
	})
	c.raw += uint64(len(redolog.AppendEntries(nil, entries)))
}

func (c *captureSink) ShipStats() (uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.raw, c.raw
}

func (c *captureSink) snapshot() []capturedGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]capturedGroup(nil), c.groups...)
}

func replConfig(quorum int, degradeLocal bool) Config {
	cfg := testConfig()
	cfg.ReplFactor = 2
	cfg.ReplQuorum = quorum
	cfg.ReplDegradeLocal = degradeLocal
	return cfg
}

// mustWaitErr reads a WaitDurableChan result with a timeout.
func mustWaitErr(t *testing.T, ch <-chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(within):
		t.Fatal("durability waiter hung")
		return nil
	}
}

func TestReplQuorumGatesWaiters(t *testing.T) {
	// R=2 Q=2: a locally durable transaction must not be acknowledged
	// until both replicas acked it, regardless of ack arrival order.
	s, err := Create(replConfig(2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := &captureSink{}
	if err := s.EnableReplication(sink, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// No replica has connected: the gate starts degraded and waiters
	// fail fast instead of hanging.
	st := s.ReplStats()
	if !st.Enabled || !st.Degraded || st.Quorum != 2 || st.Peers != 2 {
		t.Fatalf("post-attach stats = %+v", st)
	}
	tid, err := s.Run(0, func(tx *Tx) error { tx.Store(0, 42); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := mustWaitErr(t, s.WaitDurableChan(tid), 5*time.Second); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("degraded wait: got %v, want ErrQuorumLost", err)
	}

	// Both replicas connect: degraded clears, but nothing new is
	// published until acks cover the tid.
	s.ReplicaLive("a", true)
	s.ReplicaLive("b", true)
	if st := s.ReplStats(); st.Degraded {
		t.Fatal("still degraded with both replicas live")
	}
	ch := s.WaitDurableChan(tid)
	select {
	case err := <-ch:
		t.Fatalf("waiter released before quorum ack: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Acks arrive out of order: the later replica first. One ack out of
	// two must not release the waiter.
	s.ReplicaAcked("b", tid)
	select {
	case err := <-ch:
		t.Fatalf("waiter released at 1/2 acks: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.ReplicaAcked("a", tid)
	if err := mustWaitErr(t, ch, 5*time.Second); err != nil {
		t.Fatalf("quorum-acked wait: %v", err)
	}
	if got := s.AckFrontier(); got < tid {
		t.Fatalf("AckFrontier = %d, want >= %d", got, tid)
	}
	if st := s.ReplStats(); st.Published < tid || st.PeerAcked["a"] < tid || st.PeerAcked["b"] < tid {
		t.Fatalf("stats after quorum ack = %+v", st)
	}
}

func TestReplReplicaDeathMidWait(t *testing.T) {
	// R=2 Q=2 fail mode: a replica dying while a waiter is parked must
	// fail the waiter with ErrQuorumLost — quorum loss is never silent.
	s, err := Create(replConfig(2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableReplication(&captureSink{}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	s.ReplicaLive("a", true)
	s.ReplicaLive("b", true)
	tid, err := s.Run(0, func(tx *Tx) error { tx.Store(8, 7); return nil })
	if err != nil {
		t.Fatal(err)
	}
	ch := s.WaitDurableChan(tid)
	select {
	case err := <-ch:
		t.Fatalf("waiter released without acks: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.ReplicaLive("b", false)
	if err := mustWaitErr(t, ch, 5*time.Second); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("death mid-wait: got %v, want ErrQuorumLost", err)
	}
	st := s.ReplStats()
	if !st.Degraded || st.DegradedEvents < 2 { // attach-time + this death
		t.Fatalf("stats after death = %+v", st)
	}

	// The quorum heals: the dead replica reconnects and acks. Waiters
	// park and release normally again.
	s.ReplicaLive("b", true)
	if st := s.ReplStats(); st.Degraded {
		t.Fatal("still degraded after reconnect")
	}
	ch = s.WaitDurableChan(tid)
	s.ReplicaAcked("a", tid)
	s.ReplicaAcked("b", tid)
	if err := mustWaitErr(t, ch, 5*time.Second); err != nil {
		t.Fatalf("post-heal wait: %v", err)
	}
}

func TestReplDegradeLocalFallsBack(t *testing.T) {
	// ReplDegradeLocal: quorum loss degrades to local-only durability —
	// waiters are released by the local frontier, and the flag shows in
	// stats (flagged, never silent).
	s, err := Create(replConfig(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableReplication(&captureSink{}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	tid, err := s.Run(0, func(tx *Tx) error { tx.Store(16, 9); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(tid); err != nil {
		t.Fatalf("degraded local wait: %v", err)
	}
	st := s.ReplStats()
	if !st.Degraded || st.DegradedEvents == 0 {
		t.Fatalf("degraded fallback not flagged: %+v", st)
	}
	// Healing switches back to quorum gating: a new transaction parks
	// until acks cover it.
	s.ReplicaLive("a", true)
	s.ReplicaLive("b", true)
	tid2, err := s.Run(0, func(tx *Tx) error { tx.Store(24, 11); return nil })
	if err != nil {
		t.Fatal(err)
	}
	ch := s.WaitDurableChan(tid2)
	select {
	case err := <-ch:
		t.Fatalf("waiter released before quorum ack after heal: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.ReplicaAcked("a", tid2)
	s.ReplicaAcked("b", tid2)
	if err := mustWaitErr(t, ch, 5*time.Second); err != nil {
		t.Fatalf("post-heal quorum wait: %v", err)
	}
}

func TestReplReconnectOlderAckNeverRegresses(t *testing.T) {
	// A reconnecting replica re-acks from its recovered frontier, which
	// may trail what it acked before the disconnect. The quorum frontier
	// must never move backward.
	s, err := Create(replConfig(1, true))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableReplication(&captureSink{}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(0); i < 10; i++ {
		tid, err := s.Run(0, func(tx *Tx) error { tx.Store(i*8, i+1); return nil })
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	if err := s.WaitDurable(last); err != nil { // Q=1 degrade-local: releases locally
		t.Fatal(err)
	}
	s.ReplicaAcked("a", last)
	published := s.ReplStats().Published
	if published < last {
		t.Fatalf("published = %d, want >= %d", published, last)
	}
	// Disconnect, reconnect, re-ack an older frontier.
	s.ReplicaLive("a", false)
	s.ReplicaLive("a", true)
	s.ReplicaAcked("a", last/2)
	st := s.ReplStats()
	if st.Published < published {
		t.Fatalf("published regressed: %d -> %d", published, st.Published)
	}
	if st.PeerAcked["a"] < last {
		t.Fatalf("peer ack regressed: %d -> %d", last, st.PeerAcked["a"])
	}
	if s.AckFrontier() < published {
		t.Fatalf("AckFrontier regressed: %d -> %d", published, s.AckFrontier())
	}
	// Out-of-order duplicate ack from the other peer is harmless too.
	s.ReplicaAcked("b", 1)
	if got := s.ReplStats().Published; got < published {
		t.Fatalf("published regressed on duplicate ack: %d -> %d", published, got)
	}
}

func TestReplEnableValidation(t *testing.T) {
	cfg := replConfig(2, false)
	cfg.Mode = ModeSync
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableReplication(&captureSink{}, []string{"a", "b"}); err == nil {
		t.Error("ModeSync EnableReplication succeeded")
	}
	s.Close()

	s, err = Create(replConfig(2, false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableReplication(nil, []string{"a", "b"}); err == nil {
		t.Error("nil sink accepted")
	}
	if err := s.EnableReplication(&captureSink{}, []string{"a"}); err == nil {
		t.Error("quorum 2 with 1 peer accepted")
	}
	if err := s.EnableReplication(&captureSink{}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableReplication(&captureSink{}, []string{"a", "b"}); err == nil {
		t.Error("double EnableReplication accepted")
	}
	// Acks for unknown peers are ignored, not crashes.
	s.ReplicaAcked("nobody", 99)
	s.ReplicaLive("nobody", true)
}

func TestIngestGroupDedupeAndGap(t *testing.T) {
	s, err := Create(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := s.Durable() // the mount's own format transaction(s)
	entries := []redolog.Entry{{Addr: 0, Val: 1}, {Addr: 8, Val: 2}}

	// A gap beyond the dense frontier is rejected.
	if err := s.IngestGroup(base+2, base+3, entries); !errors.Is(err, ErrReplGap) {
		t.Fatalf("gap ingest: got %v, want ErrReplGap", err)
	}
	// Degenerate ranges are rejected.
	if err := s.IngestGroup(0, 0, entries); err == nil {
		t.Fatal("tid 0 ingest accepted")
	}
	if err := s.IngestGroup(base+2, base+1, entries); err == nil {
		t.Fatal("inverted range accepted")
	}
	// The dense next group lands and advances the durable frontier.
	if err := s.IngestGroup(base+1, base+2, entries); err != nil {
		t.Fatal(err)
	}
	if got := s.Durable(); got != base+2 {
		t.Fatalf("durable = %d, want %d", got, base+2)
	}
	groups := s.Stats().Persist.Groups
	// A catch-up duplicate is skipped without re-appending (recovery's
	// dense replay would stop at a repeated tid range).
	if err := s.IngestGroup(base+1, base+2, entries); err != nil {
		t.Fatalf("duplicate ingest: %v", err)
	}
	if got := s.Stats().Persist.Groups; got != groups {
		t.Fatalf("duplicate ingest re-appended: groups %d -> %d", groups, got)
	}
	if got := s.Durable(); got != base+2 {
		t.Fatalf("durable moved on duplicate: %d", got)
	}
	if err := s.WaitDurable(base + 2); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaIngestCrashRecoverAudit(t *testing.T) {
	// End-to-end at the dudetm layer: a primary ships sealed groups, a
	// replica ingests them, the replica crashes, and recovery plus the
	// durability audit prove every shipped-and-ingested transaction
	// survived on the replica's image.
	cfg := testConfig()
	primary, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	// Quorum 0: the sink observes every sealed group while the primary
	// acks locally.
	if err := primary.EnableReplication(sink, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	replica, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var last uint64
	for i := uint64(0); i < 50; i++ {
		tid, err := primary.Run(0, func(tx *Tx) error { tx.Store(i*8, i+100); return nil })
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	if err := primary.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if raw, wire := sink.ShipStats(); raw == 0 || wire == 0 {
		t.Fatalf("ship stats raw=%d wire=%d", raw, wire)
	}
	if st := primary.PersistStats(); st.ReplRawBytes == 0 {
		t.Fatalf("PersistStats.ReplRawBytes = 0")
	}

	// Replay the shipped stream into the replica. The replica mounted
	// with the same Config, so its own format transaction occupies the
	// same tid prefix: shipped groups at or below its durable frontier
	// dedupe, the rest extend it densely.
	for _, g := range sink.snapshot() {
		if err := replica.IngestGroup(g.minTid, g.maxTid, g.entries); err != nil {
			t.Fatalf("ingest [%d,%d]: %v", g.minTid, g.maxTid, err)
		}
	}
	if got := replica.Durable(); got < last {
		t.Fatalf("replica durable = %d, want >= %d", got, last)
	}
	primary.Close()

	// Power-fail the replica and recover from its image: this is the
	// failover path a promoted replica runs.
	img := replica.Crash()
	dev := pmem.New(pmem.Config{Size: uint64(len(img))})
	dev.Restore(img)
	s2, err := Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AuditRecovery(last); err != nil {
		t.Fatalf("promoted replica failed the durability audit: %v", err)
	}
	s2.Run(0, func(tx *Tx) error {
		for i := uint64(0); i < 50; i++ {
			if v := tx.Load(i * 8); v != i+100 {
				t.Errorf("addr %d = %d, want %d (replicated tx lost)", i*8, v, i+100)
			}
		}
		return nil
	})
}
