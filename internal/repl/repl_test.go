package repl_test

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dudetm/internal/dudetm"
	"dudetm/internal/pmem"
	"dudetm/internal/redolog"
	"dudetm/internal/repl"
	"dudetm/internal/wire"
)

func testConfig() dudetm.Config {
	return dudetm.Config{
		DataSize:    1 << 20,
		Threads:     2,
		VLogEntries: 1 << 12,
		LogBufBytes: 64 << 10,
		ReplFactor:  2,
		ReplQuorum:  2,
	}
}

// replicaNode is one in-process replica: a pool, its receiver, and the
// listener it serves on.
type replicaNode struct {
	sys  *dudetm.System
	rcv  *repl.Receiver
	ln   net.Listener
	done chan struct{}
}

func startReplica(t *testing.T, cfg dudetm.Config) *replicaNode {
	t.Helper()
	sys, err := dudetm.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		t.Fatal(err)
	}
	n := &replicaNode{sys: sys, rcv: repl.NewReceiver(sys), ln: ln, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.rcv.Serve(ln)
	}()
	return n
}

// stopIngest halts replication into the node (listener and streams)
// without touching the pool — the first half of both failover and
// shutdown.
func (n *replicaNode) stopIngest() {
	n.ln.Close()
	<-n.done
	n.rcv.Shutdown()
}

func (n *replicaNode) close() {
	n.stopIngest()
	n.sys.Close()
}

// startPrimary wires a pool to a sender shipping to the given nodes.
func startPrimary(t *testing.T, cfg dudetm.Config, nodes ...*replicaNode) (*dudetm.System, *repl.Sender) {
	t.Helper()
	sys, err := dudetm.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.ln.Addr().String()
	}
	snd := repl.NewSender(sys, repl.Config{
		Peers:    addrs,
		Epoch:    sys.Durable(),
		Compress: true,
	})
	if err := sys.EnableReplication(snd, snd.PeerNames()); err != nil {
		sys.Close()
		t.Fatal(err)
	}
	snd.Start()
	return sys, snd
}

func TestReplicationEndToEnd(t *testing.T) {
	// Primary plus two replicas at Q=2: every quorum-acked transaction
	// must survive a primary power failure on a promoted replica's
	// image, proven by the recovery audit.
	cfg := testConfig()
	r1 := startReplica(t, cfg)
	r2 := startReplica(t, cfg)
	pri, snd := startPrimary(t, cfg, r1, r2)
	if !snd.WaitConnected(2, 10*time.Second) {
		t.Fatal("replicas never connected")
	}

	var last uint64
	for i := uint64(0); i < 200; i++ {
		tid, err := pri.Run(int(i)%cfg.Threads, func(tx *dudetm.Tx) error {
			tx.Store(i%128*8, i+1000)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	// The quorum gate: WaitDurable returning nil means both replicas
	// acked a frontier covering last.
	if err := pri.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	st := pri.ReplStats()
	if st.Published < last {
		t.Fatalf("published %d < last %d after WaitDurable", st.Published, last)
	}
	sst := snd.Stats()
	if sst.GroupsShipped == 0 || sst.RawBytes == 0 || sst.WireBytes == 0 {
		t.Fatalf("sender stats = %+v", sst)
	}
	if sst.AckLatency.Count == 0 {
		t.Fatal("no ack latencies recorded")
	}

	// Power-fail the primary: the transport dies with it (sender first —
	// pool teardown joins the coordinator, which a full peer queue could
	// otherwise block forever).
	snd.Close()
	pri.Crash()

	// Promote the replica with the larger durable frontier — the
	// takeover rule — and prove every acked transaction survived on its
	// image via crash-image recovery plus the durability audit.
	promoted := r1
	other := r2
	if r2.sys.Durable() > r1.sys.Durable() {
		promoted, other = r2, r1
	}
	other.close()
	promoted.stopIngest()
	if got := promoted.sys.Durable(); got < last {
		t.Fatalf("promoted replica frontier %d < quorum-acked %d", got, last)
	}
	img := promoted.sys.Crash()
	dev := pmem.New(pmem.Config{Size: uint64(len(img))})
	dev.Restore(img)
	recovered, err := dudetm.Recover(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if err := recovered.AuditRecovery(last); err != nil {
		t.Fatalf("promoted replica failed the durability audit: %v", err)
	}
	recovered.Run(0, func(tx *dudetm.Tx) error {
		for i := uint64(200 - 128); i < 200; i++ {
			if v := tx.Load(i % 128 * 8); v != i+1000 {
				t.Errorf("addr %d = %d, want %d", i%128*8, v, i+1000)
			}
		}
		return nil
	})
}

func TestReplicationReconnectCatchUp(t *testing.T) {
	// A replica that disconnects mid-stream reconnects, re-acks from
	// its durable frontier, and the sender resumes from there — the
	// catch-up trim — without ever moving the quorum frontier backward.
	cfg := testConfig()
	cfg.ReplFactor = 1
	cfg.ReplQuorum = 1
	r1 := startReplica(t, cfg)
	defer r1.close()
	pri, snd := startPrimary(t, cfg, r1)
	defer pri.Close()
	defer snd.Close()
	if !snd.WaitConnected(1, 10*time.Second) {
		t.Fatal("replica never connected")
	}

	var last uint64
	for i := uint64(0); i < 50; i++ {
		tid, err := pri.Run(0, func(tx *dudetm.Tx) error { tx.Store(i*8, i+1); return nil })
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	if err := pri.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	published := pri.ReplStats().Published

	// Sever every stream into the replica (transient network failure);
	// the receiver keeps accepting, the pool keeps its frontier, so the
	// reconnect handshake re-acks an old value.
	eventsBefore := pri.ReplStats().DegradedEvents
	r1.rcv.CloseStreams()
	// Wait for the sender to notice the dead connection — the degraded
	// flag may flip back within microseconds once the reconnect
	// handshake lands, so latch on the monotonic event counter.
	deadline := time.Now().Add(10 * time.Second)
	for pri.ReplStats().DegradedEvents == eventsBefore {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never detected")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if pri.ReplStats().Published < published {
		t.Fatalf("published regressed on disconnect")
	}

	// Wait for the reconnect handshake to heal the quorum (its re-ack
	// marks the replica live again); until then new waiters fail fast.
	deadline = time.Now().Add(10 * time.Second)
	for pri.ReplStats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("quorum never healed after reconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Traffic across the reconnect: the sender queues while down, the
	// handshake trims what the replica already holds, and the stream
	// resumes densely (any gap would reset the connection and show up
	// as a WaitDurable hang here).
	for i := uint64(0); i < 50; i++ {
		tid, err := pri.Run(0, func(tx *dudetm.Tx) error { tx.Store(i*8, i+500); return nil })
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	if err := pri.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if got := pri.ReplStats().Published; got < published || got < last {
		t.Fatalf("published = %d, want >= %d and >= %d", got, published, last)
	}
	if got := r1.sys.Durable(); got < last {
		t.Fatalf("replica frontier %d < %d after catch-up", got, last)
	}
	if gaps := r1.rcv.Stats().Gaps; gaps > 0 {
		// Gap resets heal via reconnect, but a clean single-disconnect
		// catch-up should not need any.
		t.Logf("note: %d gap resets during catch-up", gaps)
	}
}

func TestReplicationQuorumLossFailsWaiters(t *testing.T) {
	// Killing one of two replicas at Q=2 drops the quorum: in fail mode
	// new waiters get ErrQuorumLost instead of hanging or silently
	// acking.
	cfg := testConfig()
	r1 := startReplica(t, cfg)
	defer r1.close()
	r2 := startReplica(t, cfg)
	pri, snd := startPrimary(t, cfg, r1, r2)
	defer pri.Close()
	defer snd.Close()
	if !snd.WaitConnected(2, 10*time.Second) {
		t.Fatal("replicas never connected")
	}
	tid, err := pri.Run(0, func(tx *dudetm.Tx) error { tx.Store(0, 1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := pri.WaitDurable(tid); err != nil {
		t.Fatal(err)
	}

	// Kill r2 (streams and pool) and wait for the sender to notice.
	r2.close()
	deadline := time.Now().Add(10 * time.Second)
	for !pri.ReplStats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("quorum loss never detected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tid2, err := pri.Run(0, func(tx *dudetm.Tx) error { tx.Store(8, 2); return nil })
	if err != nil {
		t.Fatal(err)
	}
	werr := pri.WaitDurable(tid2)
	if werr == nil {
		// The waiter may race the degraded transition if r1's ack plus
		// the pre-close r2 ack covered tid2 first; what must never
		// happen is an ack beyond the quorum frontier.
		if pri.ReplStats().Published < tid2 {
			t.Fatal("WaitDurable returned nil beyond the published frontier")
		}
	} else if !errors.Is(werr, dudetm.ErrQuorumLost) {
		t.Fatalf("degraded wait: got %v, want ErrQuorumLost", werr)
	}
	if ev := pri.ReplStats().DegradedEvents; ev == 0 {
		t.Fatal("degraded events not counted")
	}
}

// TestBacklogSealsWithinOneFrame: a Persist backlog whose transactions
// each fit a REPL frame must never be sealed into one group that does
// not. Three ≈400 KB transactions of random (incompressible) values
// queue behind a paused Persist step; released, they would combine
// into one ≈1.2 MB group that the sender can only drop, killing the
// stream and failing every waiter with ErrQuorumLost. Sealed at the
// frame limit instead, they ship as three groups and are quorum-acked.
func TestBacklogSealsWithinOneFrame(t *testing.T) {
	const words = 50_000
	cfg := testConfig()
	cfg.ReplFactor, cfg.ReplQuorum = 1, 1
	cfg.GroupSize = 64
	cfg.DataSize = 2 << 20
	cfg.LogBufBytes = 8 << 20
	cfg.VLogEntries = 1 << 18 // the whole backlog waits in slot 0's ring
	r := startReplica(t, cfg)
	defer r.close()
	pri, snd := startPrimary(t, cfg, r)
	defer pri.Close()
	defer snd.Close()
	if !snd.WaitConnected(1, 10*time.Second) {
		t.Fatal("replica never connected")
	}
	rng := rand.New(rand.NewSource(1))
	pri.PausePersist()
	var last uint64
	for i := uint64(0); i < 3; i++ {
		tid, err := pri.Run(0, func(tx *dudetm.Tx) error {
			for j := uint64(0); j < words; j++ {
				tx.Store((i*words+j)*8, rng.Uint64())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		last = tid
	}
	pri.ResumePersist()
	if err := pri.WaitDurable(last); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	if st := snd.Stats(); st.OversizeDrops != 0 || st.DeadPeers != 0 {
		t.Fatalf("sender dropped %d oversized group(s) and abandoned %d peer(s)", st.OversizeDrops, st.DeadPeers)
	}
}

// TestOversizedTxRefusedUnderReplication: a transaction whose group no
// REPL frame can carry fails in Run with ErrTxTooLarge, rolled back
// before anything is logged or shipped, instead of committing and
// killing every peer's stream with its waiters stranded. Its writes
// are scattered (each entry its own 16-byte run) and random, so its
// encoded payload exceeds a frame even compressed; the ring and the
// log would both hold it.
func TestOversizedTxRefusedUnderReplication(t *testing.T) {
	const words = 70_000
	cfg := testConfig()
	cfg.ReplFactor, cfg.ReplQuorum = 1, 1
	cfg.DataSize = 4 << 20
	cfg.LogBufBytes = 8 << 20
	cfg.VLogEntries = 1 << 18
	r := startReplica(t, cfg)
	defer r.close()
	pri, snd := startPrimary(t, cfg, r)
	defer pri.Close()
	defer snd.Close()
	if !snd.WaitConnected(1, 10*time.Second) {
		t.Fatal("replica never connected")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := pri.Run(0, func(tx *dudetm.Tx) error {
		for j := uint64(0); j < words; j++ {
			tx.Store(j*16, rng.Uint64())
		}
		return nil
	}); !errors.Is(err, dudetm.ErrTxTooLarge) {
		t.Fatalf("a %d-write transaction under replication: Run = %v, want ErrTxTooLarge", words, err)
	}
	tid, err := pri.Run(0, func(tx *dudetm.Tx) error { tx.Store(8, 1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := pri.WaitDurable(tid); err != nil {
		t.Fatalf("WaitDurable after the refused transaction: %v", err)
	}
	if st := snd.Stats(); st.OversizeDrops != 0 || st.DeadPeers != 0 {
		t.Fatalf("sender dropped %d oversized group(s) and abandoned %d peer(s)", st.OversizeDrops, st.DeadPeers)
	}
}

// heldPrimary is a Primary that holds every replica ack at the door of
// the quorum gate until released.
type heldPrimary struct {
	*dudetm.System
	release chan struct{}
	once    sync.Once
}

func (h *heldPrimary) open() { h.once.Do(func() { close(h.release) }) }

func (h *heldPrimary) ReplicaAcked(peer string, frontier uint64) {
	<-h.release
	h.System.ReplicaAcked(peer, frontier)
}

// TestWaitConnectedImpliesQuorumGateLive: every caller starts load when
// WaitConnected returns, and in fail mode a write that finds the gate
// still degraded errors. So a peer must not count as connected before
// the gate has seen its handshake ack: with that ack held back,
// WaitConnected must keep waiting.
func TestWaitConnectedImpliesQuorumGateLive(t *testing.T) {
	cfg := testConfig()
	cfg.ReplFactor, cfg.ReplQuorum = 1, 1
	r := startReplica(t, cfg)
	defer r.close()
	sys, err := dudetm.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pri := &heldPrimary{System: sys, release: make(chan struct{})}
	snd := repl.NewSender(pri, repl.Config{Peers: []string{r.ln.Addr().String()}, Epoch: sys.Durable()})
	if err := sys.EnableReplication(snd, snd.PeerNames()); err != nil {
		t.Fatal(err)
	}
	snd.Start()
	defer snd.Close()
	defer pri.open() // before Close: it joins the peer loop held in ReplicaAcked

	if snd.WaitConnected(1, 300*time.Millisecond) {
		t.Fatalf("WaitConnected returned true before the quorum gate saw the peer (degraded=%v)", sys.ReplStats().Degraded)
	}
	pri.open()
	if !snd.WaitConnected(1, 10*time.Second) {
		t.Fatal("replica never connected")
	}
	if sys.ReplStats().Degraded {
		t.Fatal("WaitConnected returned true while the quorum gate is still degraded")
	}
	tid, err := sys.Run(0, func(tx *dudetm.Tx) error { tx.Store(0, 1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitDurable(tid); err != nil {
		t.Fatalf("first write after WaitConnected: %v", err)
	}
}

// TestOldProtocolPeerRefusedAtHandshake: a version-2 primary (whose
// group payloads are (addr, val) pairs this build would mis-read) is
// turned away at its hello with the version error — the replica never
// answers, never reads the group queued behind the hello, and so never
// gets as far as a payload CRC or decode failure.
func TestOldProtocolPeerRefusedAtHandshake(t *testing.T) {
	n := startReplica(t, testConfig())
	defer n.close()
	cli, srv := net.Pipe()
	defer cli.Close()
	served := make(chan error, 1)
	go func() {
		served <- n.rcv.ServeConn(srv)
		srv.Close()
	}()

	hello := wire.AppendReplHello(nil, 0)
	hello[9] = 2 // kind byte, 8-byte magic, then the version
	raw := redolog.AppendEntries(nil, []redolog.Entry{{Addr: 64, Val: 1}})
	group, err := wire.AppendReplGroup(nil, 1, 1, raw, false, uint32(len(raw)), wire.ReplPayloadCRC(raw))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// The group write fails once the replica hangs up; that is the point.
		if wire.WriteFrame(cli, hello) == nil {
			wire.WriteFrame(cli, group)
		}
	}()

	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "want 3") {
			t.Fatalf("handshake error %v, want the protocol version mismatch", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replica kept serving a version-2 stream")
	}
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if pl, err := wire.ReadFrame(cli); err == nil {
		t.Fatalf("replica answered a version-2 hello with %d bytes", len(pl))
	}
	if st := n.rcv.Stats(); st.Groups != 0 || st.Gaps != 0 {
		t.Fatalf("replica ingested from a refused stream: %+v", st)
	}
	if d := n.sys.Durable(); d != 0 {
		t.Fatalf("replica durable frontier moved to %d", d)
	}
}
