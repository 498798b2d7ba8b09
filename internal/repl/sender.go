// Package repl is the log-shipping replication transport: a Sender on
// the primary streams every sealed persist group, in dense
// transaction-ID order, to peer dudesrv nodes over the framed protocol
// in internal/wire, and a Receiver on each replica fences the groups
// into its own NVM log and acknowledges its durable frontier.
//
// The durability pipeline stays decoupled end to end, exactly in the
// spirit of the paper: the Persist coordinator hands a sealed group to
// the Sender and moves on; serialization, compression, and the network
// happen off the critical path, and only WaitDurable observes the
// quorum gate (internal/dudetm's replState) fed by the acks flowing
// back here.
//
// Connection lifecycle per peer: dial (with capped exponential
// backoff) → ReplHello/ReplHelloAck handshake → catch-up (queued
// groups at or below the replica's frontier are dropped, the rest are
// resent) → steady-state streaming with acks read concurrently. A
// broken connection marks the peer not-live (feeding the quorum
// degraded logic) and reconnects. A full unacked queue on a live
// connection backpressures the Persist coordinator; a full queue on a
// DEAD connection marks the peer dead — it has fallen further behind
// than the primary can replay, since recycled log space is gone, and
// needs a rebuild.
package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dudetm/internal/lz4"
	"dudetm/internal/obs"
	"dudetm/internal/redolog"
	"dudetm/internal/wire"
)

// Primary is the quorum-gate surface the Sender feeds replica state
// into (implemented by dudetm.System and the dude.Pool facade).
type Primary interface {
	ReplicaAcked(peer string, frontier uint64)
	ReplicaLive(peer string, live bool)
}

// PrimaryTracer is the optional tracing surface of a Primary: when the
// quorum gate also implements it (dudetm.System and dude.Pool do), the
// sender stamps per-peer frame-sent and replica-fence events into the
// primary's sample rows, extending a sampled transaction's timeline
// across nodes for critical-path decomposition. peer is the index into
// Config.Peers.
type PrimaryTracer interface {
	ReplicaGroupSent(peer int, minTid, maxTid uint64)
	ReplicaGroupAcked(peer int, minTid, maxTid uint64, ingestNanos int64)
}

// Config configures a Sender.
type Config struct {
	// Peers are the replica addresses (host:port); each is also the
	// peer name used with Primary.ReplicaAcked/ReplicaLive.
	Peers []string
	// Epoch is the primary's durable frontier when replication started:
	// groups at or below it predate the stream and are never shipped, so
	// a replica that is missing any of them refuses the handshake.
	Epoch uint64
	// Compress enables lz4 block compression of shipped groups.
	Compress bool
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = time.Second
	// minBackoff and maxBackoff bound the reconnect backoff, which
	// starts at minBackoff and doubles.
	minBackoff = 25 * time.Millisecond
	maxBackoff = time.Second
	// queueGroups is the per-peer unacked-group queue capacity. A full
	// queue backpressures the Persist coordinator while the peer is
	// connected; while it is down, overflow marks the peer dead — too
	// far behind to ever catch up from the stream (the primary recycles
	// shipped log space), it needs a rebuild.
	queueGroups = 4096
)

// Sender ships sealed persist groups to every configured peer. It
// implements dudetm.ReplSink: ShipGroup runs on the Persist
// coordinator goroutine and only serializes, compresses, and enqueues
// — each peer's connection is driven by its own goroutine.
type Sender struct {
	cfg     Config
	pri     Primary
	tracer  PrimaryTracer // pri's optional tracing surface (may be nil)
	peers   []*peer
	closed  atomic.Bool
	closeCh chan struct{}
	connCh  atomic.Pointer[chan struct{}] // closed and replaced on each handshake
	wg      sync.WaitGroup

	groupsShipped atomic.Uint64
	rawBytes      atomic.Uint64
	wireBytes     atomic.Uint64
	oversize      atomic.Uint64
	deadPeers     atomic.Uint64
	ackLat        obs.Histogram // ship→ack nanoseconds, per peer ack

	// Coordinator-goroutine scratch (ShipGroup is single-threaded).
	encBuf, cmpBuf, msgBuf []byte
}

// shipped is one group queued for a peer: the complete pre-encoded
// wire frame (shared read-only across peers) plus what ack tracking
// needs.
type shipped struct {
	frame          []byte
	minTid, maxTid uint64
	shipAt         int64 // UnixNano at ShipGroup
}

// NewSender builds a Sender for the given peers. It does not connect;
// call Start after attaching it to the pool (EnableReplication), so no
// ack can arrive before the quorum gate exists.
func NewSender(pri Primary, cfg Config) *Sender {
	s := &Sender{cfg: cfg, pri: pri, closeCh: make(chan struct{})}
	connCh := make(chan struct{})
	s.connCh.Store(&connCh)
	s.tracer, _ = pri.(PrimaryTracer)
	for i, addr := range cfg.Peers {
		p := &peer{name: addr, idx: i, s: s}
		p.cond = sync.NewCond(&p.mu)
		s.peers = append(s.peers, p)
	}
	return s
}

// Start launches the per-peer connection loops.
func (s *Sender) Start() {
	for _, p := range s.peers {
		s.wg.Add(1)
		go p.run()
	}
}

// PeerNames returns the peer names acks will arrive under (the
// addresses), for EnableReplication.
func (s *Sender) PeerNames() []string { return append([]string(nil), s.cfg.Peers...) }

// ShipGroup implements dudetm.ReplSink: serialize and compress once,
// frame once, enqueue the shared frame to every peer. The entries
// slice is not retained.
func (s *Sender) ShipGroup(minTid, maxTid uint64, entries []redolog.Entry) {
	s.encBuf = redolog.AppendEntries(s.encBuf[:0], entries)
	raw := s.encBuf
	crc := wire.ReplPayloadCRC(raw)
	payload := raw
	compressed := false
	if s.cfg.Compress && len(raw) > 0 {
		s.cmpBuf = lz4.Compress(s.cmpBuf[:0], raw)
		if len(s.cmpBuf) < len(raw) {
			payload = s.cmpBuf
			compressed = true
		}
	}
	msg, err := wire.AppendReplGroup(s.msgBuf[:0], minTid, maxTid, payload, compressed, uint32(len(raw)), crc)
	s.msgBuf = msg[:0]
	if err != nil {
		// The group cannot be framed (beyond MaxPayload even
		// compressed): the stream is broken for every peer, and
		// pretending otherwise would leave a silent gap.
		s.oversize.Add(1)
		for _, p := range s.peers {
			p.kill()
		}
		return
	}
	frame := wire.AppendFrame(make([]byte, 0, len(msg)+8), msg)
	s.groupsShipped.Add(1)
	s.rawBytes.Add(uint64(len(raw)))
	s.wireBytes.Add(uint64(len(frame)))
	g := shipped{frame: frame, minTid: minTid, maxTid: maxTid, shipAt: time.Now().UnixNano()}
	for _, p := range s.peers {
		p.enqueue(g)
	}
}

// ShipStats implements dudetm.ReplSink: cumulative serialized bytes
// before and after compression.
func (s *Sender) ShipStats() (rawBytes, wireBytes uint64) {
	return s.rawBytes.Load(), s.wireBytes.Load()
}

// SenderStats is a Sender activity snapshot.
type SenderStats struct {
	// GroupsShipped counts groups handed to the sender.
	GroupsShipped uint64
	// RawBytes and WireBytes are cumulative group payload before and
	// after compression and framing.
	RawBytes, WireBytes uint64
	// OversizeDrops counts groups too large to frame (each kills the
	// stream rather than leaving a silent gap).
	OversizeDrops uint64
	// DeadPeers counts peers abandoned after an unacked-queue overflow.
	DeadPeers uint64
	// Connected is the number of peers with a live, handshaken
	// connection right now.
	Connected int
	// AckLatency is the ship→ack latency distribution in nanoseconds
	// (one observation per group per peer ack).
	AckLatency obs.HistSnapshot
}

// Stats returns an activity snapshot.
func (s *Sender) Stats() SenderStats {
	st := SenderStats{
		GroupsShipped: s.groupsShipped.Load(),
		RawBytes:      s.rawBytes.Load(),
		WireBytes:     s.wireBytes.Load(),
		OversizeDrops: s.oversize.Load(),
		DeadPeers:     s.deadPeers.Load(),
		AckLatency:    s.ackLat.Snapshot(),
	}
	for _, p := range s.peers {
		if p.connected.Load() {
			st.Connected++
		}
	}
	return st
}

// WaitConnected blocks until at least n peers hold a handshaken
// connection, or the timeout elapses or the sender closes; it reports
// whether the quorum of connections was reached.
func (s *Sender) WaitConnected(n int, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		connected := *s.connCh.Load()
		if s.Stats().Connected >= n {
			return true
		}
		select {
		case <-connected:
		case <-deadline.C:
			return s.Stats().Connected >= n
		case <-s.closeCh:
			return false
		}
	}
}

// Close stops every peer loop and closes their connections. It does
// not wait for unacked groups: replication durability is whatever the
// quorum gate observed. Close the sender BEFORE closing or crashing
// the pool — pool teardown joins the Persist coordinator, and a
// coordinator backpressured on a full peer queue unblocks only on
// replica acks or this Close.
func (s *Sender) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.closeCh)
	for _, p := range s.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	s.wg.Wait()
}

// peer is one replica connection: a queue of unacked groups and the
// goroutine that drives dial/handshake/stream/reconnect.
type peer struct {
	name string
	idx  int // index into Config.Peers (the trace-stamp peer id)
	s    *Sender

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds every group not yet known-acked, in tid order;
	// queue[:sent] has been written to the current connection. On
	// reconnect sent rewinds to 0 and the handshake frontier trims the
	// prefix the replica already holds — the catch-up path.
	queue []shipped
	sent  int
	gen   int // connection generation; bumped to kick the write loop
	dead  bool
	conn  net.Conn

	connected atomic.Bool
}

// enqueue adds a group to the unacked queue. A full queue on a
// connected peer blocks the caller (the Persist coordinator) until
// acks open space — the pipeline's natural flow control, extended over
// the wire; a slow replica slows the primary instead of being
// abandoned. A full queue with NO connection to drain it declares the
// peer dead: it has fallen further behind than the primary keeps
// history (shipped log space gets recycled) and needs a rebuild.
func (p *peer) enqueue(g shipped) {
	p.mu.Lock()
	for len(p.queue) >= queueGroups && !p.dead && p.connected.Load() && !p.s.closed.Load() {
		p.cond.Wait()
	}
	if p.dead || p.s.closed.Load() {
		p.mu.Unlock()
		return
	}
	if len(p.queue) >= queueGroups {
		p.deadLocked()
		p.mu.Unlock()
		p.cond.Broadcast()
		p.s.pri.ReplicaLive(p.name, false)
		return
	}
	p.queue = append(p.queue, g)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// kill marks the peer dead from outside (oversize group).
func (p *peer) kill() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.deadLocked()
	p.mu.Unlock()
	p.cond.Broadcast()
	p.s.pri.ReplicaLive(p.name, false)
}

func (p *peer) deadLocked() {
	p.dead = true
	p.queue = nil
	p.sent = 0
	if p.conn != nil {
		p.conn.Close()
	}
	p.s.deadPeers.Add(1)
}

// run is the peer's connection loop: dial with backoff, serve, mark
// not-live, repeat until the sender closes or the peer dies.
func (p *peer) run() {
	defer p.s.wg.Done()
	backoff := minBackoff
	for {
		p.mu.Lock()
		dead := p.dead
		p.mu.Unlock()
		if dead || p.s.closed.Load() {
			return
		}
		conn, err := net.DialTimeout("tcp", p.name, dialTimeout)
		if err != nil {
			select {
			case <-p.s.closeCh:
				return
			case <-time.After(backoff):
			}
			backoff = min(backoff*2, maxBackoff)
			continue
		}
		handshook := p.serveConn(conn)
		conn.Close()
		p.connected.Store(false)
		if !p.s.closed.Load() {
			p.s.pri.ReplicaLive(p.name, false)
		}
		if handshook {
			backoff = minBackoff
			continue
		}
		// The replica accepted the dial but refused or dropped the
		// handshake: back off rather than hammering it.
		select {
		case <-p.s.closeCh:
			return
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, maxBackoff)
	}
}

// serveConn runs the handshake and the concurrent write/ack loops on
// one connection; it returns when the connection breaks, reporting
// whether the handshake completed (so the caller can back off on a
// replica that accepts but refuses).
func (p *peer) serveConn(conn net.Conn) bool {
	if err := wire.WriteFrame(conn, wire.AppendReplHello(nil, p.s.cfg.Epoch)); err != nil {
		return false
	}
	pl, err := wire.ReadFrame(conn)
	if err != nil {
		return false
	}
	m, err := wire.DecodeRepl(pl)
	if err != nil || m.Kind != wire.ReplHelloAck {
		return false
	}
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return true
	}
	// Catch-up: the replica already holds everything at or below its
	// frontier; resend the rest from the start of the queue.
	p.trimLocked(m.Frontier, 0)
	p.sent = 0
	p.conn = conn
	p.gen++
	gen := p.gen
	p.mu.Unlock()
	// The quorum gate sees the peer live before anyone can see it
	// connected: callers start load on WaitConnected, and in fail mode a
	// write that finds the gate still degraded errors.
	p.s.pri.ReplicaAcked(p.name, m.Frontier)
	p.connected.Store(true)
	connCh := make(chan struct{})
	close(*p.s.connCh.Swap(&connCh)) // wake WaitConnected
	// The handshake trim frees space and flips connected: wake both a
	// backpressured coordinator and the (new-gen) write loop.
	p.cond.Broadcast()

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.readAcks(conn, gen)
	}()
	p.writeLoop(conn, gen)
	conn.Close()
	<-done
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
	return true
}

// writeLoop streams queued frames until the connection generation is
// retired (ack-reader error), the peer dies, or the sender closes.
func (p *peer) writeLoop(conn net.Conn, gen int) {
	for {
		p.mu.Lock()
		for p.gen == gen && !p.dead && !p.s.closed.Load() && p.sent == len(p.queue) {
			p.cond.Wait()
		}
		if p.gen != gen || p.dead || p.s.closed.Load() {
			p.mu.Unlock()
			return
		}
		g := p.queue[p.sent]
		p.sent++
		p.mu.Unlock()
		if _, err := conn.Write(g.frame); err != nil {
			return
		}
		if t := p.s.tracer; t != nil {
			t.ReplicaGroupSent(p.idx, g.minTid, g.maxTid)
		}
	}
}

// readAcks consumes frontier acknowledgments, feeding the quorum gate
// and the ack-latency histogram; on any error it retires the
// connection generation so the write loop unblocks.
func (p *peer) readAcks(conn net.Conn, gen int) {
	for {
		pl, err := wire.ReadFrame(conn)
		if err != nil {
			break
		}
		m, err := wire.DecodeRepl(pl)
		if err != nil || m.Kind != wire.ReplAck {
			break
		}
		// Stamp the replica fence BEFORE the frontier feeds the quorum
		// gate: the acked-frontier advance may complete the sampled
		// transaction's timeline, which must already hold this fence.
		// A zero tid range is a pure re-ack (catch-up duplicate).
		if t := p.s.tracer; t != nil && m.MinTid != 0 {
			t.ReplicaGroupAcked(p.idx, m.MinTid, m.MaxTid, m.IngestNanos)
		}
		p.mu.Lock()
		p.trimLocked(m.Frontier, time.Now().UnixNano())
		p.mu.Unlock()
		// The trim may have opened queue space a backpressured
		// coordinator is waiting on.
		p.cond.Broadcast()
		p.s.pri.ReplicaAcked(p.name, m.Frontier)
	}
	conn.Close()
	p.mu.Lock()
	if p.gen == gen {
		p.gen++
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// trimLocked drops the queue prefix the frontier covers. nowNs > 0
// records ship→ack latency for each trimmed group; handshake trims
// pass 0 (reconnect downtime is not ack latency).
func (p *peer) trimLocked(frontier uint64, nowNs int64) {
	n := 0
	for n < len(p.queue) && p.queue[n].maxTid <= frontier {
		if nowNs > 0 {
			if d := nowNs - p.queue[n].shipAt; d > 0 {
				p.s.ackLat.Observe(uint64(d))
			} else {
				p.s.ackLat.Observe(0)
			}
		}
		n++
	}
	if n > 0 {
		p.queue = append(p.queue[:0], p.queue[n:]...)
		p.sent = max(p.sent-n, 0)
	}
}

// errBadHandshake is returned by the Receiver for a malformed or
// refused hello.
var errBadHandshake = errors.New("repl: bad replication handshake")

func badHandshake(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadHandshake, fmt.Sprintf(format, args...))
}
