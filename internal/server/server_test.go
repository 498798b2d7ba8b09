package server

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dudetm"
	"dudetm/internal/wire"
)

// startServer mounts a fresh pool, starts a server on a loopback
// listener, and returns both plus the dial address. The caller owns
// teardown (Shutdown/Kill and pool Close).
func startServer(t *testing.T, opts dudetm.Options, cfg Config) (*Server, *dudetm.Pool, string) {
	t.Helper()
	if opts.DataSize == 0 {
		opts.DataSize = 16 << 20
	}
	pool, err := dudetm.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, pool, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServerBasicOps(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{}, Config{})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)
	c := dial(t, addr)
	defer c.Close()

	if _, found, err := c.Get(1); err != nil || found {
		t.Fatalf("Get(missing) = found=%v err=%v", found, err)
	}
	if err := c.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(1)
	if err != nil || !found || string(v) != "one" {
		t.Fatalf("Get(1) = %q,%v,%v", v, found, err)
	}
	// Overwrite with a longer value (blob reallocation).
	long := bytes.Repeat([]byte("x"), 1000)
	if err := c.Put(1, long); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get(1); !bytes.Equal(v, long) {
		t.Fatalf("Get(1) after overwrite: %d bytes", len(v))
	}
	// Empty value round-trips as present-but-empty.
	if err := c.Put(3, nil); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := c.Get(3); !found || len(v) != 0 {
		t.Fatalf("Get(3) = %q,%v", v, found)
	}
	// Scan sees the keys in order.
	pairs, err := c.Scan(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 || pairs[0].Key != 1 || pairs[1].Key != 2 || pairs[2].Key != 3 {
		t.Fatalf("scan: %+v", pairs)
	}
	// Delete.
	if found, err := c.Delete(2); err != nil || !found {
		t.Fatalf("Delete(2) = %v,%v", found, err)
	}
	if found, err := c.Delete(2); err != nil || found {
		t.Fatalf("Delete(2) again = %v,%v", found, err)
	}
	if _, found, _ := c.Get(2); found {
		t.Fatal("Get(2) after delete: found")
	}
}

func TestServerTxnAtomicity(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{}, Config{})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)
	c := dial(t, addr)
	defer c.Close()

	// A multi-op transaction commits atomically.
	resp, err := c.Txn(
		wire.Op{Kind: wire.OpPut, Key: 10, Val: []byte("a")},
		wire.Op{Kind: wire.OpPut, Key: 11, Val: []byte("b")},
		wire.Op{Kind: wire.OpGet, Key: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Durable || resp.Tid == 0 {
		t.Fatalf("txn resp: %+v", resp)
	}
	if string(resp.Results[2].Val) != "a" {
		t.Fatalf("read-own-write inside txn: %q", resp.Results[2].Val)
	}
	// A bank-style transfer never shows a torn state to other clients.
	c.Txn(
		wire.Op{Kind: wire.OpPut, Key: 100, Val: []byte{100}},
		wire.Op{Kind: wire.OpPut, Key: 101, Val: []byte{100}},
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c2 := dial(t, addr)
		defer c2.Close()
		for i := 0; i < 200; i++ {
			resp, err := c2.Txn(
				wire.Op{Kind: wire.OpGet, Key: 100},
				wire.Op{Kind: wire.OpGet, Key: 101},
			)
			if err != nil {
				t.Error(err)
				return
			}
			sum := int(resp.Results[0].Val[0]) + int(resp.Results[1].Val[0])
			if sum != 200 {
				t.Errorf("torn read: sum=%d", sum)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		amt := byte(1 + i%10)
		resp, err := c.Txn(wire.Op{Kind: wire.OpGet, Key: 100}, wire.Op{Kind: wire.OpGet, Key: 101})
		if err != nil {
			t.Fatal(err)
		}
		a, b := resp.Results[0].Val[0], resp.Results[1].Val[0]
		if a < amt {
			continue
		}
		if _, err := c.Txn(
			wire.Op{Kind: wire.OpPut, Key: 100, Val: []byte{a - amt}},
			wire.Op{Kind: wire.OpPut, Key: 101, Val: []byte{b + amt}},
		); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestServerPipelining(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{GroupSize: 16}, Config{})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)
	c := dial(t, addr)
	defer c.Close()

	// Many requests in flight on one connection; responses match by ID.
	const n = 100
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		f, err := c.Go([]wire.Op{{Kind: wire.OpPut, Key: uint64(i), Val: []byte{byte(i)}}}, false)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		resp, err := f.Wait()
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if !resp.Durable {
			t.Fatalf("req %d: not durable", i)
		}
	}
	for i := 0; i < n; i++ {
		v, found, err := c.Get(uint64(i))
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("Get(%d) = %v,%v,%v", i, v, found, err)
		}
	}
}

func TestServerRelaxedFastAck(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{}, Config{})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)
	c := dial(t, addr)
	defer c.Close()

	// Relaxed acks return without a durability wait; the write is still
	// applied and eventually durable.
	if _, err := c.PutRelaxed(5, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(5)
	if err != nil || !found || string(v) != "fast" {
		t.Fatalf("Get(5) = %q,%v,%v", v, found, err)
	}
}

func TestServerRejectsCorruptFrame(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{}, Config{})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("this is not a frame, and much too short anyway"))
	// The server must close the connection rather than wedge.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server kept a corrupt connection open")
	}

	// A healthy connection still works afterwards.
	c := dial(t, addr)
	defer c.Close()
	if err := c.Put(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestServerConnLimitBackpressure(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{}, Config{MaxConns: 2})
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)

	c1, c2 := dial(t, addr), dial(t, addr)
	defer c1.Close()
	defer c2.Close()
	if err := c1.Put(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// A third connection is not serviced until a slot frees: its
	// request sits unanswered (queued in the backlog, not reset).
	c3 := dial(t, addr)
	defer c3.Close()
	f, err := c3.Go([]wire.Op{{Kind: wire.OpGet, Key: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.ch:
		t.Fatal("over-limit connection was serviced")
	case <-time.After(200 * time.Millisecond):
	}
	// Freeing a slot lets it through.
	c1.Close()
	resp, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Found {
		t.Fatal("backpressured request lost data")
	}
}

// TestGroupCommitBatching is the acceptance drill's throughput half: a
// 32-connection durable write load must cost fewer persist fences than
// acknowledged write transactions — the cross-client group commit.
func TestGroupCommitBatching(t *testing.T) {
	srv, pool, addr := startServer(t, dudetm.Options{GroupSize: 64, Threads: 4}, Config{})
	defer pool.Close()
	defer srv.Shutdown(10 * time.Second)

	fencesBefore := pool.Stats().Device.Fences
	const conns = 32
	const writesPerConn = 20
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial(t, addr)
			defer c.Close()
			for i := 0; i < writesPerConn; i++ {
				k := uint64(w)<<32 | uint64(i)
				if err := c.Put(k, []byte(fmt.Sprintf("v-%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := srv.Stats()
	fences := pool.Stats().Device.Fences - fencesBefore
	if st.AckedWrites < conns*writesPerConn {
		t.Fatalf("acked %d writes, want >= %d", st.AckedWrites, conns*writesPerConn)
	}
	if fences >= st.AckedWrites {
		t.Errorf("group commit broken: %d fences for %d acked writes", fences, st.AckedWrites)
	}
	if st.Notifier.Released == 0 || st.Notifier.MaxBatch < 2 {
		t.Errorf("no cross-client batching: %+v", st.Notifier)
	}
	t.Logf("fences=%d acked=%d notifier=%+v", fences, st.AckedWrites, st.Notifier)
}

// TestServerCrashDrill is the acceptance drill's durability half: kill
// the server mid-load with a simulated power failure, remount the
// image, and verify every write that was acknowledged durable.
func TestServerCrashDrill(t *testing.T) {
	opts := dudetm.Options{DataSize: 16 << 20, GroupSize: 16, Threads: 4}
	srv, _, addr := startServer(t, opts, Config{})

	const conns = 8
	type ack struct{ key, gen, tid uint64 }
	ackedCh := make(chan ack, 1<<16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for gen := uint64(1); ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(w)<<32 | gen%128
				val := make([]byte, 8)
				for i := range val {
					val[i] = byte(gen >> (8 * i))
				}
				resp, err := c.Do([]wire.Op{{Kind: wire.OpPut, Key: key, Val: val}}, false)
				if err != nil {
					return // connection severed by the crash
				}
				ackedCh <- ack{key, gen, resp.Tid}
			}
		}(w)
	}

	// Let the load run, then pull the plug mid-flight.
	time.Sleep(300 * time.Millisecond)
	img := srv.Kill()
	close(stop)
	wg.Wait()
	close(ackedCh)

	// Highest acknowledged generation per key: that write and nothing
	// newer must be in the recovered store. Also the highest acked
	// transaction ID, for the online durability audit below.
	minGen := make(map[uint64]uint64)
	var total int
	var maxTid uint64
	for a := range ackedCh {
		total++
		if a.gen > minGen[a.key] {
			minGen[a.key] = a.gen
		}
		if a.tid > maxTid {
			maxTid = a.tid
		}
	}
	if total == 0 {
		t.Fatal("crash drill produced no acknowledged writes")
	}
	t.Logf("acked %d writes over %d keys (max tid %d) before the crash", total, len(minGen), maxTid)

	pool2, err := dudetm.OpenSnapshot(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	// Online durability audit: the recovered frontier must cover every
	// acknowledged transaction; a failure carries the forensic crash
	// report so the lost work is identifiable.
	if err := pool2.AuditRecovery(maxTid); err != nil {
		t.Errorf("durability audit after crash recovery: %v", err)
	}
	if rec := pool2.Stats().Recovery; !rec.Recovered || rec.Report == nil {
		t.Errorf("recovered pool missing recovery stats or crash report: %+v", rec)
	}
	srv2, err := New(pool2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln)
	defer srv2.Shutdown(5 * time.Second)
	c := dial(t, ln.Addr().String())
	defer c.Close()
	for key, gen := range minGen {
		v, found, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Errorf("key %#x: acknowledged write lost", key)
			continue
		}
		var got uint64
		for i := len(v) - 1; i >= 0; i-- {
			got = got<<8 | uint64(v[i])
		}
		if got < gen {
			t.Errorf("key %#x: recovered gen %d < acknowledged gen %d", key, got, gen)
		}
	}
}

// TestServerGracefulDrain: Shutdown lets in-flight requests finish,
// waits out the durable frontier, and the resulting snapshot remounts
// with everything acknowledged.
func TestServerGracefulDrain(t *testing.T) {
	opts := dudetm.Options{GroupSize: 8}
	srv, pool, addr := startServer(t, opts, Config{})

	c := dial(t, addr)
	for i := uint64(0); i < 50; i++ {
		if err := c.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// After the drain, new connections are refused.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("server accepted a connection after Shutdown")
	}
	pool.Close()
	img := pool.Snapshot()

	pool2, err := dudetm.OpenSnapshot(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	srv2, err := New(pool2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv2.Serve(ln)
	defer srv2.Shutdown(5 * time.Second)
	c2 := dial(t, ln.Addr().String())
	defer c2.Close()
	for i := uint64(0); i < 50; i++ {
		v, found, err := c2.Get(i)
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("key %d after drain+remount: %v,%v,%v", i, v, found, err)
		}
	}
}

// nullSink discards shipped groups; the tests play the replica by hand
// through pool.ReplicaLive / pool.ReplicaAcked.
type nullSink struct{}

func (nullSink) ShipGroup(minTid, maxTid uint64, entries []dudetm.Entry) {}
func (nullSink) ShipStats() (rawBytes, wireBytes uint64)                 { return 0, 0 }

// quorumOpts is an R=1/Q=1 fail-mode pool (the dudesrv default mode).
var quorumOpts = dudetm.Options{DataSize: 16 << 20, ReplFactor: 1, ReplQuorum: 1}

// startQuorumServer is startServer over quorumOpts with the quorum gate
// attached the way dudesrv does it (server first, then replication),
// the single peer not yet live.
func startQuorumServer(t *testing.T, peer string) (*Server, *dudetm.Pool, string) {
	t.Helper()
	srv, pool, addr := startServer(t, quorumOpts, Config{})
	if err := pool.EnableReplication(nullSink{}, []string{peer}); err != nil {
		t.Fatal(err)
	}
	return srv, pool, addr
}

// goParked sends one strict PUT and returns once the server has
// committed it, i.e. its connection is parked waiting for the ack
// frontier (which only the test's ReplicaAcked calls can move).
func goParked(t *testing.T, c *Client, pool *dudetm.Pool, key uint64) *Future {
	t.Helper()
	clock := pool.Stats().Clock
	f, err := c.Go([]wire.Op{{Kind: wire.OpPut, Key: key, Val: []byte{byte(key)}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for pool.Stats().Clock == clock {
		time.Sleep(time.Millisecond)
	}
	return f
}

// waitWithin is Future.Wait with a deadline: a response that never
// comes is the bug under test, not a reason to hang the suite.
func waitWithin(t *testing.T, f *Future, d time.Duration) (*wire.Response, error) {
	t.Helper()
	type result struct {
		resp *wire.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := f.Wait()
		done <- result{resp, err}
	}()
	select {
	case r := <-done:
		return r.resp, r.err
	case <-time.After(d):
		t.Fatalf("no response within %v: the client is parked on an ack that cannot arrive", d)
		return nil, nil
	}
}

// TestQuorumLossFailsClientAcks: on a fail-mode primary (the dudesrv
// default) losing the replication quorum must fail strict writes back to
// TCP clients with the quorum error instead of parking them, must leave
// relaxed writes alone, and must not cost the client its connection —
// the same connection acks durable again once the quorum heals.
func TestQuorumLossFailsClientAcks(t *testing.T) {
	const peer = "replica"
	srv, pool, addr := startQuorumServer(t, peer)
	defer pool.Close()
	defer srv.Shutdown(5 * time.Second)
	// ackAll plays a replica that holds everything committed so far.
	ackAll := func() { pool.ReplicaAcked(peer, pool.Stats().Clock) }

	c := dial(t, addr)
	defer c.Close()

	// Live peer: a strict PUT is acked once the replica covers it.
	pool.ReplicaLive(peer, true)
	f := goParked(t, c, pool, 1)
	ackAll()
	if resp, err := waitWithin(t, f, 5*time.Second); err != nil || !resp.Durable {
		t.Fatalf("PUT with a live quorum: resp=%+v err=%v", resp, err)
	}

	// Quorum lost: the next strict PUT comes back as an error naming the
	// quorum, promptly.
	pool.ReplicaLive(peer, false)
	f, err := c.Go([]wire.Op{{Kind: wire.OpPut, Key: 2, Val: []byte{2}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitWithin(t, f, 2*time.Second); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("strict PUT after quorum loss: err=%v, want the quorum-lost error", err)
	}
	// A relaxed PUT in the same window still gets its fast ack.
	f, err = c.Go([]wire.Op{{Kind: wire.OpPut, Key: 3, Val: []byte{3}}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := waitWithin(t, f, 2*time.Second); err != nil || resp.Durable {
		t.Fatalf("relaxed PUT while degraded: resp=%+v err=%v, want Durable=false", resp, err)
	}
	if st := srv.Stats(); st.FailedAcks != 1 {
		t.Errorf("FailedAcks = %d, want 1", st.FailedAcks)
	}

	// Quorum heals: the same connection acks durable again.
	pool.ReplicaLive(peer, true)
	f = goParked(t, c, pool, 4)
	ackAll()
	if resp, err := waitWithin(t, f, 5*time.Second); err != nil || !resp.Durable {
		t.Fatalf("PUT on the same connection after the quorum healed: resp=%+v err=%v", resp, err)
	}
	// A failed ack is not an undone write: all four are there.
	for key := uint64(1); key <= 4; key++ {
		if v, found, err := c.Get(key); err != nil || !found || v[0] != byte(key) {
			t.Errorf("Get(%d) = %v,%v,%v", key, v, found, err)
		}
	}
}

// TestStrandedAckNamesTheCause: a client parked on a transaction the ack
// frontier will never reach is told why the pool went away — closed by
// Close, crashed by a power failure. (Server.Kill severs connections
// before it crashes the pool, so only a pool-level Crash leaves a
// connected client to tell.)
func TestStrandedAckNamesTheCause(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		stop       func(*testing.T, *dudetm.Pool)
	}{
		{"close", "closed", func(_ *testing.T, p *dudetm.Pool) { p.Close() }},
		{"crash", "crashed", func(t *testing.T, p *dudetm.Pool) {
			acked := p.AckFrontier()
			p2, err := dudetm.OpenSnapshot(p.Crash(), quorumOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			// The stranded PUT was promised nothing; what was acked
			// before it must be in the image.
			if err := p2.AuditRecovery(acked); err != nil {
				t.Error(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const peer = "replica"
			srv, pool, addr := startQuorumServer(t, peer)
			defer srv.Shutdown(5 * time.Second)
			c := dial(t, addr)
			defer c.Close()
			// A live replica that never acks: the PUT becomes locally
			// durable and stays parked at the quorum gate.
			pool.ReplicaLive(peer, true)
			f := goParked(t, c, pool, 1)
			tc.stop(t, pool)
			_, err := waitWithin(t, f, 5*time.Second)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stranded PUT: err=%v, want it to say %q", err, tc.want)
			}
			if st := srv.Stats(); st.FailedAcks != 1 {
				t.Errorf("FailedAcks = %d, want 1", st.FailedAcks)
			}
			// A hard failure ends the connection after the error response.
			if _, err := c.Do([]wire.Op{{Kind: wire.OpGet, Key: 1}}, false); err == nil {
				t.Error("connection survived the death of its pool")
			}
		})
	}
}

// deadlineConn counts a server connection's write deadlines and socket
// writes, and whether a write ever ran with no deadline set.
type deadlineConn struct {
	net.Conn
	mu                sync.Mutex
	deadlines, writes int
	undeadlined       bool
}

func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlines++
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *deadlineConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.undeadlined = c.undeadlined || c.deadlines == 0
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// deadlineListener hands the server deadlineConns.
type deadlineListener struct {
	net.Listener
	conns chan *deadlineConn
}

func (l deadlineListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	dc := &deadlineConn{Conn: nc}
	l.conns <- dc
	return dc, nil
}

// TestWriteDeadlinePerBatch pins the write path's timer cost: the
// server sets one write deadline per batch of responses, not one per
// response plus one per flush, and never writes to the socket before a
// deadline bounds it. A batch flushes with at least one socket write,
// so there are never more deadlines than writes.
func TestWriteDeadlinePerBatch(t *testing.T) {
	pool, err := dudetm.Create(dudetm.Options{DataSize: 16 << 20, GroupSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dl := deadlineListener{Listener: ln, conns: make(chan *deadlineConn, 1)}
	go srv.Serve(dl)
	c := dial(t, ln.Addr().String())
	defer c.Close()
	const n = 200
	futs := make([]*Future, n)
	for i := range futs {
		if futs[i], err = c.Go([]wire.Op{{Kind: wire.OpPut, Key: uint64(i), Val: []byte{byte(i)}}}, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	sc := <-dl.conns
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.undeadlined || sc.deadlines > sc.writes {
		t.Fatalf("%d responses: %d write deadlines for %d socket writes (a write before any deadline: %v)",
			n, sc.deadlines, sc.writes, sc.undeadlined)
	}
	t.Logf("%d responses: %d write deadlines, %d socket writes", n, sc.deadlines, sc.writes)
}
