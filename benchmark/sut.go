package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dudetm"
	idudetm "dudetm/internal/dudetm"
	"dudetm/internal/pmem"
	"dudetm/internal/repl"
	"dudetm/internal/server"
	"dudetm/internal/wire"
)

// The system under test, fixed and stated in the output header: an
// in-process mirror of cmd/dudesrv's defaults over the paper's baseline
// NVM model (1000-cycle write latency, 1 GB/s), which is the flush
// policy on every workload. Load comes from this one process through
// two generator goroutines on two pipelined connections.

const (
	kvThreads    = 4     // pool execution slots behind the server (dudesrv default)
	conns        = 2     // generator goroutines / pipelined connections
	btreeThreads = conns // the library workload's Perform threads are its connections
	inflight     = 32    // closed-loop requests in flight per connection
	groupSize    = 64
	preloadOps   = 8 // ops per preload transaction: keeps every sealed 64-tx group far below wire.MaxPayload
	drainTimeout = 5 * time.Second
	sloNs        = 20 * int64(time.Millisecond)
	putRate      = 4000.0 // kv-put, kv-put-repl and tx-btree latency phases, requests/s
	readRate     = 8000.0 // kv-read-mostly latency phase, requests/s
	readPutFrac  = 0.05
	zipfTheta    = 0.99
	recordWords  = 16 // tx-btree record: 16 words = 128 B
	traceSample  = 64
)

// runConfig is one invocation's configuration: the arguments plus the
// scale they select. Only -quick changes the scale.
type runConfig struct {
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	traceDir string
	host     stealReader

	keys      uint64        // KV keyspace
	records   uint64        // tx-btree records
	dataSize  uint64        // pool data region
	backlog   int           // recovery-drill transactions
	warmup    time.Duration // unmeasured lead-in at the latency-phase rate
	setups    int           // most set-up repetitions; setup_s is their median
	mounts    int           // recovery-drill remounts; recover_ms is their median
	maxIdle   time.Duration // longest wait for a quiet host before a phase's one retry
	killAfter time.Duration // power-failure drill: load time before the plug is pulled
	rungTime  time.Duration // layer ladder: time per rung
}

func newRunConfig(seed uint64, seconds int, trace, quick bool, traceDir string) *runConfig {
	c := &runConfig{
		seed: seed, seconds: seconds, trace: trace, quick: quick, traceDir: traceDir,
		host:      procStat{path: "/proc/stat"},
		keys:      200_000,
		records:   256 << 10,
		dataSize:  128 << 20,
		backlog:   20_000,
		warmup:    time.Second,
		setups:    3,
		mounts:    3,
		maxIdle:   maxIdle,
		killAfter: 500 * time.Millisecond,
		rungTime:  time.Second,
	}
	if quick {
		c.keys, c.records, c.dataSize, c.backlog = 5_000, 8<<10, 32<<20, 2_000
		c.warmup, c.killAfter, c.rungTime = 200*time.Millisecond, 200*time.Millisecond, 200*time.Millisecond
		c.setups, c.mounts, c.maxIdle = 1, 1, 0
	}
	if trace {
		// setup_s and recover_ms are end-to-end metrics of the
		// measured run; the traced run sets up and mounts once.
		c.setups, c.mounts = 1, 1
	}
	return c
}

// plan splits -seconds into phases. The measured run keeps the design's
// 15:6 latency:capacity proportion; the traced run first spends a fifth
// on an untraced baseline for obs.trace_overhead_frac. Phases are whole
// seconds because windows are.
type plan struct{ baseline, latency, capacity time.Duration }

func (c *runConfig) plan() plan {
	s := c.seconds
	var p plan
	if c.trace {
		b := max(1, s/5)
		p.baseline = time.Duration(b) * time.Second
		s = max(2, s-b)
	}
	l := max(1, (s*5+3)/7)
	p.latency = time.Duration(l) * time.Second
	p.capacity = time.Duration(max(1, s-l)) * time.Second
	return p
}

// budget is the time a workload is expected to need at most: set-ups,
// drills and teardown, plus its phases with room for a retry of each.
// Its watchdog fires at three times this — 165 s at the driver's 10 s,
// inside the driver's own 180 s limit, so a hang is reported with a
// goroutine dump rather than cut off mute.
func (c *runConfig) budget() time.Duration {
	return 25*time.Second + 3*time.Duration(c.seconds)*time.Second
}

// poolOptions are the fixed pool options of the system under test.
func (c *runConfig) poolOptions(threads int, traced bool, replicas int) dudetm.Options {
	sample := -1
	if traced {
		sample = traceSample
	}
	return dudetm.Options{
		DataSize:         c.dataSize,
		Threads:          threads,
		GroupSize:        groupSize,
		Watchdog:         time.Second,
		Timing:           true,
		Latency:          pmem.Latency1000,
		Bandwidth:        pmem.GB,
		TraceSampleEvery: sample,
		ReplFactor:       replicas,
		ReplQuorum:       replicas,
	}
}

// createPool clears the two environment knobs that would silently
// change the pipeline's shape, then creates a pool.
func createPool(o dudetm.Options) (*dudetm.Pool, error) {
	os.Unsetenv("DUDETM_STAGE_THREADS")
	os.Unsetenv("DUDETM_TRACE_SAMPLE")
	return dudetm.Create(o)
}

// node is one served pool: a dudetm.Pool behind a server on loopback.
type node struct {
	pool   *dudetm.Pool
	srv    *server.Server
	addr   string
	served chan error
}

func serve(pool *dudetm.Pool, cfg server.Config) (*node, error) {
	srv, err := server.New(pool, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{pool: pool, srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { n.served <- srv.Serve(ln) }()
	return n, nil
}

// stop drains the server and closes the pool.
func (n *node) stop() error {
	err := n.srv.Shutdown(drainTimeout)
	if e := <-n.served; err == nil {
		err = e
	}
	n.pool.Close()
	return err
}

// timedSink wraps the replication sender to time ShipGroup, which runs
// on the Persist coordinator inside seal(): repl.ship_group_us.
type timedSink struct {
	inner  dudetm.ReplSink
	nanos  atomic.Int64
	groups atomic.Int64
}

func (t *timedSink) ShipGroup(minTid, maxTid uint64, entries []dudetm.Entry) {
	t0 := time.Now()
	t.inner.ShipGroup(minTid, maxTid, entries)
	t.nanos.Add(int64(time.Since(t0)))
	t.groups.Add(1)
}

func (t *timedSink) ShipStats() (rawBytes, wireBytes uint64) { return t.inner.ShipStats() }

// kvRig is the system under test for the kv-* workloads.
type kvRig struct {
	cfg     *runConfig
	shape   kvShape
	opts    dudetm.Options
	ks      *keyspace
	pri     *node
	clients []*server.Client
	killed  bool // the power-failure drill took the primary down

	// Replication, R=1 (nil when unreplicated).
	rep     *node
	rln     net.Listener
	rcv     *repl.Receiver
	rcvDone chan struct{}
	snd     *repl.Sender
	sink    *timedSink
}

// startKV builds the rig and, when asked, preloads the keyspace over
// the wire (the layer ladder's single-key rungs need no preload).
// Replicas are set up exactly as cmd/dudesrv does it — server.New on
// the primary and the replica pool before the sender takes its epoch —
// because a replica pool that skipped the keyspace format sits one
// transaction behind and the sender then reconnects in a hot loop.
func startKV(cfg *runConfig, traced bool, shape kvShape, preload bool) (rig *kvRig, err error) {
	r := &kvRig{cfg: cfg, shape: shape, ks: newKeyspace(cfg.seed, cfg.keys, conns)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	replicas := 0
	if shape.replicated {
		replicas = 1
		rpool, err := createPool(cfg.poolOptions(kvThreads, false, 0))
		if err != nil {
			return nil, err
		}
		if r.rep, err = serve(rpool, server.Config{ReadOnly: true}); err != nil {
			rpool.Close()
			return nil, err
		}
		if r.rln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		r.rcv = repl.NewReceiver(rpool)
		r.rcvDone = make(chan struct{})
		go func() {
			defer close(r.rcvDone)
			if err := r.rcv.Serve(r.rln); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "benchmark: replication receiver: %v\n", err)
			}
		}()
	}
	r.opts = cfg.poolOptions(kvThreads, traced, replicas)
	pool, err := createPool(r.opts)
	if err != nil {
		return nil, err
	}
	if r.pri, err = serve(pool, server.Config{}); err != nil {
		pool.Close()
		return nil, err
	}
	if shape.replicated {
		r.snd = repl.NewSender(pool, repl.Config{Peers: []string{r.rln.Addr().String()}, Epoch: pool.Durable(), Compress: true})
		r.sink = &timedSink{inner: r.snd}
		if err := pool.EnableReplication(r.sink, r.snd.PeerNames()); err != nil {
			return nil, err
		}
		r.snd.Start()
		r.pri.srv.SetReplication(r.snd)
		if !r.snd.WaitConnected(1, 10*time.Second) {
			return nil, errors.New("replica never connected (WaitConnected timeout)")
		}
	}
	for c := 0; c < conns; c++ {
		cl, err := server.Dial(r.pri.addr)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	if preload {
		if err := r.preload(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return r, r.replHealthy()
}

// windowed keeps a closed-loop window of inflight requests on cl. It
// calls next for each request to send — its ops and the handler of its
// response — until next reports false, stop closes, or a send fails (the
// connection is dead; nothing more can go out on it), then waits for the
// outstanding responses, up to the drain timeout. Handlers run on the
// connection's read goroutine; once windowed returns with nothing
// unanswered they have all finished, and what they wrote may be read.
func windowed(cl *server.Client, stop <-chan struct{}, next func() (ops []wire.Op, handle func(*wire.Response, error), ok bool)) (sendErr error, unanswered int) {
	tokens := make(chan struct{}, inflight)
sending:
	for {
		select {
		case <-stop:
			break sending
		case tokens <- struct{}{}:
		}
		ops, handle, ok := next()
		if ok {
			sendErr = cl.GoFn(ops, false, func(resp *wire.Response, err error) {
				handle(resp, err)
				<-tokens
			})
		}
		if !ok || sendErr != nil {
			<-tokens
			break
		}
	}
	deadline := time.After(drainTimeout)
	for i := 0; i < inflight; i++ {
		select {
		case tokens <- struct{}{}:
		case <-deadline:
			return sendErr, inflight - i
		}
	}
	return sendErr, 0
}

// preload writes generation 1 of every key, each connection its own
// keys, in preloadOps-op transactions.
func (r *kvRig) preload() error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := uint64(c)
			var failed error
			sendErr, unanswered := windowed(r.clients[c], nil, func() ([]wire.Op, func(*wire.Response, error), bool) {
				var ops []wire.Op
				for ; key < r.ks.n && len(ops) < preloadOps; key += conns {
					val := make([]byte, valueBytes)
					r.ks.fillValue(val, key, 1)
					ops = append(ops, wire.Op{Kind: wire.OpPut, Key: key, Val: val})
					r.ks.sent[key], r.ks.acked[key] = 1, 1
				}
				return ops, func(_ *wire.Response, err error) {
					if failed == nil {
						failed = err
					}
				}, len(ops) > 0
			})
			switch {
			case sendErr != nil:
				errs[c] = sendErr
			case unanswered > 0:
				errs[c] = fmt.Errorf("%d transactions unanswered at the drain deadline", unanswered)
			default:
				errs[c] = failed
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replHealthy fails fast on the two replication hazards that otherwise
// strand waiters silently: a group too large to frame, and a stream
// that left a gap.
func (r *kvRig) replHealthy() error {
	if r.snd == nil {
		return nil
	}
	if n := r.snd.Stats().OversizeDrops; n > 0 {
		return fmt.Errorf("repl.oversize_drops = %d: a sealed group exceeded wire.MaxPayload and killed the stream", n)
	}
	if n := r.rcv.Stats().Gaps; n > 0 {
		return fmt.Errorf("repl.gaps = %d: the replica reset the stream on a gap", n)
	}
	return nil
}

// close tears the rig down in the order the components require: client
// connections, the primary's drain (which needs replication alive), the
// sender before the primary pool, the receiver before the replica pool.
func (r *kvRig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.clients = nil
	if r.pri != nil && !r.killed {
		if err := r.pri.srv.Shutdown(drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: draining primary: %v\n", err)
		}
		<-r.pri.served
	}
	if r.snd != nil {
		r.snd.Close()
	}
	if r.pri != nil && !r.killed {
		r.pri.pool.Close()
	}
	if r.rln != nil {
		r.rln.Close()
	}
	if r.rcv != nil {
		<-r.rcvDone
		r.rcv.Shutdown()
	}
	if r.rep != nil {
		if err := r.rep.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: stopping replica: %v\n", err)
		}
	}
	r.pri, r.rep, r.snd, r.rcv, r.rln = nil, nil, nil, nil, nil
	// The simulated devices are hundreds of megabytes; return them
	// before the next pool is timed.
	runtime.GC()
}

// snap is one reading of every public Stats() surface plus the
// process's own meters; layer metrics are differences of two.
type snap struct {
	wall       time.Time
	pool       idudetm.Stats
	srv        server.ServerStats
	snd        repl.SenderStats
	rcv        repl.ReceiverStats
	shipNanos  int64
	shipGroups int64
	mem        runtime.MemStats
}

func (r *kvRig) snapshot() snap {
	s := snap{wall: time.Now(), pool: r.pri.pool.Stats(), srv: r.pri.srv.Stats()}
	if r.snd != nil {
		s.snd, s.rcv = r.snd.Stats(), r.rcv.Stats()
		s.shipNanos, s.shipGroups = r.sink.nanos.Load(), r.sink.groups.Load()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// gaugeMax holds the maxima of the gauges the sampler polls.
type gaugeMax struct {
	reproLag     uint64 // Durable - Reproduced
	persistQueue uint64 // sealed-but-unpersisted groups
	backlog      uint64 // server Offered - Served
	replicaLag   uint64 // primary Durable - replica Durable
}

func (g *gaugeMax) observePool(p *dudetm.Pool) {
	st := p.Stats()
	if st.Durable > st.Reproduced {
		g.reproLag = max(g.reproLag, st.Durable-st.Reproduced)
	}
	g.persistQueue = max(g.persistQueue, uint64(st.Persist.QueueDepth))
}

func (r *kvRig) gauges(g *gaugeMax) {
	g.observePool(r.pri.pool)
	if st := r.pri.srv.Stats(); st.Offered > st.Served {
		g.backlog = max(g.backlog, st.Offered-st.Served)
	}
	if r.rep != nil {
		if p, q := r.pri.pool.Durable(), r.rep.pool.Durable(); p > q {
			g.replicaLag = max(g.replicaLag, p-q)
		}
	}
}

func (r *kvRig) pool() *dudetm.Pool { return r.pri.pool }

// settle waits until the pool has reproduced everything committed, so
// a Stats() delta holds whole transactions: log and data traffic both.
func settle(p *dudetm.Pool) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := p.Stats(); st.Reproduced >= st.Clock {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
