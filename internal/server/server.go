package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dudetm"
	"dudetm/internal/repl"
	"dudetm/internal/wire"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// MaxConns caps concurrent connections (default 64). When the cap
	// is reached the server stops accepting — pending dialers queue in
	// the listen backlog (backpressure) instead of being reset.
	MaxConns int
	// ReadOnly rejects write requests. Replica-mode servers set it:
	// a replica's transaction ID stream is owned by the primary's
	// replicated log, so a locally committed write would collide with
	// the next ingested group.
	ReadOnly bool
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	return c
}

const (
	// maxPipeline caps in-flight requests per connection; beyond it the
	// server stops reading the connection and TCP flow control pushes
	// back on the client.
	maxPipeline = 32
	// idleTimeout closes a connection with no complete request for this
	// long.
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds writing one batch of responses, flush included.
	writeTimeout = 10 * time.Second
)

// ServerStats is a snapshot of service counters.
type ServerStats struct {
	// Conns is the number of connections accepted so far.
	Conns uint64
	// Requests is the number of requests executed.
	Requests uint64
	// AckedWrites is the number of write transactions acknowledged
	// durable to clients.
	AckedWrites uint64
	// Offered is the number of requests decoded off the wire — demand
	// as the server saw it, counted before execution or any queueing.
	Offered uint64
	// Served is the number of responses written back. Offered minus
	// Served is the in-server backlog; an open-loop generator's
	// offered/served rates come from deltas of these two counters.
	Served uint64
	// FailedAcks is the number of strict (non-relaxed) writes answered
	// with an error because their durability wait failed: quorum lost,
	// or the pool closed or crashed first.
	FailedAcks uint64
	// Notifier is the group-commit acknowledgment activity, counted by
	// the pool's durability notifier that connections park on.
	Notifier NotifierStats
}

// NotifierStats is the pool notifier's group-commit release counters.
type NotifierStats = dudetm.NotifierStats

// Server serves the wire protocol over a dudetm.Pool.
type Server struct {
	pool    *dudetm.Pool
	store   *store
	cfg     Config
	replSnd *repl.Sender // nil unless this node replicates outward

	// slots holds the pool's Update/View slot tokens; an executing
	// request borrows one for the duration of its transaction.
	slots chan int

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	// connSem bounds concurrent connections; Serve acquires before
	// Accept, so overload manifests as accept backpressure.
	connSem chan struct{}

	draining atomic.Bool
	dead     atomic.Bool

	connWG sync.WaitGroup

	acceptedConns atomic.Uint64
	requests      atomic.Uint64
	ackedWrites   atomic.Uint64
	failedAcks    atomic.Uint64
	offered       atomic.Uint64
	served        atomic.Uint64
}

// New builds a server over an already-mounted pool, formatting the
// keyspace if the pool is fresh. The caller keeps ownership of the
// pool: after Shutdown it may snapshot and close it.
func New(pool *dudetm.Pool, cfg Config) (*Server, error) {
	st, err := openStore(pool)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		pool:    pool,
		store:   st,
		cfg:     cfg,
		conns:   make(map[*conn]struct{}),
		connSem: make(chan struct{}, cfg.MaxConns),
		slots:   make(chan int, pool.Threads()),
	}
	for i := 0; i < pool.Threads(); i++ {
		s.slots <- i
	}
	return s, nil
}

// SetReplication attaches the log-shipping sender so the metrics
// endpoint can report transport activity (connections, shipped bytes,
// ack latency) alongside the pool's quorum gate. Call before Serve.
func (s *Server) SetReplication(snd *repl.Sender) { s.replSnd = snd }

// Serve accepts connections on ln until Shutdown or Kill. It returns
// nil on orderly shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		s.connSem <- struct{}{}
		nc, err := ln.Accept()
		if err != nil {
			<-s.connSem
			if s.draining.Load() || s.dead.Load() {
				return nil
			}
			return err
		}
		s.acceptedConns.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining.Load() || s.dead.Load() {
			s.mu.Unlock()
			nc.Close()
			<-s.connSem
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			<-s.connSem
		}()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// errDraining rejects requests that race a graceful shutdown.
var errDraining = errors.New("server draining")

// execute runs one request as one transaction and returns the response
// plus, for write transactions, the commit ID the caller must see pass
// the durable frontier before acknowledging durability.
func (s *Server) execute(q *wire.Request) (wire.Response, uint64) {
	resp := wire.Response{ID: q.ID}
	if s.dead.Load() {
		resp.Status = wire.StatusErr
		resp.Err = "server crashed"
		return resp, 0
	}
	s.requests.Add(1)
	if s.cfg.ReadOnly && writes(q) {
		resp.Status = wire.StatusErr
		resp.Err = "replica is read-only"
		return resp, 0
	}
	slot := <-s.slots
	var results []wire.OpResult
	var tid uint64
	var err error
	if writes(q) {
		tid, err = s.pool.Update(slot, func(tx *dudetm.Tx) error {
			results, err = s.store.apply(tx, q)
			return err
		})
	} else {
		err = s.pool.View(slot, func(tx *dudetm.Tx) error {
			results, err = s.store.apply(tx, q)
			return err
		})
	}
	s.slots <- slot
	if err != nil {
		resp.Status = wire.StatusErr
		resp.Err = err.Error()
		return resp, 0
	}
	resp.Results = results
	resp.Tid = tid
	return resp, tid
}

// Shutdown drains the server gracefully: stop accepting, let every
// connection finish its in-flight requests, then wait for the durable
// frontier to cover the commit clock — with every connection gone, no
// handed-out transaction ID is beyond it — so that a snapshot taken
// afterwards contains every acknowledged write. A read-only replica
// hands out no IDs (its clock is the primary's) and skips the wait. The
// timeout bounds the connection drain; connections still busy after it
// are closed forcibly.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.closeListener()
	s.mu.Lock()
	for c := range s.conns {
		c.drain()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.closeConns()
		<-done
	}
	if s.cfg.ReadOnly {
		return nil
	}
	if err := s.pool.WaitDurable(s.pool.Stats().Clock); err != nil {
		return fmt.Errorf("server: draining durability: %w", err)
	}
	return nil
}

// Kill simulates a power failure mid-service: connections are severed
// where they are, in-flight transactions finish Perform but anything
// the durable frontier has not passed is lost, and the pool's crash
// image is returned for remounting. Every write the server acknowledged
// as durable is, by construction, in the image.
func (s *Server) Kill() []byte {
	if s.dead.Swap(true) {
		panic("server: Kill on dead server")
	}
	s.closeListener()
	s.closeConns()
	s.connWG.Wait()
	return s.pool.Crash()
}

func (s *Server) closeListener() {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.close()
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of service counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:       s.acceptedConns.Load(),
		Requests:    s.requests.Load(),
		AckedWrites: s.ackedWrites.Load(),
		FailedAcks:  s.failedAcks.Load(),
		Offered:     s.offered.Load(),
		Served:      s.served.Load(),
		Notifier:    s.pool.NotifierStats(),
	}
}
