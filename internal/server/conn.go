package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"dudetm"
	"dudetm/internal/wire"
)

// conn is one client connection: a reader goroutine that decodes and
// queues requests (pipelining), and a writer goroutine that executes
// them in order and acknowledges. The writer opportunistically batches:
// it executes every request already queued, then parks on the pool's
// durability notifier once for the batch's newest transaction ID — the
// frontier advance that covers it covers the whole batch, and every
// other connection's batch it passed, in the same wake-up.
type conn struct {
	srv *Server
	nc  net.Conn

	closeOnce sync.Once
	closed    chan struct{} // force-close: abandon everything now
	draining  chan struct{} // graceful: finish queued work, then close
	drainOnce sync.Once
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:      s,
		nc:       nc,
		closed:   make(chan struct{}),
		draining: make(chan struct{}),
	}
}

// close severs the connection immediately.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
	})
}

// drain asks the connection to stop reading new requests, finish the
// queued ones, and close. The immediate read deadline kicks the reader
// out of its blocking read.
func (c *conn) drain() {
	c.drainOnce.Do(func() {
		close(c.draining)
		c.nc.SetReadDeadline(time.Now())
	})
}

func (c *conn) serve() {
	defer c.close()
	pending := make(chan wire.Request, maxPipeline)
	go func() {
		defer close(pending)
		c.readLoop(pending)
	}()
	c.writeLoop(pending)
}

// readLoop decodes frames into the pending queue. It owns the read
// deadline: a connection idle past idleTimeout, or one that sends a
// corrupt frame, is closed.
func (c *conn) readLoop(pending chan<- wire.Request) {
	br := bufio.NewReader(c.nc)
	for {
		c.nc.SetReadDeadline(time.Now().Add(idleTimeout))
		payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		q, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		// Offered load is counted at decode, before the pipeline queue:
		// demand the client put on the wire, whether or not execution
		// keeps up.
		c.srv.offered.Add(1)
		select {
		case pending <- q:
		case <-c.closed:
			return
		}
		select {
		case <-c.draining:
			return
		default:
		}
	}
}

// pendingAck is one executed-but-unacknowledged request in a batch.
type pendingAck struct {
	resp    wire.Response
	tid     uint64
	relaxed bool
}

// writeLoop executes queued requests and writes responses. Relaxed
// requests are acknowledged as soon as Perform commits (durable=false
// unless the frontier already passed them); others wait on the pool's
// notifier — once per batch, not once per request. The wait is on the
// acknowledgment frontier, not the local durable one: with replication
// they differ, and a client ack must mean "durable on a quorum". A wait
// that fails soft (quorum lost: the pool heals) fails the batch's strict
// writes and keeps serving; one that fails hard (pool closed or crashed)
// also ends the connection.
func (c *conn) writeLoop(pending <-chan wire.Request) {
	bw := bufio.NewWriter(c.nc)
	var batch []pendingAck
	for {
		q, ok := <-pending
		if !ok {
			return
		}
		batch = batch[:0]
		resp, tid := c.srv.execute(&q)
		batch = append(batch, pendingAck{resp: resp, tid: tid, relaxed: q.Relaxed})
		// Opportunistic batching: execute everything else already
		// queued before waiting for durability.
	gather:
		for {
			select {
			case q, ok := <-pending:
				if !ok {
					break gather
				}
				resp, tid := c.srv.execute(&q)
				batch = append(batch, pendingAck{resp: resp, tid: tid, relaxed: q.Relaxed})
			default:
				break gather
			}
		}
		// The newest strict transaction ID covers the whole batch.
		var waitTid uint64
		for i := range batch {
			if !batch[i].relaxed && batch[i].tid > waitTid {
				waitTid = batch[i].tid
			}
		}
		var ackErr error
		if waitTid != 0 {
			select {
			case ackErr = <-c.srv.pool.WaitDurableChan(waitTid):
			case <-c.closed:
				return
			}
		}
		frontier := c.srv.pool.AckFrontier()
		// One deadline bounds every socket write of the batch and its
		// flush: setting it takes the runtime's timer lock, too dear
		// once per response.
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		for i := range batch {
			p := &batch[i]
			if p.tid != 0 {
				if ackErr != nil && !p.relaxed {
					p.resp.Status = wire.StatusErr
					p.resp.Err = ackErr.Error()
					p.resp.Results = nil
					c.srv.failedAcks.Add(1)
				} else {
					p.resp.Durable = p.tid <= frontier
					if p.resp.Durable {
						c.srv.ackedWrites.Add(1)
					}
				}
			}
			if !c.writeResponse(bw, &p.resp) {
				return
			}
		}
		if bw.Flush() != nil {
			return
		}
		if ackErr != nil && !errors.Is(ackErr, dudetm.ErrQuorumLost) {
			return
		}
	}
}

func (c *conn) writeResponse(bw *bufio.Writer, resp *wire.Response) bool {
	payload, err := wire.AppendResponse(nil, resp)
	if err != nil {
		// Response exceeds protocol limits (it was built from decoded
		// requests, so this is a server bug); drop the connection
		// rather than desynchronize the stream.
		return false
	}
	if wire.WriteFrame(bw, payload) != nil {
		return false
	}
	c.srv.served.Add(1)
	return true
}
