package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"dudetm/internal/wire"
)

// ErrClientClosed is returned by calls on a closed client (including
// in-flight calls whose connection died).
var ErrClientClosed = errors.New("server: client closed")

// Client is a pipelined wire-protocol client. All methods are safe for
// concurrent use; concurrent calls share one connection and are
// answered by request ID, so many transactions ride the same
// group-commit window on the server side. A call encodes its request
// into the connection's out queue and returns; one writer goroutine
// writes whatever has queued with one socket write, so no caller ever
// blocks on the socket.
type Client struct {
	nc net.Conn

	mu      sync.Mutex
	pending map[uint64]pendingCall
	nextID  uint64
	err     error         // set once the connection dies
	out     []byte        // framed requests queued for writeLoop
	scratch []byte        // request payload being encoded
	kick    chan struct{} // 1-slot: out went non-empty; closed by fail
}

// pendingCall is one in-flight request: either a Future's response
// channel or a completion callback (GoFn), never both.
type pendingCall struct {
	ch chan wire.Response
	fn func(*wire.Response, error)
}

// Dial connects to a dudesrv server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:      nc,
		pending: make(map[uint64]pendingCall),
		kick:    make(chan struct{}, 1),
	}
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// writeLoop writes the out queue: each kick takes everything queued
// since the last write (swapping buffers, so neither side allocates in
// steady state) and writes it with one socket write. A write error
// fails the client, which delivers the connection error to every call
// still pending — the queued ones included — exactly once.
func (c *Client) writeLoop() {
	var buf []byte
	for range c.kick {
		c.mu.Lock()
		buf, c.out = c.out, buf[:0]
		c.mu.Unlock()
		if len(buf) == 0 {
			continue
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
	}
}

// Close tears the connection down; in-flight calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.nc.Close()
}

func (c *Client) readLoop() {
	br := bufio.NewReader(c.nc)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			c.fail(fmt.Errorf("server: protocol error: %w", err))
			return
		}
		c.mu.Lock()
		call, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			continue
		}
		if call.fn != nil {
			// Callback path: invoked on the read loop at response
			// arrival, so completion timestamps taken inside fn are
			// arrival times, not reaper-scheduling times. fn must be
			// fast (counters, histogram observes).
			if resp.Status != wire.StatusOK {
				call.fn(nil, fmt.Errorf("server: %s", resp.Err))
			} else {
				call.fn(&resp, nil)
			}
			continue
		}
		call.ch <- resp
	}
}

// fail marks the client dead and unblocks every in-flight call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	victims := c.pending
	c.pending = nil
	c.out = nil
	// Under mu, so no send can kick after the close.
	close(c.kick)
	c.mu.Unlock()
	c.nc.Close()
	for _, call := range victims {
		if call.fn != nil {
			call.fn(nil, err)
			continue
		}
		close(call.ch) // receivers translate a closed channel into c.err
	}
}

// Future is an in-flight pipelined request.
type Future struct {
	c  *Client
	ch chan wire.Response
}

// Wait blocks for the response. A response with StatusErr becomes an
// error; a dead connection yields the connection error.
func (f *Future) Wait() (*wire.Response, error) {
	resp, ok := <-f.ch
	if !ok {
		f.c.mu.Lock()
		err := f.c.err
		f.c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("server: %s", resp.Err)
	}
	return &resp, nil
}

// Go sends one request (a transaction of ops) without waiting for the
// response — the heart of pipelining: many Go calls may be in flight
// and the server batches their durability waits.
func (c *Client) Go(ops []wire.Op, relaxed bool) (*Future, error) {
	ch := make(chan wire.Response, 1)
	if err := c.send(ops, relaxed, pendingCall{ch: ch}); err != nil {
		return nil, err
	}
	return &Future{c: c, ch: ch}, nil
}

// GoFn sends one request and invokes fn exactly once when the response
// arrives (on the connection's read goroutine) or when the connection
// dies (fn receives the connection error). GoFn returns once the
// request is encoded and queued; a write failure after that reaches fn
// as the connection error, exactly once. An error returned by GoFn
// itself (a dead client, an unencodable request) means fn is never
// called. Open-loop load generation uses this form: completion
// timestamps are taken at response arrival with no per-request
// goroutine, so tens of thousands of requests can be in flight. fn
// must not block.
func (c *Client) GoFn(ops []wire.Op, relaxed bool, fn func(*wire.Response, error)) error {
	if fn == nil {
		return errors.New("server: GoFn requires a callback")
	}
	return c.send(ops, relaxed, pendingCall{fn: fn})
}

// send encodes one request frame onto the out queue and registers its
// pending call, kicking the writer when the queue was empty.
func (c *Client) send(ops []wire.Op, relaxed bool, call pendingCall) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	payload, err := wire.AppendRequest(c.scratch[:0], &wire.Request{ID: c.nextID + 1, Relaxed: relaxed, Ops: ops})
	c.scratch = payload
	if err != nil {
		return err
	}
	if len(payload) > wire.MaxPayload {
		return wire.ErrFrameTooBig
	}
	c.nextID++
	c.pending[c.nextID] = call
	if len(c.out) == 0 {
		select {
		case c.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
	c.out = wire.AppendFrame(c.out, payload)
	return nil
}

// Do sends one request and waits for its response.
func (c *Client) Do(ops []wire.Op, relaxed bool) (*wire.Response, error) {
	f, err := c.Go(ops, relaxed)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// Get fetches the value under key.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	resp, err := c.Do([]wire.Op{{Kind: wire.OpGet, Key: key}}, false)
	if err != nil {
		return nil, false, err
	}
	return resp.Results[0].Val, resp.Results[0].Found, nil
}

// Put durably stores val under key; it returns once the server has
// acknowledged the write as durable.
func (c *Client) Put(key uint64, val []byte) error {
	_, err := c.Do([]wire.Op{{Kind: wire.OpPut, Key: key, Val: val}}, false)
	return err
}

// PutRelaxed stores val under key with a fast acknowledgment: the
// server replies after Perform, and the response's Durable flag reports
// whether the durable frontier had already passed the write.
func (c *Client) PutRelaxed(key uint64, val []byte) (durable bool, err error) {
	resp, err := c.Do([]wire.Op{{Kind: wire.OpPut, Key: key, Val: val}}, true)
	if err != nil {
		return false, err
	}
	return resp.Durable, nil
}

// Delete durably removes key, reporting whether it existed.
func (c *Client) Delete(key uint64) (bool, error) {
	resp, err := c.Do([]wire.Op{{Kind: wire.OpDelete, Key: key}}, false)
	if err != nil {
		return false, err
	}
	return resp.Results[0].Found, nil
}

// Scan returns up to limit pairs with from <= key < to (to == 0 means
// unbounded, limit == 0 means the protocol maximum).
func (c *Client) Scan(from, to uint64, limit uint32) ([]wire.KV, error) {
	resp, err := c.Do([]wire.Op{{Kind: wire.OpScan, Key: from, ScanTo: to, ScanLimit: limit}}, false)
	if err != nil {
		return nil, err
	}
	return resp.Results[0].Pairs, nil
}

// Txn executes ops as one atomic durable transaction.
func (c *Client) Txn(ops ...wire.Op) (*wire.Response, error) {
	return c.Do(ops, false)
}
