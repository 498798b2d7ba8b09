package server

import (
	"sync/atomic"
	"testing"
	"time"

	"dudetm"
	"dudetm/internal/wire"
)

// TestGoFnCallbackOnceWhenServerDies kills the server under a pipelined
// GoFn stream. Every GoFn that returned nil must see its callback fire
// exactly once — with the response or with the connection error,
// whether its frame was answered, written but unanswered, or still
// queued for the writer — and a GoFn that returned an error never.
func TestGoFnCallbackOnceWhenServerDies(t *testing.T) {
	srv, _, addr := startServer(t, dudetm.Options{GroupSize: 16}, Config{})
	c := dial(t, addr)
	defer c.Close()

	const max = 1 << 20
	fired := new([max]atomic.Int32)
	var accepted, callbacks atomic.Int64
	killed := make(chan struct{})
	sent := 0
	go func() {
		for accepted.Load() < 2000 {
			time.Sleep(100 * time.Microsecond)
		}
		srv.Kill()
		close(killed)
	}()
	for ; sent < max; sent++ {
		i := sent
		err := c.GoFn([]wire.Op{{Kind: wire.OpPut, Key: uint64(i % 512), Val: []byte("v")}}, false,
			func(_ *wire.Response, _ error) {
				fired[i].Add(1)
				callbacks.Add(1)
			})
		if err != nil {
			break
		}
		accepted.Add(1)
	}
	if sent == max {
		t.Fatalf("%d requests queued and the client never saw the server die", max)
	}
	<-killed
	waitFor := time.Now().Add(5 * time.Second)
	for callbacks.Load() < accepted.Load() && time.Now().Before(waitFor) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a double delivery to show
	for i := 0; i < sent; i++ {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("request %d of %d accepted: callback fired %d times, want once", i, sent, n)
		}
	}
	if n := fired[sent].Load(); n != 0 {
		t.Fatalf("the rejected GoFn's callback fired %d times", n)
	}
}
