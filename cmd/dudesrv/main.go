// dudesrv serves the durable key-value store over TCP.
//
// The pool lives in simulated NVM; -image names the pool image file.
// If it exists the server mounts it with crash recovery (so a kill -9
// followed by a restart preserves every write acknowledged durable); on
// graceful shutdown (SIGINT/SIGTERM) the server drains connections,
// waits for the durable frontier, and writes the image back.
//
// With -metrics the server also serves a live observability endpoint:
// Prometheus text on /metrics, lifecycle traces on /debug/trace, the
// last watchdog stall report on /debug/stall, and pprof profiles under
// /debug/pprof/. `dudectl top` renders it as a live pipeline view.
//
// Usage:
//
//	dudesrv -addr :7070 -image /tmp/dude.img -group 64 -metrics 127.0.0.1:7071
//
// A quick smoke run, with the bundled load generator:
//
//	go run ./cmd/dudesrv -addr 127.0.0.1:7070 -image /tmp/dude.img &
//	go run ./examples/netbank -addr 127.0.0.1:7070
//
// Replication: a primary ships every sealed persist group to peer
// dudesrv nodes running in replica mode and gates client durability
// acks on a quorum of replica acknowledgments. A replica serves its
// replication address plus read-only client traffic; to take over
// after a primary failure, restart the replica with the same image
// and no -replica flag. Three-node quick start (see README):
//
//	dudesrv -addr :7170 -replica :7180 -image r1.img &
//	dudesrv -addr :7270 -replica :7280 -image r2.img &
//	dudesrv -addr :7070 -image pri.img -peers 127.0.0.1:7180,127.0.0.1:7280 -repl-quorum 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dudetm"
	"dudetm/internal/repl"
	"dudetm/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		image     = flag.String("image", "", "pool image file (mounted if present, written on shutdown; empty = volatile run)")
		dataMiB   = flag.Int("data", 64, "persistent data region size in MiB (fresh pools)")
		threads   = flag.Int("threads", 4, "pool execution slots (fresh pools)")
		group     = flag.Int("group", 64, "transactions per persist group (group commit width)")
		sync      = flag.Bool("sync", false, "synchronous durability (one fence per transaction; defeats group commit)")
		maxConns  = flag.Int("max-conns", 64, "concurrent connection cap (excess dialers queue)")
		drainTime = flag.Duration("drain", 30*time.Second, "graceful-shutdown connection drain timeout")
		metrics   = flag.String("metrics", "", "HTTP observability listen address serving /metrics, /debug/trace and /debug/pprof/ (empty = disabled)")
		traceN    = flag.Int("trace-sample", 64, "trace the lifecycle of every N-th transaction (0 = off)")
		watchdog  = flag.Duration("watchdog", time.Second, "pipeline stall watchdog sampling interval (0 = off)")

		replica  = flag.String("replica", "", "replication listen address: run as a replica ingesting a primary's persist log (client port becomes read-only)")
		peers    = flag.String("peers", "", "comma-separated replica replication addresses to ship the persist log to")
		quorum   = flag.Int("repl-quorum", 0, "replica acks required before client writes are acknowledged durable (0 = all peers)")
		degraded = flag.String("repl-degraded", "fail", "when the ack quorum is lost: 'fail' (durability waits error) or 'local' (fall back to local-only acks)")
	)
	flag.Parse()

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	if *replica != "" && len(peerList) > 0 {
		log.Fatal("dudesrv: -replica and -peers are mutually exclusive (a node is a primary or a replica, not both)")
	}
	switch *degraded {
	case "fail", "local":
	default:
		log.Fatalf("dudesrv: -repl-degraded %q: want 'fail' or 'local'", *degraded)
	}

	opts := dudetm.Options{
		DataSize:         uint64(*dataMiB) << 20,
		Threads:          *threads,
		GroupSize:        *group,
		Sync:             *sync,
		TraceSampleEvery: *traceN,
		Watchdog:         *watchdog,
		ReplFactor:       len(peerList),
		ReplQuorum:       *quorum,
		ReplDegradeLocal: *degraded == "local",
	}
	var pool *dudetm.Pool
	var err error
	if *image != "" {
		if _, statErr := os.Stat(*image); statErr == nil {
			pool, err = dudetm.OpenImage(*image, opts)
			if err != nil {
				log.Fatalf("dudesrv: mounting %s: %v", *image, err)
			}
			rec := pool.Stats().Recovery
			log.Printf("dudesrv: recovered %s (durable id %d): scanned %d logs in %s, replayed %d groups / %d entries / %d bytes in %s, recycle %s",
				*image, pool.Durable(), rec.LogsScanned, time.Duration(rec.ScanNanos),
				rec.GroupsReplayed, rec.EntriesReplayed, rec.BytesReplayed,
				time.Duration(rec.ReplayNanos), time.Duration(rec.RecycleNanos))
			if r := rec.Report; r != nil {
				log.Printf("dudesrv: crash report: log frontier %d, %d in-flight fence(s), %d torn recorder slot(s), %d torn log(s)",
					r.LogFrontier, len(r.InFlightFences),
					r.TornBlackboxSlots, r.TornLogs)
			}
		}
	}
	if pool == nil {
		pool, err = dudetm.Create(opts)
		if err != nil {
			log.Fatalf("dudesrv: creating pool: %v", err)
		}
		log.Printf("dudesrv: fresh pool (%d MiB, group %d)", *dataMiB, *group)
	}

	srv, err := server.New(pool, server.Config{MaxConns: *maxConns, ReadOnly: *replica != ""})
	if err != nil {
		log.Fatalf("dudesrv: %v", err)
	}

	// Replica mode: ingest a primary's persist-log stream. The sender
	// reconnects with backoff and the handshake re-acks the local
	// frontier, so a replica restarted on its image catches up from
	// where it left off.
	var rcv *repl.Receiver
	var rln net.Listener
	if *replica != "" {
		rln, err = net.Listen("tcp", *replica)
		if err != nil {
			log.Fatalf("dudesrv: replication listener: %v", err)
		}
		rcv = repl.NewReceiver(pool)
		go func() {
			if err := rcv.Serve(rln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("dudesrv: replication: %v", err)
			}
		}()
		log.Printf("dudesrv: replica mode: ingesting replication on %s (client port is read-only)", rln.Addr())
	}

	// Primary with peers: ship each sealed group, gate acks on the quorum.
	var snd *repl.Sender
	if len(peerList) > 0 {
		snd = repl.NewSender(pool, repl.Config{Peers: peerList, Epoch: pool.Durable(), Compress: true})
		if err := pool.EnableReplication(snd, snd.PeerNames()); err != nil {
			log.Fatalf("dudesrv: enabling replication: %v", err)
		}
		snd.Start()
		srv.SetReplication(snd)
		q := *quorum
		if q == 0 {
			q = len(peerList)
		}
		log.Printf("dudesrv: replicating to %d peer(s), quorum %d, on quorum loss: %s", len(peerList), q, *degraded)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dudesrv: %v", err)
	}
	log.Printf("dudesrv: listening on %s", ln.Addr())

	var msrv *http.Server
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("dudesrv: metrics listener: %v", err)
		}
		msrv = &http.Server{Handler: srv.DebugHandler()}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("dudesrv: metrics: %v", err)
			}
		}()
		log.Printf("dudesrv: metrics on http://%s/metrics", mln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("dudesrv: %s: draining", sig)
		if err := srv.Shutdown(*drainTime); err != nil {
			log.Printf("dudesrv: drain: %v", err)
		}
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatalf("dudesrv: serve: %v", err)
	}

	// Serve returned: the drain is complete. Quiesce the pool and write
	// the image so the next start recovers every acknowledged write.
	// Replication teardown first — ingest and shipping must never race
	// the pool close.
	if rcv != nil {
		rln.Close()
		rcv.Shutdown()
		log.Printf("dudesrv: replication ingest stopped at durable id %d", pool.Durable())
	}
	if snd != nil {
		snd.Close()
	}
	if msrv != nil {
		msrv.Close()
	}
	st := srv.Stats()
	pst := pool.Stats()
	pool.Close()
	if *image != "" {
		if err := pool.SaveImage(*image); err != nil {
			log.Fatalf("dudesrv: saving %s: %v", *image, err)
		}
		log.Printf("dudesrv: image saved to %s (durable id %d)", *image, pool.Durable())
	}
	fmt.Printf("dudesrv: served %d conns, %d requests, %d durable writes acked; %d persist fences (%.1f acks/fence); notifier: %d wakeups released %d waiters (max batch %d)\n",
		st.Conns, st.Requests, st.AckedWrites, pst.Device.Fences,
		acksPerFence(st.AckedWrites, pst.Device.Fences),
		st.Notifier.Wakeups, st.Notifier.Released, st.Notifier.MaxBatch)
}

func acksPerFence(acks, fences uint64) float64 {
	if fences == 0 {
		return 0
	}
	return float64(acks) / float64(fences)
}
