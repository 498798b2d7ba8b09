// Netbank: concurrent bank transfers against a dudesrv server, with a
// mid-load power failure.
//
// By default the example is self-contained: it starts an in-process
// server over a fresh pool, runs 16 client connections transferring
// money between 64 accounts as multi-op durable transactions, then
// pulls the plug (simulated power failure), remounts the crash image,
// and checks the two invariants a durable KV service owes its clients:
//
//   - conservation: the recovered balances sum to exactly the initial
//     total (no transfer was ever half-applied), and
//   - durability: every transfer acknowledged as durable before the
//     crash is reflected in the recovered generation counters.
//
// It also prints the group-commit evidence: far fewer persist fences
// than durably acknowledged transactions.
//
// With -addr it instead drives an external dudesrv (no crash drill).
//
// With -replicas N the drill runs replicated: the in-process primary
// ships its persist log to N in-process replicas and acknowledges a
// transfer only after a full quorum of replica acks. The power failure
// then kills the PRIMARY (pool, server, sender — everything), and the
// invariants are checked on a promoted replica's crash image: if the
// quorum gate is honest, every acknowledged transfer is in it.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"dudetm"
	"dudetm/internal/repl"
	"dudetm/internal/server"
	"dudetm/internal/wire"
)

const (
	accounts  = 64
	initial   = 1000
	conns     = 16
	transfers = 100 // per connection
)

func main() {
	external := flag.String("addr", "", "drive an external dudesrv at this address instead of the in-process drill")
	crashImage := flag.String("crash-image", "", "write the pre-recovery crash image to this file (inspect it with dudectl forensics)")
	replicas := flag.Int("replicas", 0, "run the drill replicated: ship the persist log to this many in-process replicas (quorum = all), kill the primary, recover on a promoted replica")
	flag.Parse()
	if *replicas > 0 && *external == "" {
		runReplicated(*replicas, *crashImage)
		return
	}
	if *external != "" {
		c, err := server.Dial(*external)
		if err != nil {
			log.Fatal(err)
		}
		for a := uint64(0); a < accounts; a++ {
			if err := c.Put(a, account(initial, 0)); err != nil {
				log.Fatal(err)
			}
		}
		c.Close()
		run(*external, nil, nil)
		fmt.Printf("netbank: %d connections completed %d transfers each against %s\n", conns, transfers, *external)
		return
	}

	opts := dudetm.Options{DataSize: 16 << 20, Threads: 4, GroupSize: 64}
	pool, err := dudetm.Create(opts)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(pool, server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)

	// Seed every account durably before the clock starts: the
	// conservation check needs the initial total in the image.
	seeder, err := server.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	for a := uint64(0); a < accounts; a++ {
		if err := seeder.Put(a, account(initial, 0)); err != nil {
			log.Fatal(err)
		}
	}
	seeder.Close()

	// Record the newest durably acknowledged generation per account
	// pair; the recovered store must be at least this new.
	var mu sync.Mutex
	ackedGen := make(map[uint64]uint64)
	acked := 0
	var maxTid uint64
	crash := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(crash)
	}()
	run(ln.Addr().String(), crash, func(key, gen, tid uint64) {
		mu.Lock()
		if gen > ackedGen[key] {
			ackedGen[key] = gen
		}
		if tid > maxTid {
			maxTid = tid
		}
		acked++
		mu.Unlock()
	})

	img := srv.Kill() // power failure: unpersisted state is gone
	st := srv.Stats()
	fences := pool.Stats().Device.Fences
	fmt.Printf("crash after %d acked transfers; %d fences for %d durable acks; notifier max batch %d\n",
		acked, fences, st.AckedWrites, st.Notifier.MaxBatch)
	if *crashImage != "" {
		if err := writeFile(*crashImage, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("crash image written to %s\n", *crashImage)
	}

	checkRecovered(img, opts, maxTid, ackedGen)
}

// checkRecovered remounts a crash image with recovery and holds it to
// the two client invariants: the online durability audit (the
// recovered frontier covers every acknowledged transaction, with the
// forensic crash report on failure), conservation of the total
// balance, and presence of every durably acknowledged generation.
func checkRecovered(img []byte, opts dudetm.Options, maxTid uint64, ackedGen map[uint64]uint64) {
	pool2, err := dudetm.OpenSnapshot(img, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer pool2.Close()
	if err := pool2.AuditRecovery(maxTid); err != nil {
		log.Fatalf("durability audit: %v", err)
	}
	srv2, err := server.New(pool2, server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Shutdown(5 * time.Second)

	c, err := server.Dial(ln2.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	total := uint64(0)
	for a := uint64(0); a < accounts; a++ {
		v, found, err := c.Get(a)
		if err != nil {
			log.Fatal(err)
		}
		if found {
			total += binary.LittleEndian.Uint64(v[:8])
		}
	}
	if total != accounts*initial {
		log.Fatalf("conservation violated: recovered total %d, want %d", total, accounts*initial)
	}
	lost := 0
	for key, gen := range ackedGen {
		v, found, err := c.Get(key)
		if err != nil {
			log.Fatal(err)
		}
		if !found || binary.LittleEndian.Uint64(v[8:16]) < gen {
			lost++
		}
	}
	if lost > 0 {
		log.Fatalf("durability violated: %d acknowledged transfers missing after recovery", lost)
	}
	fmt.Printf("recovered: %d accounts sum to %d; all %d acknowledged generations present\n",
		accounts, total, len(ackedGen))
}

// replicaNode is one in-process replica: its own pool in its own
// simulated NVM, fed only by the primary's replication stream.
type replicaNode struct {
	pool *dudetm.Pool
	rcv  *repl.Receiver
	ln   net.Listener
	done chan struct{}
}

// stopIngest halts replication into the node before the pool is
// touched — promotion and teardown both require it.
func (n *replicaNode) stopIngest() {
	n.ln.Close()
	<-n.done
	n.rcv.Shutdown()
}

// runReplicated is the replicated crash drill: one primary shipping
// its persist log to n replicas at quorum n, the primary killed
// mid-load, recovery and the client invariants checked on the
// promoted replica's crash image.
func runReplicated(n int, crashImage string) {
	opts := dudetm.Options{DataSize: 16 << 20, Threads: 4, GroupSize: 64,
		ReplFactor: n, ReplQuorum: n}

	// Replicas are created with the same options as the primary so the
	// pool-format transaction occupies the same tid prefix on both
	// sides; the shipped copy of it arrives as a dedupe.
	nodes := make([]*replicaNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		rp, err := dudetm.Create(opts)
		if err != nil {
			log.Fatal(err)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		nd := &replicaNode{pool: rp, rcv: repl.NewReceiver(rp), ln: rln, done: make(chan struct{})}
		go func() {
			defer close(nd.done)
			nd.rcv.Serve(nd.ln)
		}()
		nodes[i] = nd
		addrs[i] = rln.Addr().String()
	}

	pri, err := dudetm.Create(opts)
	if err != nil {
		log.Fatal(err)
	}
	snd := repl.NewSender(pri, repl.Config{Peers: addrs, Epoch: pri.Durable(), Compress: true})
	if err := pri.EnableReplication(snd, snd.PeerNames()); err != nil {
		log.Fatal(err)
	}
	snd.Start()
	srv, err := server.New(pri, server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	srv.SetReplication(snd)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	if !snd.WaitConnected(n, 10*time.Second) {
		log.Fatal("replicas never connected")
	}

	seeder, err := server.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	for a := uint64(0); a < accounts; a++ {
		if err := seeder.Put(a, account(initial, 0)); err != nil {
			log.Fatal(err)
		}
	}
	seeder.Close()

	var mu sync.Mutex
	ackedGen := make(map[uint64]uint64)
	acked := 0
	var maxTid uint64
	crash := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(crash)
	}()
	run(ln.Addr().String(), crash, func(key, gen, tid uint64) {
		mu.Lock()
		if gen > ackedGen[key] {
			ackedGen[key] = gen
		}
		if tid > maxTid {
			maxTid = tid
		}
		acked++
		mu.Unlock()
	})

	// Kill the PRIMARY — pool, server and sender all die; its image is
	// deliberately discarded. The replicas are the only survivors.
	// (Sender first: pool teardown joins the Persist coordinator, which
	// a full peer queue could otherwise backpressure-block forever.)
	snd.Close()
	srv.Kill()
	sst := snd.Stats()
	ratio := 1.0
	if sst.WireBytes > 0 {
		ratio = float64(sst.RawBytes) / float64(sst.WireBytes)
	}
	fmt.Printf("primary killed after %d acked transfers (quorum %d/%d); shipped %d groups, %.2fx compression, ack p99 %s\n",
		acked, n, n, sst.GroupsShipped, ratio,
		time.Duration(sst.AckLatency.Quantile(0.99)))

	// Promotion rule: the replica with the largest durable frontier
	// takes over. Power-fail it too — the takeover must work from its
	// raw crash image, not a graceful shutdown.
	for _, nd := range nodes {
		nd.stopIngest()
	}
	promoted := nodes[0]
	for _, nd := range nodes[1:] {
		if nd.pool.Durable() > promoted.pool.Durable() {
			promoted = nd
		}
	}
	fmt.Printf("promoting replica at durable id %d (acked frontier was %d)\n",
		promoted.pool.Durable(), maxTid)
	if promoted.pool.Durable() < maxTid {
		log.Fatalf("promotion: best replica frontier %d < acked %d — quorum gate lied", promoted.pool.Durable(), maxTid)
	}
	for _, nd := range nodes {
		if nd != promoted {
			nd.pool.Close()
		}
	}
	img := promoted.pool.Crash()
	if crashImage != "" {
		if err := writeFile(crashImage, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("promoted replica's crash image written to %s\n", crashImage)
	}
	ropts := opts
	ropts.ReplFactor, ropts.ReplQuorum = 0, 0
	checkRecovered(img, ropts, maxTid, ackedGen)
}

// run drives transfer traffic until each connection completes its quota
// or the crash channel fires. Each account's value is [balance u64,
// generation u64]; a transfer is one atomic 2-account transaction, and
// onAck records only transfers the server acknowledged durable, along
// with the acknowledged transaction ID.
func run(addr string, crash <-chan struct{}, onAck func(key, gen, tid uint64)) {
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			// Transfers stay within this connection's slice of the
			// accounts: the read and the write are separate requests, so
			// cross-connection writes to the same account would race.
			// (Group commit still batches across connections — that
			// happens at the durability layer, not the keyspace.)
			owned := accounts / conns
			for i := 0; i < transfers; i++ {
				select {
				case <-crash:
					return
				default:
				}
				src := uint64(w + (i%owned)*conns)
				dst := uint64(w + ((i+1+i/owned)%owned)*conns)
				if src == dst {
					continue
				}
				resp, err := c.Txn(
					wire.Op{Kind: wire.OpGet, Key: src},
					wire.Op{Kind: wire.OpGet, Key: dst},
				)
				if err != nil {
					return
				}
				if !resp.Results[0].Found || !resp.Results[1].Found {
					continue
				}
				sb, sg := split(resp.Results[0].Val)
				db, dg := split(resp.Results[1].Val)
				amt := uint64(1 + i%10)
				if sb < amt {
					continue
				}
				put, err := c.Txn(
					wire.Op{Kind: wire.OpPut, Key: src, Val: account(sb-amt, sg+1)},
					wire.Op{Kind: wire.OpPut, Key: dst, Val: account(db+amt, dg+1)},
				)
				if err != nil {
					return
				}
				if onAck != nil {
					onAck(src, sg+1, put.Tid)
					onAck(dst, dg+1, put.Tid)
				}
			}
		}(w)
	}
	wg.Wait()
}

func account(balance, gen uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v[:8], balance)
	binary.LittleEndian.PutUint64(v[8:], gen)
	return v
}

func split(v []byte) (balance, gen uint64) {
	return binary.LittleEndian.Uint64(v[:8]), binary.LittleEndian.Uint64(v[8:16])
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
