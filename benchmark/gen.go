package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
)

// Seeded input generation. Everything the program under test receives
// — arrival schedules, keys, operation kinds, values — derives from the
// -seed argument through the generators in this file and from nothing
// else, so the same seed replays a byte-identical request stream
// (streamHash pins that in a test). The generators are the benchmark's
// own: it depends on none of the repository's load-generation packages,
// which later changes are free to rework.

// rng is splitmix64: tiny, fast, and good enough to drive schedules.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the seed and a label, so
// adding a phase never shifts the inputs of another.
func newRNG(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	r := &rng{s: seed ^ h.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n); the modulo bias is below
// 2^-40 for every n the benchmark uses.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// poisson returns the arrival offsets, in nanoseconds, of a Poisson
// process of the given rate over [0, dur).
func poisson(r *rng, rate float64, durNs int64) []int64 {
	out := make([]int64, 0, int(rate*float64(durNs)/1e9*1.1)+16)
	t := 0.0
	for {
		t += r.exp() / rate * 1e9
		if int64(t) >= durNs {
			return out
		}
		out = append(out, int64(t))
	}
}

// zipf draws ranks in [0, n) with P(rank i) proportional to
// 1/(i+1)^theta (the YCSB generator of Gray et al.). rank 0 is the
// hottest.
type zipf struct {
	n                  float64
	theta, alpha       float64
	zetan, eta, cutoff float64
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta)}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.cutoff = zeta2
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.cutoff {
		return 1
	}
	k := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= uint64(z.n) {
		k = uint64(z.n) - 1
	}
	return k
}

// opKind is a request's operation.
type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// request is one generated operation. For a PUT gen is the generation
// its value carries; for a GET it is the generation the response must
// carry (requests for one key always travel on one connection, which
// the server executes in order, so the expectation is exact).
type request struct {
	at   int64 // intended send time, ns from phase start (open loop)
	key  uint64
	gen  uint32
	kind opKind
}

// valueBytes is the KV value size; a user byte count adds the 8-byte
// key.
const valueBytes = 100

// keyspace tracks, per key, the last generation sent and the last
// generation acknowledged durable. Key k belongs to connection
// k % conns, and only that connection's goroutines touch its entries,
// so the slices need no locking.
type keyspace struct {
	n     uint64
	conns uint64
	seed  uint64
	sent  []uint32
	acked []uint32
	// perm spreads Zipf ranks over the keyspace (an affine bijection
	// mod n), so hot keys land on both connections.
	permMul, permOff uint64
}

func newKeyspace(seed, n uint64, conns int) *keyspace {
	r := newRNG(seed, "keyspace")
	return &keyspace{
		n: n, conns: uint64(conns), seed: seed,
		sent:    make([]uint32, n),
		acked:   make([]uint32, n),
		permMul: coprimeTo(n, 1000003),
		permOff: r.intn(n),
	}
}

// coprimeTo returns the smallest m >= start with gcd(m, n) == 1.
func coprimeTo(n, start uint64) uint64 {
	for m := start; ; m++ {
		a, b := m, n
		for b != 0 {
			a, b = b, a%b
		}
		if a == 1 {
			return m
		}
	}
}

func (k *keyspace) keyOfRank(rank uint64) uint64 { return (rank*k.permMul + k.permOff) % k.n }

func (k *keyspace) connOf(key uint64) int { return int(key % k.conns) }

// fillValue writes the value of (key, gen) into buf: the key, the
// generation, then seeded filler. A reader can therefore tell which
// write it is looking at and whether it is intact.
func (k *keyspace) fillValue(buf []byte, key uint64, gen uint32) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[8:], gen)
	r := rng{s: k.seed ^ key*0x9e3779b97f4a7c15 ^ uint64(gen)<<40}
	for i := 12; i < len(buf); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(buf[i:], w[:])
	}
}

// checkValue reports the generation val carries for key, and whether
// val is exactly the value that generation was written with.
func (k *keyspace) checkValue(val []byte, key uint64) (gen uint32, ok bool) {
	if len(val) != valueBytes || binary.LittleEndian.Uint64(val) != key {
		return 0, false
	}
	gen = binary.LittleEndian.Uint32(val[8:])
	var want [valueBytes]byte
	k.fillValue(want[:], key, gen)
	return gen, string(want[:]) == string(val)
}

// mix describes a workload's request mix.
type mix struct {
	putFrac float64
	zipf    *zipf // nil: uniform keys
}

// stream generates a workload's requests in order, advancing the
// keyspace's sent generations as it goes.
type stream struct {
	r   *rng
	ks  *keyspace
	mix mix
}

func (s *stream) kind() opKind {
	if s.mix.putFrac >= 1 || s.r.float() < s.mix.putFrac {
		return opPut
	}
	return opGet
}

func (s *stream) stamp(q *request) {
	if q.kind == opPut {
		s.ks.sent[q.key]++
	}
	q.gen = s.ks.sent[q.key]
}

// next draws the next request over the whole keyspace (open loop: the
// caller routes it to connOf(key)).
func (s *stream) next() request {
	q := request{kind: s.kind()}
	if s.mix.zipf != nil {
		q.key = s.ks.keyOfRank(s.mix.zipf.rank(s.r))
	} else {
		q.key = s.r.intn(s.ks.n)
	}
	s.stamp(&q)
	return q
}

// nextFor draws the next request among conn's own keys (closed loop:
// each connection generates for itself as replies free its window).
func (s *stream) nextFor(conn int) request {
	q := request{kind: s.kind()}
	if s.mix.zipf != nil {
		for {
			q.key = s.ks.keyOfRank(s.mix.zipf.rank(s.r))
			if s.ks.connOf(q.key) == conn {
				break
			}
		}
	} else {
		q.key = s.r.intn(s.ks.n/s.ks.conns)*s.ks.conns + uint64(conn)
	}
	s.stamp(&q)
	return q
}

// openLoop generates a whole open-loop phase up front: Poisson arrivals
// at rate over dur, each with its kind, key and generation.
func openLoop(seed uint64, label string, ks *keyspace, m mix, rate float64, durNs int64) []request {
	at := poisson(newRNG(seed, label+"/arrivals"), rate, durNs)
	s := &stream{r: newRNG(seed, label+"/ops"), ks: ks, mix: m}
	out := make([]request, len(at))
	for i := range out {
		out[i] = s.next()
		out[i].at = at[i]
	}
	return out
}

// streamHash digests the request stream a seed produces for a workload
// shape: the open-loop schedule with kinds, keys, generations and value
// bytes, then the first closed-loop draws of each connection.
func streamHash(seed uint64, keys uint64, conns int, putFrac float64, zipfTheta float64, rate float64, durNs int64) string {
	ks := newKeyspace(seed, keys, conns)
	m := mix{putFrac: putFrac}
	if zipfTheta > 0 {
		m.zipf = newZipf(keys, zipfTheta)
	}
	h := sha256.New()
	var buf [8 + 8 + 4 + 1 + valueBytes]byte
	emit := func(q request) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(q.at))
		binary.LittleEndian.PutUint64(buf[8:], q.key)
		binary.LittleEndian.PutUint32(buf[16:], q.gen)
		buf[20] = byte(q.kind)
		ks.fillValue(buf[21:], q.key, q.gen)
		h.Write(buf[:])
	}
	for _, q := range openLoop(seed, "latency", ks, m, rate, durNs) {
		emit(q)
	}
	for c := 0; c < conns; c++ {
		s := &stream{r: newRNG(seed, "capacity/"+string(rune('0'+c))), ks: ks, mix: m}
		for i := 0; i < 1000; i++ {
			emit(s.nextFor(c))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
