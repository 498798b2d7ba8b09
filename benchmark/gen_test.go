package main

import (
	"math"
	"testing"
)

// TestSeedDiscipline: the same seed yields a byte-identical request
// stream — schedule, keys, op kinds, generations and values — and a
// different seed a different one, for every workload shape.
func TestSeedDiscipline(t *testing.T) {
	shapes := []struct {
		name    string
		putFrac float64
		theta   float64
		rate    float64
	}{
		{"kv-put", 1, 0, putRate},
		{"kv-read-mostly", readPutFrac, zipfTheta, readRate},
	}
	for _, s := range shapes {
		a := streamHash(7, 5000, conns, s.putFrac, s.theta, s.rate, 1e9)
		b := streamHash(7, 5000, conns, s.putFrac, s.theta, s.rate, 1e9)
		c := streamHash(8, 5000, conns, s.putFrac, s.theta, s.rate, 1e9)
		if a != b {
			t.Errorf("%s: same seed, different streams: %s vs %s", s.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 produced the same stream %s", s.name, a)
		}
	}
}

// TestStreamsAreIndependent: a phase's inputs depend on the seed and the
// phase's label only, so adding or retrying a phase never shifts
// another's inputs.
func TestStreamsAreIndependent(t *testing.T) {
	ks1 := newKeyspace(7, 5000, conns)
	ks2 := newKeyspace(7, 5000, conns)
	openLoop(7, "warmup", ks2, mix{putFrac: 1}, putRate, 1e8) // an extra phase first
	a := openLoop(7, "latency/1", ks1, mix{putFrac: 1}, putRate, 1e8)
	b := openLoop(7, "latency/1", ks2, mix{putFrac: 1}, putRate, 1e8)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].key != b[i].key || a[i].kind != b[i].kind {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPoissonRate(t *testing.T) {
	at := poisson(newRNG(1, "p"), 4000, 5e9)
	if n := float64(len(at)); math.Abs(n-20000) > 0.05*20000 {
		t.Errorf("%v arrivals over 5 s at 4000/s", n)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrival %d before its predecessor", i)
		}
	}
	if last := at[len(at)-1]; last >= 5e9 {
		t.Errorf("arrival at %d ns, beyond the phase", last)
	}
}

func TestZipfSkew(t *testing.T) {
	const n = 1000
	z := newZipf(n, zipfTheta)
	r := newRNG(1, "z")
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		k := z.rank(r)
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(rank 0) = 1/zeta(n, theta); about 13% for n = 1000.
	want := 1 / z.zetan
	if got := float64(counts[0]) / 200000; math.Abs(got-want) > 0.2*want {
		t.Errorf("rank 0 drawn with frequency %.4f, want about %.4f", got, want)
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("not skewed: counts[0]=%d counts[10]=%d counts[500]=%d", counts[0], counts[10], counts[500])
	}
}

func TestValueRoundTrip(t *testing.T) {
	ks := newKeyspace(3, 100, conns)
	buf := make([]byte, valueBytes)
	ks.fillValue(buf, 42, 9)
	if gen, ok := ks.checkValue(buf, 42); !ok || gen != 9 {
		t.Errorf("round trip: generation %d, intact %v", gen, ok)
	}
	if _, ok := ks.checkValue(buf, 43); ok {
		t.Error("value accepted under the wrong key")
	}
	buf[50] ^= 1
	if _, ok := ks.checkValue(buf, 42); ok {
		t.Error("corrupted value accepted")
	}
	if _, ok := ks.checkValue(buf[:50], 42); ok {
		t.Error("truncated value accepted")
	}
}

// TestKeyRouting: rank-to-key is a bijection, every closed-loop draw
// stays on its connection's own keys, and generations count up per key.
func TestKeyRouting(t *testing.T) {
	ks := newKeyspace(5, 5000, conns)
	seen := make([]bool, ks.n)
	for r := uint64(0); r < ks.n; r++ {
		k := ks.keyOfRank(r)
		if seen[k] {
			t.Fatalf("rank %d maps to key %d, already taken", r, k)
		}
		seen[k] = true
	}
	for _, m := range []mix{{putFrac: 1}, {putFrac: readPutFrac, zipf: newZipf(ks.n, zipfTheta)}} {
		for c := 0; c < conns; c++ {
			s := &stream{r: newRNG(5, "t"), ks: ks, mix: m}
			for i := 0; i < 2000; i++ {
				q := s.nextFor(c)
				if ks.connOf(q.key) != c {
					t.Fatalf("connection %d drew key %d of connection %d", c, q.key, ks.connOf(q.key))
				}
				if q.gen != ks.sent[q.key] {
					t.Fatalf("request carries generation %d, keyspace says %d", q.gen, ks.sent[q.key])
				}
			}
		}
	}
}
