package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dudetm"
)

// Phase drivers shared by every workload. A latency phase is an open
// loop: requests leave on a schedule fixed before the phase starts, and
// each is timed from its intended send time, so a stall is charged to
// every request queued behind it. A capacity phase is a closed loop
// with a fixed number of requests in flight: its backlog cannot grow,
// so its completion rate is the highest sustainable one, with no rate
// ladder to flip between rungs.

// target is what a phase drives: the KV rig over TCP or the library
// rig calling the pool directly.
type target interface {
	pool() *dudetm.Pool
	snapshot() snap
	gauges(g *gaugeMax)
	// closedLoop drives conn's closed loop from st until stop closes,
	// then waits for its in-flight work, counting completions into
	// out.done as they happen.
	closedLoop(conn int, st *stream, stop <-chan struct{}, out *closedConn)
	// progress is the capacity phase's completion counter, read at
	// every window boundary.
	progress(res *closedResult) uint64
}

// issueFunc starts request q on connection conn and returns once it is
// on its way; done is called exactly once with the outcome: the write's
// transaction ID (0 for reads) and, on failure, why.
type issueFunc func(conn int, q *request, done func(tid uint64, fail string))

// opRec is one open-loop request's record. done is written by the
// completing goroutine and read by the evaluator, possibly while a
// straggler is still in flight, hence atomic; tid and fail are written
// before done.
type opRec struct {
	q       request
	sendIn  int64 // issue entered, ns since phase start
	sendOut int64 // issue returned
	done    atomic.Int64
	tid     uint64
	fail    string
}

// observed is what every phase attempt records around its work: the
// Stats() snapshots before and after, the steal windows in between, and
// the maxima of the gauges polled meanwhile.
type observed struct {
	windows       []window
	before, after snap
	gauges        gaugeMax
}

// observe runs body as one phase attempt against t: it lets the pipeline
// settle and snapshots it on either side, and has the sampler cut
// windows while body runs, reading completed at every boundary.
func observe(t target, host stealReader, completed func() uint64, body func(start time.Time)) observed {
	var o observed
	settle(t.pool())
	o.before = t.snapshot()
	start := time.Now()
	smp := startSampler(host, start, completed, func() { t.gauges(&o.gauges) })
	body(start)
	o.windows = smp.stop()
	settle(t.pool())
	o.after = t.snapshot()
	return o
}

// openResult is one latency-phase attempt.
type openResult struct {
	recs []opRec
	observed
}

// runOpen plays reqs against t as an open loop of length dur. onDone,
// when set, sees every completion (the traced run's span collector).
func runOpen(t target, issue issueFunc, host stealReader, reqs []request, dur time.Duration, onDone func(*opRec)) *openResult {
	res := &openResult{recs: make([]opRec, len(reqs))}
	byConn := make([][]*opRec, conns)
	for i := range reqs {
		res.recs[i].q = reqs[i]
		c := int(reqs[i].key % conns)
		byConn[c] = append(byConn[c], &res.recs[i])
	}
	var outstanding atomic.Int64
	var completed atomic.Uint64
	res.observed = observe(t, host, completed.Load, func(start time.Time) {
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, rec := range byConn[c] {
					if d := time.Duration(rec.q.at) - time.Since(start); d > 0 {
						time.Sleep(d)
					}
					outstanding.Add(1)
					rec.sendIn = int64(time.Since(start))
					issue(c, &rec.q, func(tid uint64, fail string) {
						rec.tid, rec.fail = tid, fail
						rec.done.Store(max(1, int64(time.Since(start))))
						completed.Add(1)
						outstanding.Add(-1)
						if onDone != nil {
							onDone(rec)
						}
					})
					rec.sendOut = int64(time.Since(start))
				}
				if d := dur - time.Since(start); d > 0 {
					time.Sleep(d)
				}
			}(c)
		}
		wg.Wait()
		for deadline := time.Now().Add(drainTimeout); outstanding.Load() > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})
	return res
}

// latency returns the request's intended-send-to-completion time, and
// whether it completed successfully. A request that failed or was still
// unanswered at the drain deadline is charged the drain timeout: it
// misses any latency limit.
func (r *opRec) latency() (ns int64, ok bool) {
	d := r.done.Load()
	if d == 0 || r.fail != "" {
		return int64(drainTimeout), false
	}
	return d - r.q.at, true
}

// closedConn is one connection's share of a capacity phase.
type closedConn struct {
	done   atomic.Uint64 // completions so far, polled by the sampler
	puts   uint64
	failed uint64   // errors, refusals, wrong reads, unanswered
	why    string   // first failure
	lags   []int64  // tx-btree: sampled tid - Durable() right after Update
	_      [64]byte // keep the connections' counters on separate lines
}

func (c *closedConn) failf(format string, args ...any) {
	c.failed++
	if c.why == "" {
		c.why = fmt.Sprintf(format, args...)
	}
}

// closedResult is one capacity-phase attempt.
type closedResult struct {
	conns []closedConn
	observed
}

func (r *closedResult) completed() (n uint64) {
	for i := range r.conns {
		n += r.conns[i].done.Load()
	}
	return n
}

// runClosed drives t's closed loop on every connection for dur. Each
// connection draws from its own seeded stream.
func runClosed(t target, host stealReader, ks *keyspace, m mix, label string, dur time.Duration) *closedResult {
	res := &closedResult{conns: make([]closedConn, conns)}
	res.observed = observe(t, host, func() uint64 { return t.progress(res) }, func(time.Time) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st := &stream{r: newRNG(ks.seed, fmt.Sprintf("%s/%d", label, c)), ks: ks, mix: m}
				t.closedLoop(c, st, stop, &res.conns[c])
			}(c)
		}
		time.Sleep(dur)
		close(stop)
		wg.Wait()
	})
	return res
}

// tally is a workload's running account of operations attempted and
// failed, across every phase, retry and drill, with the first few
// reasons kept for the report.
type tally struct {
	attempted, failed int64
	lostAcked         int64
	why               []string
}

func (t *tally) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	t.failed += n
	if len(t.why) < 8 {
		t.why = append(t.why, fmt.Sprintf(format, args...))
	}
}

// countOpen adds a latency-phase attempt to the tally: every scheduled
// request was attempted; errors, refusals, wrong reads and requests
// unanswered at the drain deadline failed.
func (t *tally) countOpen(phase string, res *openResult) {
	var bad int64
	var first string
	for i := range res.recs {
		r := &res.recs[i]
		if _, ok := r.latency(); !ok {
			bad++
			if first == "" {
				first = r.fail
				if r.done.Load() == 0 {
					first = "unanswered at the drain deadline"
				}
			}
		}
	}
	t.attempted += int64(len(res.recs))
	t.fail(bad, "%s: %d of %d requests failed (first: %s)", phase, bad, len(res.recs), first)
}

func (t *tally) countClosed(phase string, res *closedResult) {
	for i := range res.conns {
		c := &res.conns[i]
		t.attempted += int64(c.done.Load() + c.failed)
		t.fail(int64(c.failed), "%s: connection %d: %d failed (first: %s)", phase, i, c.failed, c.why)
	}
}

// latencyMetrics turns a latency-phase attempt into the client-side
// metrics. Quantiles are taken per window over the requests whose
// intended send time fell inside it, and the reported figure is steady
// over the usable windows: a stolen burst moves it little, where it
// would own the pooled tail. CPU per operation is the usable windows'
// CPU time over their completions.
func latencyMetrics(m metrics, res *openResult, noisy bool) {
	var puts, gets []int64
	var p50s, p90s []float64
	var worstP90, cpu int64
	var completed uint64
	n := 0
	use := map[int64]bool{}
	for _, w := range usable(res.windows, noisy) {
		use[w.start] = true
	}
	// A request belongs to the window its intended send time falls in
	// (the last window takes whatever was due after it closed).
	perWindow := make([][]int64, len(res.windows))
	for i := range res.recs {
		r := &res.recs[i]
		wi := sort.Search(len(res.windows)-1, func(k int) bool { return r.q.at < res.windows[k].end })
		d, _ := r.latency()
		perWindow[wi] = append(perWindow[wi], d)
		if !use[res.windows[wi].start] {
			continue
		}
		if r.q.kind == opPut {
			puts = append(puts, d)
		} else {
			gets = append(gets, d)
		}
	}
	for wi, lat := range perWindow {
		w := &res.windows[wi]
		slices.Sort(lat)
		w.p50, w.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
		worstP90 = max(worstP90, w.p90)
		if use[w.start] && len(lat) > 0 {
			p50s = append(p50s, ms(w.p50))
			p90s = append(p90s, ms(w.p90))
			cpu += w.cpu
			completed += w.done
			n += len(lat)
		}
	}
	m.set("lat_p50_ms", steady(p50s, "lower"), n)
	m.set("lat_p90_ms", steady(p90s, "lower"), n)
	m.set("cpu_us_per_op", ratio(float64(cpu)/1e3, float64(completed)), int(completed))
	m.set("client.p90_worst_window_ms", ms(worstP90), len(res.windows))
	for _, k := range []struct {
		name string
		s    []int64
	}{{"put", puts}, {"get", gets}} {
		slices.Sort(k.s)
		m.set("client."+k.name+"_p50_ms", ms(quantile(k.s, 0.5)), len(k.s))
		m.set("client."+k.name+"_p90_ms", ms(quantile(k.s, 0.9)), len(k.s))
		m.set("client."+k.name+"_p99_ms", ms(quantile(k.s, 0.99)), len(k.s))
	}

	// Generator honesty and the whole-phase accounts use every request.
	var skew, send, service []int64
	var missed, failed int
	for i := range res.recs {
		r := &res.recs[i]
		skew = append(skew, r.sendIn-r.q.at)
		send = append(send, r.sendOut-r.sendIn)
		d, ok := r.latency()
		if ok {
			service = append(service, r.done.Load()-r.sendIn)
		} else {
			failed++
		}
		if d > sloNs {
			missed++
		}
	}
	slices.Sort(skew)
	slices.Sort(send)
	slices.Sort(service)
	total := len(skew)
	m.set("client.send_skew_p50_ms", ms(quantile(skew, 0.5)), total)
	m.set("client.send_skew_p99_ms", ms(quantile(skew, 0.99)), total)
	m.set("client.send_us", us(quantile(send, 0.5)), total)
	m.set("client.service_p50_ms", ms(quantile(service, 0.5)), len(service))
	m.set("client.slo_miss_frac", ratio(float64(missed), float64(total)), total)
}

// capacityMetrics turns a capacity-phase attempt into sat_ops_per_s —
// completions in the usable windows over those windows' time — and the
// CPU cost per operation at saturation.
func capacityMetrics(m metrics, res *closedResult, noisy bool) {
	var done uint64
	var wall, cpu int64
	for _, w := range usable(res.windows, noisy) {
		done += w.done
		wall += w.end - w.start
		cpu += w.cpu
	}
	m.set("sat_ops_per_s", ratio(float64(done), float64(wall)/1e9), int(done))
	m.set("sat.cpu_us_per_op", ratio(float64(cpu)/1e3, float64(done)), int(done))
}
