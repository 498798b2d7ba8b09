package main

import (
	"dudetm/internal/wire"
)

// Per-layer metrics from the outside: differences of the public
// Stats() snapshots taken before and after a phase, divided by the
// phase's completed requests (each request is one transaction).

// phaseDelta is what layerMetrics needs to know about a phase.
type phaseDelta struct {
	before, after snap
	ops           uint64 // completed requests
	userBytes     uint64 // payload bytes written: value + 8-byte key, or the 128 B record
	gauges        gaugeMax
	windows       []window
}

// layerMetrics computes every Stats()-delta metric of one phase into a
// fresh set, under the plain names.
func layerMetrics(d phaseDelta) metrics {
	m := metrics{}
	a, b := d.after, d.before
	ops := float64(d.ops)
	wall := float64(a.wall.Sub(b.wall))
	sub := func(x, y uint64) float64 { return float64(x - y) }

	m.set("nvm_bytes_per_user_byte", ratio(sub(a.pool.Device.BytesFlushed, b.pool.Device.BytesFlushed), float64(d.userBytes)), int(d.ops))

	commits, aborts := sub(a.pool.TM.Commits, b.pool.TM.Commits), sub(a.pool.TM.Aborts, b.pool.TM.Aborts)
	m.set("stm.abort_ratio", ratio(aborts, commits+aborts), int(commits+aborts))

	raw, comb := sub(a.pool.RawEntries, b.pool.RawEntries), sub(a.pool.CombEntries, b.pool.CombEntries)
	m.set("redolog.entries_per_tx", ratio(raw, ops), int(d.ops))
	m.set("redolog.combine_ratio", ratio(raw, comb), int(raw))
	m.set("redolog.log_bytes_per_tx", ratio(sub(a.pool.LogBytes, b.pool.LogBytes), ops), int(d.ops))

	pa, pb := a.pool.Persist, b.pool.Persist
	groups := sub(pa.Groups, pb.Groups)
	m.set("dudetm.persist.tx_per_group", ratio(sub(a.pool.Committed, b.pool.Committed), groups), int(groups))
	m.set("dudetm.persist.fences_per_tx", ratio(sub(pa.Fences, pb.Fences), ops), int(d.ops))
	m.set("dudetm.persist.busy_frac", ratio(sub(pa.BusyNanos, pb.BusyNanos), wall*float64(max(1, pa.Workers))), len(d.windows))
	m.set("dudetm.persist.queue_max", float64(d.gauges.persistQueue), len(d.windows))

	ra, rb := a.pool.Reproduce, b.pool.Reproduce
	m.set("dudetm.reproduce.busy_frac", ratio(sub(ra.BusyNanos, rb.BusyNanos), wall), len(d.windows))
	m.set("dudetm.reproduce.coalesce_ratio", ratio(sub(ra.CoalesceIn, rb.CoalesceIn), sub(ra.CoalesceOut, rb.CoalesceOut)), int(sub(ra.Epochs, rb.Epochs)))
	m.set("dudetm.reproduce.lines_per_tx", ratio(sub(ra.LinesFlushed, rb.LinesFlushed), ops), int(d.ops))
	m.set("dudetm.reproduce.epochs", sub(ra.Epochs, rb.Epochs), 1)
	m.set("dudetm.reproduce.lag_tx_max", float64(d.gauges.reproLag), len(d.windows))
	m.set("dudetm.stalls", sub(a.pool.Stalls, b.pool.Stalls), 1)

	for i, r := range a.pool.Regions {
		if r.Name != "log" && r.Name != "data" || i >= len(b.pool.Regions) {
			continue
		}
		m.set("pmem."+r.Name+".bytes_flushed_per_tx", ratio(sub(r.BytesFlushed, b.pool.Regions[i].BytesFlushed), ops), int(d.ops))
	}
	m.set("pmem.fences_per_tx", ratio(sub(a.pool.Device.Fences, b.pool.Device.Fences), ops), int(d.ops))
	m.set("pmem.delay_frac", ratio(sub(a.pool.Device.DelayNanos, b.pool.Device.DelayNanos), wall), len(d.windows))

	na, nb := a.srv.Notifier, b.srv.Notifier
	m.set("server.backlog_max", float64(d.gauges.backlog), len(d.windows))
	m.set("server.notifier.released_per_wakeup", ratio(sub(na.Released, nb.Released), sub(na.Wakeups, nb.Wakeups)), int(sub(na.Wakeups, nb.Wakeups)))
	m.set("server.notifier.max_batch", float64(na.MaxBatch), 1)

	shipped := float64(a.shipGroups - b.shipGroups)
	m.set("repl.ship_group_us", ratio(float64(a.shipNanos-b.shipNanos)/1e3, shipped), int(shipped))
	m.set("repl.wire_bytes_per_tx", ratio(sub(a.snd.WireBytes, b.snd.WireBytes), ops), int(d.ops))
	m.set("repl.compress_ratio", ratio(sub(a.snd.RawBytes, b.snd.RawBytes), sub(a.snd.WireBytes, b.snd.WireBytes)), int(shipped))
	ack := a.snd.AckLatency.Sub(b.snd.AckLatency)
	m.set("repl.ack_p50_ms", ms(int64(ack.Quantile(0.5))), int(ack.Count))
	m.set("repl.ack_p99_ms", ms(int64(ack.Quantile(0.99))), int(ack.Count))
	m.set("repl.replica_lag_tx_max", float64(d.gauges.replicaLag), len(d.windows))
	m.set("repl.oversize_drops", sub(a.snd.OversizeDrops, b.snd.OversizeDrops), 1)
	m.set("repl.gaps", sub(a.rcv.Gaps, b.rcv.Gaps), 1)

	m.set("runtime.alloc_bytes_per_op", ratio(sub(a.mem.TotalAlloc, b.mem.TotalAlloc), ops), int(d.ops))
	m.set("runtime.gc_pause_ms", sub(a.mem.PauseTotalNs, b.mem.PauseTotalNs)/1e6, int(a.mem.NumGC-b.mem.NumGC))

	m.set("host.steal_frac", stealFrac(d.windows), len(d.windows))
	m.set("host.quiet_frac", quietFrac(d.windows), len(d.windows))
	return m
}

// mergeLayers copies the latency phase's layer metrics under their plain
// names and the capacity phase's shortlist under "sat.".
func mergeLayers(m metrics, lat, sat metrics) {
	for name, v := range lat {
		m[name] = v
	}
	for _, name := range satLayer {
		if v, ok := sat[name]; ok {
			m["sat."+name] = v
		}
	}
}

// wireBytes re-encodes a sample of the phase's requests and the
// responses they must have produced with the public wire encoders, for
// the bytes each operation puts on the socket in either direction.
func wireBytes(m metrics, ks *keyspace, recs []opRec) {
	const sample = 2000
	var req, resp, n int
	val := make([]byte, valueBytes)
	for i := 0; i < len(recs) && n < sample; i, n = i+1, n+1 {
		q := &recs[i].q
		ks.fillValue(val, q.key, q.gen)
		op := wire.Op{Kind: wire.OpGet, Key: q.key}
		res := wire.OpResult{Found: true, Val: val}
		if q.kind == opPut {
			op = wire.Op{Kind: wire.OpPut, Key: q.key, Val: val}
			res = wire.OpResult{Found: true}
		}
		if b, err := wire.AppendRequest(nil, &wire.Request{ID: uint64(i + 1), Ops: []wire.Op{op}}); err == nil {
			req += len(wire.AppendFrame(nil, b))
		}
		p := wire.Response{ID: uint64(i + 1), Tid: recs[i].tid, Durable: q.kind == opPut, Results: []wire.OpResult{res}}
		if b, err := wire.AppendResponse(nil, &p); err == nil {
			resp += len(wire.AppendFrame(nil, b))
		}
	}
	m.set("wire.req_bytes_per_op", ratio(float64(req), float64(n)), n)
	m.set("wire.resp_bytes_per_op", ratio(float64(resp), float64(n)), n)
}
