package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs all four workloads at -quick scale (1 s phases,
// 5 K keys): every workload must come back correct — no failed
// operation, no lost acknowledged write, all three drills green — with
// every declared end-to-end metric measured and non-zero. It checks
// outcomes only; no timing is asserted.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := newRunConfig(11, 1, false, true, t.TempDir())
			res := runWorkload(cfg, w.Name)
			if !res.Correct || res.Failed != 0 || res.LostAcked != 0 {
				t.Fatalf("correct %v, failed %d of %d, lost_acked %d: %v", res.Correct, res.Failed, res.Attempted, res.LostAcked, res.Why)
			}
			for _, s := range endToEnd {
				if v, ok := res.Metrics[s.Name]; !ok || v.V <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive measurement", s.Name, v)
				}
			}
			if v := res.Metrics["dudetm.stalls"].V; v != 0 {
				t.Errorf("dudetm.stalls = %v", v)
			}
			line := resultLine(cfg, []result{res})
			if len(line.Metrics) != len(endToEnd) || line.Attempted < 1 || !line.Correct {
				t.Errorf("result line %+v: want the %d end-to-end metrics", line, len(endToEnd))
			}
		})
	}
}

// TestQuickTraced runs one traced workload at -quick scale: every
// declared per-layer metric must be emitted, the span file must be
// written, and for every sampled write the six critical-path segments
// plus the front residual must tile the wait span.
func TestQuickTraced(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := newRunConfig(12, 3, true, true, dir)
	res := runWorkload(cfg, "kv-put-repl")
	if !res.Correct {
		t.Fatalf("failed %d of %d, lost_acked %d: %v", res.Failed, res.Attempted, res.LostAcked, res.Why)
	}
	if miss := res.Metrics.missing(perLayer); len(miss) > 0 {
		t.Errorf("per-layer metrics not emitted: %v", miss)
	}
	if line := resultLine(cfg, []result{res}); len(line.Metrics) != len(perLayer) {
		t.Errorf("result line carries %d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"repl.gaps", "repl.oversize_drops", "dudetm.stalls", "drill.lost_acked"} {
		if v := res.Metrics[name].V; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	for _, name := range []string{"repl.ship_group_us", "critpath.repl_ship_ms", "ladder.tcp_repl_us", "ladder.wire_us"} {
		if v := res.Metrics[name].V; v <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, v)
		}
	}

	b, err := os.ReadFile(filepath.Join(dir, "trace-kv-put-repl.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Sampled int    `json:"sampled_writes"`
		Spans   []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Sampled == 0 {
		t.Fatal("no sampled write in the span file")
	}
	byID := map[int]span{}
	children := map[int]float64{}
	segments := map[int]int{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
		if p, ok := byID[s.Parent]; ok && p.Name == "wait" {
			children[s.Parent] += s.DurUs
			segments[s.Parent]++
		}
	}
	for id, n := range segments {
		wait := byID[id]
		if n != len(critSegments) {
			t.Errorf("wait span %d has %d segment children, want %d", id, n, len(critSegments))
		}
		// The segments end at the acknowledgement and their sum plus the
		// wait's self time (the front residual) is the wait, by
		// construction; a commit stamped before the send returned can
		// make the residual slightly negative, never large.
		if residual := wait.DurUs - children[id]; residual < -0.05*wait.DurUs-50 {
			t.Errorf("wait span %d: %.1f us, segments %.1f us: residual %.1f us", id, wait.DurUs, children[id], residual)
		}
	}
	if len(segments) != tf.Sampled {
		t.Errorf("%d wait spans carry segments, %d sampled writes", len(segments), tf.Sampled)
	}
}
