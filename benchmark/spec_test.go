package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON: BENCHMARK.json at the repository root is
// exactly what `-spec` prints from the declarations in spec.go, so a
// metric is declared once and the driver's file cannot drift from it.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
}

// TestSpecWithinContract holds the declarations to the limits the
// driver refuses a benchmark for.
func TestSpecWithinContract(t *testing.T) {
	var b bytes.Buffer
	if err := writeSpec(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", b.Len())
	}
	var f benchmarkFile
	dec := json.NewDecoder(&b)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range f.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range f.EndToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range f.PerLayer {
		name("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	for _, s := range perLayer {
		if s.Layer == "" || s.Moves == "" {
			t.Errorf("per-layer metric %s lacks its layer or the end-to-end metric it should move", s.Name)
		}
	}
}
