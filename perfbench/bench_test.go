package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// smallWorkloads returns both workloads cut down to run in seconds: the
// paper sweep at 1/64 of the job sizes and one rate, and the fleet at
// 1,000 nodes and 1/16 of the job sizes.
func smallWorkloads(t *testing.T, seed uint64) []*benchWorkload {
	t.Helper()
	paper, ok := scenario.Lookup("paper-figures")
	if !ok {
		t.Fatal("paper-figures is not a built-in")
	}
	paper.Sweep.Scale, paper.Sweep.Rates = 64, []float64{0.5}
	fleet, err := scenario.Parse(bytes.NewReader(fleetSpec))
	if err != nil {
		t.Fatal(err)
	}
	vol, ded := 900, 100
	fleet.Experiments[0].Custom.Cluster.Volatile = &vol
	fleet.Experiments[0].Custom.Cluster.Dedicated = &ded
	fleet.Sweep.Scale = 16
	var out []*benchWorkload
	for _, c := range []struct {
		name         string
		spec         *scenario.Spec
		cells, shard int
	}{{"paper", paper, 2, 1}, {"fleet", fleet, 1, 2}} {
		w, err := fromSpec(c.name, c.spec, seed, c.cells, c.shard)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDecls(t *testing.T) (endToEnd, perLayer []metricDecl) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

func checkPrinted(t *testing.T, what string, got map[string]metric, want []metricDecl) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is not printed", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestEveryMetricPrinted runs both workloads, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json declares,
// each with its unit, and that every cell passes.
func TestEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer := readDecls(t)
	for _, w := range smallWorkloads(t, 1) {
		chk := newChecker(w, nil)
		m, err := untracedRun(w, chk, time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		checkPrinted(t, w.name+" untraced", m, endToEnd)
		m, err = tracedRun(w, chk, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		checkPrinted(t, w.name+" traced", m, perLayer)
		if chk.failed != 0 {
			t.Errorf("%s: %d of %d cells failed", w.name, chk.failed, chk.attempted)
		}
		var layers float64
		for k, v := range m {
			if strings.HasSuffix(k, ".self_s") {
				layers += v.Value
			}
		}
		if total := m["profile.total_s"].Value; total <= 0 || abs(layers-total) > 1e-6 {
			t.Errorf("%s: layer self times sum to %v, profile total is %v", w.name, layers, total)
		}
	}
}

// deterministicCounts are the per-layer metrics that depend only on the
// simulation, never on the host.
var deterministicCounts = []string{
	"sim.events_fired", "sim.events_canceled", "sim.cancel_ratio", "sim.queue_compactions",
	"sim.peak_pending", "netmodel.flows_started", "netmodel.flow_stalls",
	"netmodel.bytes_delivered", "dfs.replications_issued", "dfs.expirations",
	"dfs.read_stalls", "dfs.thrash_ratio", "mapred.task_launches", "mapred.attempts_killed",
	"mapred.speculative_issued", "mapred.speculative_won_ratio", "cluster.suspensions",
	"harness.cells",
}

// TestCountsRepeat traces each workload twice and requires every
// deterministic count to repeat exactly, and the cell digests to agree.
func TestCountsRepeat(t *testing.T) {
	for _, w := range smallWorkloads(t, 3) {
		var runs [2]map[string]metric
		var digests [2]map[string]string
		for i := range runs {
			chk := newChecker(w, nil)
			m, err := tracedRun(w, chk, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			runs[i], digests[i] = m, chk.seen
		}
		for _, name := range deterministicCounts {
			if a, b := runs[0][name].Value, runs[1][name].Value; a != b {
				t.Errorf("%s: %s differs between runs: %v vs %v", w.name, name, a, b)
			}
		}
		if runs[0]["sim.events_fired"].Value == 0 {
			t.Errorf("%s: no events fired", w.name)
		}
		for k, d := range digests[0] {
			if digests[1][k] != d {
				t.Errorf("%s: cell %q digest differs between runs", w.name, k)
			}
		}
	}
}

// tracesText is `go tool pprof -traces` output in the form the Go 1.24
// toolchain prints it.
const tracesText = `File: perfbench
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 1s, Total samples = 160ms (16.00%)
-----------+-------------------------------------------------------
      50ms   runtime.mapaccess1
             repro/internal/netmodel.(*Network).refresh
             repro/internal/sim.(*Simulation).RunUntil
             main.(*benchWorkload).runCell
-----------+-------------------------------------------------------
      40ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      30ms   repro/internal/sim.(*calendar).sortBucket (inline)
             repro/internal/sim.(*Simulation).RunUntil
-----------+-------------------------------------------------------
   20.50ms   runtime.futex
             runtime.notesleep
             runtime.schedule
-----------+-------------------------------------------------------
   19.50ms   internal/runtime/maps.(*Map).getWithKey
             repro/internal/trace.GenerateMarkov
             repro/internal/core.NewSimulation
-----------+-------------------------------------------------------
`

// TestFoldRule pins the attribution rule on fixed stack samples: a
// runtime helper counts toward the innermost module that called it, and
// background mark workers count as gc.
func TestFoldRule(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5", len(samples))
	}
	got := fold(samples)
	want := map[string]time.Duration{
		"netmodel": 50 * time.Millisecond,
		"gc":       40 * time.Millisecond,
		"sim":      30 * time.Millisecond,
		"other":    20500 * time.Microsecond,
		"trace":    19500 * time.Microsecond,
	}
	if len(got) != len(want) {
		t.Errorf("folded into %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s: %v, want %v", l, got[l], d)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
