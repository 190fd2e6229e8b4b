// Command perfbench is the repository's benchmark. It runs one workload
// of the simulator through the public API and prints the end-to-end
// metrics (untraced) or the per-layer metrics (traced) as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": 115, "failed": 0, "metrics": {"wall_s": {"value": 23.1, "unit": "s"}, ...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper|fleet --seed N --seconds S --trace 0|1
//	perfbench --workload paper --seed N --record perfbench/digests.json
//
// The seed is the churn seed of every simulation (0 selects seed 1).
// Every cell's result is checked against the digests recorded in
// digests.json; for a seed with none recorded, each cell's digest is
// printed so two builds can be compared. METRICS.md lists the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets every cell up again
// to measure setup_s as a median.
const setupReps = 15

// outDir holds the profiles and span dumps a traced run writes, inside
// the checkout's build directory.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "paper|fleet")
	seed := fs.Uint64("seed", 1, "churn seed of every simulation (0 selects 1)")
	seconds := fs.Float64("seconds", 10, "measure whole passes until this many seconds have passed")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	recordTo := fs.String("record", "", "run one pass and merge its cell digests into this digest file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d (want 0 or 1)", *traced)
	}
	if *seed == 0 {
		*seed = 1
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		return err
	}
	book, err := loadBook(recordedJSON)
	if err != nil {
		return err
	}
	fmt.Println(machineLabel())

	if *recordTo != "" {
		p := w.runPass(false)
		got := map[string]string{}
		for i, o := range p.outs {
			if o.err != nil {
				return fmt.Errorf("%s: %w", w.cells[i].key, o.err)
			}
			got[w.cells[i].key] = o.digest
		}
		return record(*recordTo, w.name, w.seed, got)
	}

	chk := newChecker(w, book.lookup(w.name, w.seed))
	var res result
	if *traced == 1 {
		res.Metrics, err = tracedRun(w, chk, outDir)
	} else {
		res.Metrics, err = untracedRun(w, chk, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		return err
	}
	chk.printUnrecorded()
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checker compares every cell result with the recorded digests and counts
// the cells that fail: an error, or a digest that differs. A job that hits
// the horizon is a model outcome, not a failure.
type checker struct {
	w                 *benchWorkload
	want              map[string]string
	attempted, failed int
	seen              map[string]string
}

func newChecker(w *benchWorkload, want map[string]string) *checker {
	return &checker{w: w, want: want, seen: map[string]string{}}
}

func (c *checker) check(p pass) {
	for i, o := range p.outs {
		key := c.w.cells[i].key
		c.attempted++
		switch {
		case o.err != nil:
			c.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cell %q: %v\n", key, o.err)
		case c.want != nil && c.want[key] != o.digest:
			c.failed++
			fmt.Printf("digest mismatch %s seed=%d %q: got %s want %s\n", c.w.name, c.w.seed, key, o.digest, c.want[key])
		}
		c.seen[key] = o.digest
	}
}

// printUnrecorded prints every cell's digest when the seed has none
// recorded, so a parent and a change can be compared on a fresh seed.
func (c *checker) printUnrecorded() {
	if c.want != nil {
		return
	}
	for _, cl := range c.w.cells {
		fmt.Printf("digest %s seed=%d %q %s\n", c.w.name, c.w.seed, cl.key, c.seen[cl.key])
	}
}

// untracedRun measures the end-to-end metrics: whole passes until the
// budget is spent (at least one), each with its own peak-memory window,
// then setupReps set-up-only passes.
func untracedRun(w *benchWorkload, chk *checker, budget time.Duration) (map[string]metric, error) {
	var walls []time.Duration
	var measured time.Duration
	// Start another pass only while at least half of one more fits in the
	// budget, so a run ends within the budget plus half a pass.
	var peaks []float64
	for len(walls) == 0 || measured+walls[len(walls)-1]/2 <= budget {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		ru0 := rusage()
		p := w.runPass(false)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: wall %.3fs, cpu %.3fs, peak rss %.1f MB\n",
			w.name, len(walls)+1, p.wall.Seconds(), cpuSince(ru0).Seconds(), peak)
		chk.check(p)
		walls = append(walls, p.wall)
		peaks = append(peaks, peak)
		measured += p.wall
	}
	var setups []time.Duration
	for range setupReps {
		setups = append(setups, w.setupPass())
	}
	passed := float64(chk.attempted-chk.failed) / float64(chk.attempted)
	return map[string]metric{
		"wall_s":      {median(walls).Seconds(), "s"},
		"setup_s":     {median(setups).Seconds(), "s"},
		"peak_rss_mb": {median(peaks), "MB"},
		"pass_ratio":  {passed, "ratio"},
	}, nil
}

// resetPeakRSS starts a new peak-memory window, so that each pass is
// measured as if it ran in a fresh process: it returns the freed heap to
// the OS, then resets the kernel's resident-set high-water mark to the
// current resident set.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// tracedRun runs one untraced pass, for the overhead baseline and the
// process CPU use, then one traced pass under a CPU profile with a
// collector on every cell, and derives the per-layer metrics. The profile
// and the span dump are written to dir.
func tracedRun(w *benchWorkload, chk *checker, dir string) (map[string]metric, error) {
	// Both passes start with the freed heap returned to the OS, as every
	// untraced pass does, so their walls compare.
	debug.FreeOSMemory()
	ru0 := rusage()
	plain := w.runPass(false)
	cpu := cpuSince(ru0)
	chk.check(plain)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, w.seed))
	prof, err := os.Create(stem + ".pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	tp := w.runPass(true)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err := prof.Close(); err != nil {
		return nil, err
	}
	chk.check(tp)
	if err := writeSpans(stem+".spans.json", w, tp); err != nil {
		return nil, err
	}
	layers, err := foldProfile(prof.Name())
	if err != nil {
		return nil, err
	}
	m := layerMetrics(w, tp, layers)
	m["gc.cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	m["alloc.bytes"] = metric{float64(ms1.TotalAlloc - ms0.TotalAlloc), "B"}
	m["alloc.objects"] = metric{float64(ms1.Mallocs - ms0.Mallocs), "count"}
	m["proc.cpu_util"] = metric{cpu.Seconds() / plain.wall.Seconds(), "ratio"}
	m["bench.traced_overhead_frac"] = metric{tp.wall.Seconds()/plain.wall.Seconds() - 1, "ratio"}
	return m, nil
}

// profiledLayers are the modules whose self time is reported by name;
// the self time of any other module counts toward other.self_s.
var profiledLayers = []string{"sim", "netmodel", "dfs", "mapred", "cluster", "trace", "metrics", "rng", "gc"}

// layerMetrics derives the per-layer metrics of a traced pass from its
// cell outputs (counters, spans) and the folded profile.
func layerMetrics(w *benchWorkload, p pass, layers map[string]time.Duration) map[string]metric {
	m := map[string]metric{}
	var total time.Duration
	for _, d := range layers {
		total += d
	}
	other := total
	for _, l := range profiledLayers {
		m[l+".self_s"] = metric{layers[l].Seconds(), "s"}
		other -= layers[l]
	}
	m["other.self_s"] = metric{other.Seconds(), "s"}
	m["profile.total_s"] = metric{total.Seconds(), "s"}

	var fired, canceled uint64
	count := map[string]float64{}
	peak := 0.0
	var spans []time.Duration
	var busy time.Duration
	for _, o := range p.outs {
		fired += o.fired
		canceled += o.canceled
		for _, c := range o.snap.Counters {
			if c.Scope == "" {
				count[c.Layer+"."+c.Name] += c.Value
			}
		}
		for _, s := range o.snap.Series {
			if s.Layer == "sim" && s.Name == "queue_depth" {
				for _, pt := range s.Points {
					peak = max(peak, pt.Max)
				}
			}
		}
		spans = append(spans, o.end-o.start)
		busy += o.end - o.start
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	add("sim.events_fired", float64(fired), "count")
	add("sim.events_canceled", float64(canceled), "count")
	add("sim.cancel_ratio", ratio(float64(canceled), float64(fired+canceled)), "ratio")
	add("sim.ns_per_event", ratio(layers["sim"].Seconds()*1e9, float64(fired)), "ns")
	add("sim.queue_compactions", count["sim.queue_compactions"], "count")
	add("sim.peak_pending", peak, "count")
	add("netmodel.flows_started", count["net.flows_started"], "count")
	add("netmodel.flow_stalls", count["net.flow_stalls"], "count")
	add("netmodel.bytes_delivered", count["net.bytes_delivered"], "B")
	add("netmodel.us_per_flow", ratio(layers["netmodel"].Seconds()*1e6, count["net.flows_started"]), "us")
	add("dfs.replications_issued", count["dfs.replications_issued"], "count")
	add("dfs.expirations", count["dfs.expirations"], "count")
	add("dfs.read_stalls", count["dfs.read_stalls"], "count")
	add("dfs.thrash_ratio", ratio(count["dfs.thrash_replications"], count["dfs.replications_issued"]), "ratio")
	add("mapred.task_launches", count["mapred.task_launches"], "count")
	add("mapred.attempts_killed", count["mapred.attempts_killed"], "count")
	add("mapred.speculative_issued", count["mapred.speculative_issued"], "count")
	add("mapred.speculative_won_ratio", ratio(count["mapred.speculative_won"], count["mapred.speculative_issued"]), "ratio")
	add("cluster.suspensions", count["cluster.suspensions"], "count")
	add("harness.cells", float64(len(p.outs)), "count")
	add("harness.cell_s_p50", quantile(spans, 0.5).Seconds(), "s")
	add("harness.cell_s_p90", quantile(spans, 0.9).Seconds(), "s")
	workers := min(w.cellWorkers, len(w.cells))
	add("harness.pool_busy_frac", busy.Seconds()/(float64(workers)*p.wall.Seconds()), "ratio")
	return m
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

type span struct {
	Cell   int     `json:"cell"`
	Key    string  `json:"key"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// writeSpans dumps the traced pass's spans (cell → setup, run; one id per
// cell), kept in memory while the pass ran.
func writeSpans(path string, w *benchWorkload, p pass) error {
	var spans []span
	for i, o := range p.outs {
		key := w.cells[i].key
		spans = append(spans,
			span{i, key, "cell", "", o.start.Seconds(), o.end.Seconds()},
			span{i, key, "setup", "cell", o.setupStart.Seconds(), o.setupEnd.Seconds()},
			span{i, key, "run", "cell", o.setupEnd.Seconds(), o.end.Seconds()})
	}
	raw, err := json.MarshalIndent(map[string]any{"machine": machineLabel(), "workload": w.name,
		"seed": w.seed, "spans": spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuSince returns the user+system CPU time the process spent since ru0.
func cpuSince(ru0 syscall.Rusage) time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() - ru0.Utime.Nano() + ru.Stime.Nano() - ru0.Stime.Nano())
}

// machineLabel names the host every figure was measured on.
func machineLabel() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}
