package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

//go:embed fleet.json
var fleetSpec []byte

// paperScale divides the paper's Table I job sizes for the paper workload:
// at -scale 2 the sweep keeps the layer split of -scale 1 in a fifth of the
// host time.
const paperScale = 2

// benchWorkload is one set of inputs the benchmark runs: the cells of a
// compiled scenario for one churn seed, and the two pool widths they run
// under.
type benchWorkload struct {
	name  string
	seed  uint64
	scale int
	// cellWorkers bounds how many cells run at once; shardWorkers bounds
	// the intra-run pool of each simulation.
	cellWorkers  int
	shardWorkers int
	cells        []cell
}

// cell is one independent unit of a sweep: the Figure 1 series, or one
// (variant, rate) simulation at the workload's seed.
type cell struct {
	key    string
	fig1   bool
	single *harness.Variant
	multi  *harness.MultiVariant
	rate   float64
}

// newWorkload builds a named workload for a churn seed. The paper workload
// is the paper-figures scenario run the way moonbench runs sweeps (a pool
// of nproc cells, each simulation serial); fleet is one big simulation
// sharded across nproc workers, the way scale-100k ships.
func newWorkload(name string, seed uint64) (*benchWorkload, error) {
	nproc := runtime.NumCPU()
	switch name {
	case "paper":
		spec, ok := scenario.Lookup("paper-figures")
		if !ok {
			return nil, fmt.Errorf("built-in scenario paper-figures is missing")
		}
		spec.Sweep.Scale = paperScale
		return fromSpec(name, spec, seed, nproc, 1)
	case "fleet":
		spec, err := scenario.Parse(bytes.NewReader(fleetSpec))
		if err != nil {
			return nil, fmt.Errorf("fleet.json: %w", err)
		}
		return fromSpec(name, spec, seed, 1, nproc)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper or fleet)", name)
}

// fromSpec compiles a scenario for one seed and lists its cells in the
// serial sweep order.
func fromSpec(name string, spec *scenario.Spec, seed uint64, cellWorkers, shardWorkers int) (*benchWorkload, error) {
	spec.Sweep.Seeds = []uint64{seed}
	plan, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	w := &benchWorkload{name: name, seed: seed, scale: plan.Config.Scale,
		cellWorkers: cellWorkers, shardWorkers: shardWorkers}
	for _, run := range plan.Runs {
		if run.Fig1 {
			w.cells = append(w.cells, cell{key: "fig1", fig1: true})
			continue
		}
		for i := range run.Variants {
			for _, rate := range plan.Config.Rates {
				w.cells = append(w.cells, cell{key: cellKey(run.Title, run.Variants[i].Label, rate),
					single: &run.Variants[i], rate: rate})
			}
		}
		for i := range run.Multi {
			for _, rate := range plan.Config.Rates {
				w.cells = append(w.cells, cell{key: cellKey(run.Title, run.Multi[i].Label, rate),
					multi: &run.Multi[i], rate: rate})
			}
		}
	}
	if len(w.cells) == 0 {
		return nil, fmt.Errorf("workload %s has no cells", name)
	}
	return w, nil
}

func cellKey(title, label string, rate float64) string {
	return fmt.Sprintf("%s | %s | rate=%.1f", title, label, rate)
}

// cellOut is what one cell run leaves behind. Times are offsets from the
// pass start, so they double as the cell's spans: cell [start, end], its
// setup child [setupStart, setupEnd] and its run child [setupEnd, end].
type cellOut struct {
	start, setupStart, setupEnd, end time.Duration

	digest string
	err    error

	// Filled only when a collector is attached (the traced pass).
	fired, canceled uint64
	snap            metrics.Snapshot
}

func (o cellOut) setup() time.Duration { return o.setupEnd - o.setupStart }

// runCell makes the same calls harness.runSeed makes — Build, Scale,
// core.NewFor*, Run* — and times them. With setupOnly it stops after
// core.NewFor*. A non-nil col is attached to the simulation.
func (w *benchWorkload) runCell(c cell, col *metrics.Collector, setupOnly bool, origin time.Time) cellOut {
	out := cellOut{start: time.Since(origin)}
	out.setupStart, out.setupEnd = out.start, out.start
	if c.fig1 {
		if !setupOnly {
			out.digest = digest(trace.GenerateFig1(rng.New(w.seed), trace.DefaultFig1Config()))
		}
		out.end = time.Since(origin)
		return out
	}
	cs := core.ClusterSpec{UnavailabilityRate: c.rate, Seed: w.seed}
	var (
		s   *core.Simulation
		run func() (any, error)
		err error
	)
	if c.multi != nil {
		opts, m := c.multi.Build(cs)
		opts.ShardWorkers, opts.Metrics = w.shardWorkers, col
		m = workload.ScaleMulti(m, w.scale)
		out.setupStart = time.Since(origin)
		s, err = core.NewForMultiWorkload(opts, m)
		run = func() (any, error) { return s.RunMultiWorkload(m) }
	} else {
		opts, sw := c.single.Build(cs)
		opts.ShardWorkers, opts.Metrics = w.shardWorkers, col
		sw = workload.Scale(sw, w.scale)
		out.setupStart = time.Since(origin)
		s, err = core.NewForWorkload(opts, sw)
		run = func() (any, error) { return s.RunWorkload(sw) }
	}
	out.setupEnd = time.Since(origin)
	if err == nil && !setupOnly {
		var res any
		res, err = run()
		out.digest = digest(res)
		out.fired, out.canceled = s.Sim.Fired(), s.Sim.Canceled()
		out.snap = col.Snapshot()
	}
	out.err = err
	out.end = time.Since(origin)
	return out
}

// pass is one run of every cell of a workload.
type pass struct {
	wall time.Duration
	outs []cellOut
}

// setupPass sets every cell up once without running it, one cell at a
// time from a collected heap, and returns the host time spent inside
// core.NewFor* over all cells.
func (w *benchWorkload) setupPass() time.Duration {
	runtime.GC()
	origin := time.Now()
	var d time.Duration
	for _, c := range w.cells {
		d += w.runCell(c, nil, true, origin).setup()
	}
	return d
}

// runPass runs every cell on a pool of w.cellWorkers goroutines, claiming
// cells in serial order as moonbench's sweep pool does. traced attaches a
// fresh collector to each cell.
func (w *benchWorkload) runPass(traced bool) pass {
	p := pass{outs: make([]cellOut, len(w.cells))}
	origin := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(w.cellWorkers, len(w.cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.cells) {
					return
				}
				var col *metrics.Collector
				if traced {
					col = metrics.New(metrics.DefaultBucket)
				}
				p.outs[i] = w.runCell(w.cells[i], col, false, origin)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(origin)
	return p
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median[T time.Duration | float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
