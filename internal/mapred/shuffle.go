package mapred

import (
	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// fetchState is a reducer's view of one map's output.
type fetchState int

const (
	fetchPending fetchState = iota
	fetchInflight
	fetchDone
	fetchBackoff
)

// shuffleState drives one reduce attempt's copy phase: it fetches this
// reducer's partition from every completed map, at most ParallelCopies at a
// time, retrying failed fetches after a backoff and reporting fetch
// failures to the JobTracker (which decides on map re-execution).
type shuffleState struct {
	in *Instance
	jt *JobTracker

	state     []fetchState
	backoffAt []float64
	failedSrc [][]int // per map: replica holders that already failed
	failCount []int   // per map: failures observed by THIS attempt (MOON rule)
	flows     []*netmodel.Flow

	// skip[m] is m while map m is unfetched and a later index once it is
	// fetched; skip[len(state)] ends the chain. fetchDone is terminal within
	// an attempt, so pump can follow the chain past fetched maps instead of
	// rescanning them (see unfetched).
	skip []int32

	fetched  int
	inflight int
	retryEv  sim.Event
	finished bool
}

func newShuffle(jt *JobTracker, in *Instance) *shuffleState {
	n := in.task.job.cfg.NumMaps
	skip := make([]int32, n+1)
	for m := range skip {
		skip[m] = int32(m)
	}
	return &shuffleState{
		in:        in,
		jt:        jt,
		state:     make([]fetchState, n),
		backoffAt: make([]float64, n),
		failedSrc: make([][]int, n),
		failCount: make([]int, n),
		flows:     make([]*netmodel.Flow, n),
		skip:      skip,
	}
}

// unfetched returns the first map at or after m that is not fetched, or
// len(state) if none is, halving the skip path it follows.
func (sh *shuffleState) unfetched(m int) int {
	for int(sh.skip[m]) != m {
		sh.skip[m] = sh.skip[sh.skip[m]]
		m = int(sh.skip[m])
	}
	return m
}

// partitionBytes is the share of one map output this reducer copies.
func (sh *shuffleState) partitionBytes() float64 {
	cfg := sh.in.task.job.cfg
	if cfg.NumReduces == 0 {
		return 0
	}
	return cfg.IntermediatePerMap / float64(cfg.NumReduces)
}

// pump starts fetches up to the parallel-copy limit. It is called on
// launch, on every map completion, on fetch completion, and on retry
// timers.
func (sh *shuffleState) pump() {
	if sh.finished || sh.in.phase != phaseShuffle || !sh.in.node.Available() {
		return
	}
	now := sh.jt.sim.Now()
	job := sh.in.task.job
	for m := sh.unfetched(0); m < len(sh.state) && sh.inflight < sh.jt.cfg.ParallelCopies; m = sh.unfetched(m + 1) {
		st := sh.state[m]
		if st == fetchInflight {
			continue
		}
		if st == fetchBackoff {
			if now < sh.backoffAt[m] {
				sh.armRetry(sh.backoffAt[m] - now)
				continue
			}
			sh.state[m] = fetchPending
		}
		mt := job.maps[m]
		if !mt.completed || mt.output == "" {
			continue
		}
		sh.startFetch(m, mt)
	}
	if sh.fetched == len(sh.state) {
		sh.complete()
	}
}

func (sh *shuffleState) startFetch(m int, mt *Task) {
	bytes := sh.partitionBytes()
	block := dfs.BlockID{File: mt.output, Index: 0}
	outputAtFetch := mt.output
	flow, err := sh.jt.fs.ReadBlock(sh.in.node, block, bytes, sh.failedSrc[m], func(src int, err error) {
		sh.fetchDone(m, src, outputAtFetch, err)
	})
	if err != nil {
		// No live replica right now: immediate fetch failure.
		sh.fail(m, -1)
		return
	}
	sh.state[m] = fetchInflight
	sh.flows[m] = flow
	sh.inflight++
}

// fetchDone handles one fetch completion or failure.
func (sh *shuffleState) fetchDone(m, src int, fetchedFrom string, err error) {
	if sh.finished {
		return
	}
	if sh.state[m] != fetchInflight {
		return // canceled and superseded
	}
	sh.state[m] = fetchPending
	sh.flows[m] = nil
	sh.inflight--
	if err != nil {
		if src >= 0 {
			sh.failedSrc[m] = append(sh.failedSrc[m], src)
		}
		sh.fail(m, src)
		sh.pump()
		return
	}
	// The data arrived. Even if the map was re-executed meanwhile, a
	// fully copied partition is valid (it is the same map output).
	_ = fetchedFrom
	sh.state[m] = fetchDone
	sh.skip[m] = int32(m + 1)
	sh.fetched++
	sh.pump()
}

// fail records a fetch failure, reports it, and backs the map off.
func (sh *shuffleState) fail(m, src int) {
	sh.failCount[m]++
	sh.state[m] = fetchBackoff
	sh.backoffAt[m] = sh.jt.sim.Now() + sh.jt.cfg.FetchRetryInterval
	sh.jt.reportFetchFailure(sh.in, m, sh.failCount[m])
	sh.armRetry(sh.jt.cfg.FetchRetryInterval)
}

// mapInvalidated clears per-map retry state so the new attempt's output is
// fetched fresh (already-fetched partitions stay valid).
func (sh *shuffleState) mapInvalidated(m int) {
	if sh.finished || sh.state[m] == fetchDone {
		return
	}
	if sh.state[m] == fetchInflight {
		// Detach before canceling so the cancel callback (which fires
		// synchronously) sees a non-inflight state and returns without
		// recording a spurious failure.
		f := sh.flows[m]
		sh.flows[m] = nil
		sh.state[m] = fetchPending
		sh.inflight--
		if f != nil {
			sh.jt.net.Cancel(f)
		}
	}
	sh.state[m] = fetchPending
	sh.backoffAt[m] = 0
	sh.failedSrc[m] = nil
	sh.failCount[m] = 0
}

func (sh *shuffleState) armRetry(delay float64) {
	if sh.retryEv.Pending() {
		return
	}
	sh.retryEv = sh.jt.sim.After(delay, "shuffle.retry", func() {
		sh.retryEv = sim.Event{}
		sh.pump()
	})
}

// complete finishes the copy phase and hands the attempt to compute.
func (sh *shuffleState) complete() {
	if sh.finished {
		return
	}
	sh.finished = true
	sh.jt.shuffleCompleted(sh.in)
}

// cancel aborts all in-flight fetches (attempt killed).
func (sh *shuffleState) cancel() {
	sh.finished = true
	sh.jt.sim.Cancel(sh.retryEv)
	sh.retryEv = sim.Event{}
	for m, f := range sh.flows {
		if f != nil {
			sh.flows[m] = nil
			sh.jt.net.Cancel(f)
		}
	}
}
