// Package sim implements the discrete-event simulation core used by the
// MOON reproduction.
//
// A Simulation owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in schedule order, which together with
// the deterministic rng package makes every run bit-reproducible for a given
// seed. All model time is in simulated seconds (float64).
//
// The event queue is an indexed 4-ary min-heap over (at, seq). Heap slots
// hold the sort key by value, so sifts compare keys without dereferencing
// event storage, and every queued event records its slot, so Cancel removes
// the event in O(log n) and recycles its storage at once. Real removal keeps
// the heap exactly as large as the set of live events.
//
// Reschedule is the dominant queue operation — every netmodel rate change
// moves a flow-completion event, mostly to a later time — so it is lazy in
// that direction. Each event keeps its true key on its node; a slot's key is
// only a lower bound of it. Moving an event later updates the node alone and
// leaves the slot's smaller key in place, which keeps the heap valid. Moving
// it earlier re-keys the slot and sifts it up. Before the head is fired or
// compared with a deadline, fixHead re-keys a stale head and sifts it down
// until the head holds its true key, which is then the true minimum: the pop
// order stays exactly (at, seq).
//
// The queue is also allocation-free at steady state: event storage is pooled
// in a per-Simulation free list and recycled as soon as an event fires or is
// canceled, so the hot schedule→fire→reschedule cycle of tickers, heartbeats
// and flow-completion events runs without per-event allocation.
package sim

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// Time is a point in simulated time, in seconds since the simulation epoch.
type Time = float64

// Forever is a time later than any event the simulator will reach.
const Forever Time = math.MaxFloat64

// node is the pooled storage behind one scheduled callback. After the event
// fires or is canceled, gen is bumped and the node returns to the free list,
// invalidating every outstanding handle to it. It holds no event name: the
// true key below would otherwise move every node up a size class.
type node struct {
	fn  func()
	gen uint64
	idx int // heap slot while queued, -1 otherwise
	// at and seq are the event's true key. The slot's key may be smaller
	// (see Reschedule); it is never larger.
	at  Time
	seq uint64
}

// entry is one heap slot: a lower bound of its event's key, stored by value
// next to the node, equal to the true key unless the event was postponed.
type entry struct {
	at  Time
	seq uint64
	n   *node
}

// less is the queue's total order: by time, then by schedule order. seq is
// unique, so the order is strict — any correct priority queue pops the same
// sequence, which is what keeps run output independent of queue internals.
func (a *entry) less(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a generation-checked handle for a scheduled callback. The zero
// Event references nothing and behaves like an event that already ended:
// Cancel is a no-op, Pending reports false. Handles stay safe after the
// underlying storage is recycled — a stale handle can never cancel or
// observe an unrelated later event.
type Event struct {
	n   *node
	gen uint64
}

// live reports whether the handle still refers to its original event.
func (e Event) live() bool { return e.n != nil && e.n.gen == e.gen }

// Canceled reports whether the event is dead: canceled, or already fired
// and its storage retired. It returns false for a pending event and for an
// event currently executing its callback.
func (e Event) Canceled() bool { return !e.live() }

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool { return e.live() && e.n.idx >= 0 }

// --- event queue -----------------------------------------------------------

// queue is the indexed 4-ary min-heap: the children of slot i are
// 4i+1..4i+4. It is half as deep as a binary heap and the four sibling
// keys share one or two cache lines, so a sift touches fewer lines for a
// few extra comparisons.
type queue []entry

func (q *queue) push(e entry) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

// remove takes the entry at slot i out of the heap and returns its node,
// marked unqueued.
func (q *queue) remove(i int) *node {
	h := *q
	n := h[i].n
	last := len(h) - 1
	h[i] = h[last]
	h[last] = entry{}
	*q = h[:last]
	if i < last {
		// The backfilled entry may belong above or below slot i.
		if i > 0 && h[i].less(&h[(i-1)/4]) {
			q.up(i)
		} else {
			q.down(i)
		}
	}
	n.idx = -1
	return n
}

// up sifts the entry at slot i toward the root, moving a hole rather than
// swapping, and records every moved entry's new slot.
func (q queue) up(i int) {
	e := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].n.idx = i
		i = p
	}
	q[i] = e
	e.n.idx = i
}

// down sifts the entry at slot i toward the leaves.
func (q queue) down(i int) {
	e := q[i]
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, len(q)); j++ {
			if q[j].less(&q[m]) {
				m = j
			}
		}
		if !q[m].less(&e) {
			break
		}
		q[i] = q[m]
		q[i].n.idx = i
		i = m
	}
	q[i] = e
	e.n.idx = i
}

// --- simulation -------------------------------------------------------------

// Simulation is a discrete-event scheduler. It is not safe for concurrent
// use; the whole model runs single-threaded over virtual time. Independent
// Simulations share nothing and may run on different goroutines.
type Simulation struct {
	now     Time
	q       queue
	free    []*node // retired nodes awaiting reuse
	nextSeq uint64
	// fired counts events executed, for diagnostics and livelock guards.
	fired uint64
	// canceled counts events killed via Cancel before they could fire.
	canceled uint64
	// rescheduled counts events moved in place via Reschedule.
	rescheduled uint64
	stopped     bool

	// barriers run when the simulation is about to leave the current
	// instant (see Barrier).
	barriers []func() bool

	// shards is the intra-run worker pool for parallel phases (see
	// Shards); nil until first use or SetShardWorkers.
	shards *ShardPool

	// Instrument handles (nil without a collector; nil handles no-op, so
	// the hot path stays allocation-free when metrics are off).
	mFired       *metrics.Counter
	mCanceled    *metrics.Counter
	mRescheduled *metrics.Counter
	mQueueDepth  *metrics.Series
}

// Instrument registers the event core's instruments on c: event throughput,
// cancellations and reschedules as time-bucketed counters, and a sampled
// queue-depth series. A nil collector (or never calling Instrument) leaves
// the simulation exactly as before — the pinned microbenchmarks stay at
// 0 allocs/op.
func (s *Simulation) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	s.mFired = c.TimedCounter(metrics.LayerSim, "events_fired", "")
	s.mCanceled = c.TimedCounter(metrics.LayerSim, "events_canceled", "")
	s.mRescheduled = c.TimedCounter(metrics.LayerSim, "events_rescheduled", "")
	s.mQueueDepth = c.SampleSeries(metrics.LayerSim, "queue_depth", "")
}

// New returns an empty simulation at time 0.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Canceled returns the number of events canceled before firing.
func (s *Simulation) Canceled() uint64 { return s.canceled }

// Rescheduled returns the number of events moved via Reschedule.
func (s *Simulation) Rescheduled() uint64 { return s.rescheduled }

// Pending returns the number of events currently queued to fire.
func (s *Simulation) Pending() int { return len(s.q) }

// --- node pool -------------------------------------------------------------

func (s *Simulation) alloc() *node {
	if k := len(s.free); k > 0 {
		n := s.free[k-1]
		s.free = s.free[:k-1]
		return n
	}
	return &node{}
}

// retire invalidates all handles to the node and returns it to the pool.
func (s *Simulation) retire(n *node) {
	n.gen++
	n.fn = nil
	s.free = append(s.free, n)
}

// --- scheduling ------------------------------------------------------------

// Schedule queues fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) Schedule(at Time, name string, fn func()) Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, s.now))
	}
	n := s.alloc()
	n.fn = fn
	n.at, n.seq = at, s.nextSeq
	s.q.push(entry{at: at, seq: n.seq, n: n})
	s.nextSeq++
	return Event{n: n, gen: n.gen}
}

// After queues fn to run delay seconds from now. A non-positive delay runs
// at the current instant, after events already queued for this instant.
func (s *Simulation) After(delay Time, name string, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return s.Schedule(s.now+delay, name, fn)
}

// Cancel prevents a pending event from firing, removing it from the queue
// and recycling its storage. Canceling a zero, stale, fired, or
// already-canceled event is a no-op.
func (s *Simulation) Cancel(e Event) {
	if !e.live() || e.n.idx < 0 {
		return
	}
	s.retire(s.q.remove(e.n.idx))
	s.canceled++
	s.mCanceled.IncAt(s.now)
}

// Reschedule moves a pending event to absolute time at and reports true.
// The event is re-keyed in place to (at, next seq) — the same seq a Cancel
// followed by Schedule would consume, so the pop order is identical; the
// handle stays valid and nothing is allocated or retired. It is not a
// cancel: Canceled() is unchanged. A zero, stale, fired or canceled handle
// reports false and changes nothing. Rescheduling into the past panics, as
// Schedule does.
func (s *Simulation) Reschedule(e Event, at Time) bool {
	if at < s.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, s.now))
	}
	n := e.n
	if !e.live() || n.idx < 0 {
		return false
	}
	n.at, n.seq = at, s.nextSeq
	s.nextSeq++
	// The new seq exceeds every queued one, so the key only falls below the
	// slot's if the time moves earlier. Otherwise the slot's key stays a
	// lower bound and the move waits for fixHead.
	if i := n.idx; at < s.q[i].at {
		s.q[i].at, s.q[i].seq = at, n.seq
		s.q.up(i)
	}
	s.rescheduled++
	s.mRescheduled.IncAt(s.now)
	return true
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulation) Stop() { s.stopped = true }

// Barrier registers fn to run between event callbacks: before the next
// event fires, before the clock advances to a later event, and before Step
// or RunUntil return with the queue drained or the deadline reached. fn
// reports whether it did any work; barriers are re-run until every
// registered fn reports an idle pass, so events a barrier schedules for the
// current instant still fire within it. A barrier that always reports work
// livelocks the simulation — fn must be idempotent at a given instant.
//
// This is the hook for models that batch per-callback work (the netmodel
// rate settling): they accumulate changes while a callback executes and
// reconcile once when it returns, instead of once per change. Running
// between callbacks — not merely at instant exit — keeps deferred work
// ordered exactly as an eager schedule would have run it: no other model
// code executes between the end of the triggering callback and the flush.
func (s *Simulation) Barrier(fn func() bool) {
	s.barriers = append(s.barriers, fn)
}

// settleBarriers runs the barriers until a pass is idle, so deferred work —
// which may cancel the queue head or schedule ahead of it — is flushed
// before the head is examined.
func (s *Simulation) settleBarriers() {
	for {
		did := false
		for _, fn := range s.barriers {
			if fn() {
				did = true
			}
		}
		if !did {
			return
		}
	}
}

// fixHead re-keys and sifts down a postponed head until the head slot
// holds its event's true key. Every other slot's key is a lower bound of its
// event's, so that head is the true minimum. The queue must be non-empty.
func (s *Simulation) fixHead() {
	for h := &s.q[0]; h.seq != h.n.seq; {
		h.at, h.seq = h.n.at, h.n.seq
		s.q.down(0)
	}
}

// fire pops the queue head, which fixHead has given its true key, and
// executes it.
func (s *Simulation) fire() {
	at := s.q[0].at
	n := s.q.remove(0)
	if at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", s.now, at))
	}
	s.now = at
	s.fired++
	s.mFired.IncAt(at)
	s.mQueueDepth.Observe(at, float64(len(s.q)))
	n.fn()
	// Retire only after the callback: a handle held by the callback itself
	// (or by code it calls synchronously) stays valid while it runs.
	s.retire(n)
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty (after giving barriers a final pass).
func (s *Simulation) Step() bool {
	s.settleBarriers()
	if len(s.q) == 0 {
		return false
	}
	s.fixHead()
	s.fire()
	return true
}

// RunUntil executes events until the queue is empty, Stop is called, or the
// next event would fire after deadline. The clock is left at the time of the
// last executed event (or advanced to deadline if it is reached with events
// still pending).
func (s *Simulation) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		s.settleBarriers()
		if len(s.q) == 0 {
			return
		}
		s.fixHead()
		if s.q[0].at > deadline {
			s.now = deadline
			return
		}
		s.fire()
	}
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulation) Run() { s.RunUntil(Forever) }

// Ticker repeatedly invokes fn every interval seconds until canceled via the
// returned stop function. The first tick fires one interval from now. The
// tick chain is allocation-free at steady state: each fired tick's storage
// is recycled by the free list into the next tick's Schedule.
func (s *Simulation) Ticker(interval Time, name string, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: Ticker interval must be positive")
	}
	var ev Event
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = s.After(interval, name, tick)
		}
	}
	ev = s.After(interval, name, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
	}
}
