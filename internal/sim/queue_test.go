package sim

import (
	"testing"

	"repro/internal/rng"
)

// refEvent is one event as the reference heap sees it. id names the
// callback; a rescheduled event is a new refEvent with the same id.
type refEvent struct {
	at       Time
	seq      uint64
	id       uint64
	canceled bool
}

// refHeap is a plain binary min-heap over the queue's (at, seq) total order
// with lazy cancellation: the textbook design, written independently of the
// indexed heap it checks. Any correct priority queue pops the same strict
// sequence, so driving both with one operation stream and comparing orders
// checks the simulation's queue end to end — sifts, slot bookkeeping and
// removal from the middle.
type refHeap struct {
	es []*refEvent
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refHeap) len() int { return len(h.es) }

func (h *refHeap) push(e *refEvent) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *refHeap) pop() *refEvent {
	e := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es[last] = nil
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.es) && refLess(h.es[l], h.es[m]) {
			m = l
		}
		if r < len(h.es) && refLess(h.es[r], h.es[m]) {
			m = r
		}
		if m == i {
			return e
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// FuzzQueueMatchesReference drives the simulation and a shadow binary heap
// with one randomized schedule/cancel/reschedule/fire stream derived from
// the seed and requires the identical fire order. Delays are quantized so
// many events collide on the same instant (exercising the seq tie-break)
// with occasional far-future outliers; cancels and reschedules hit
// arbitrary heap slots. The reference models a reschedule as a cancel plus
// a push with a fresh seq.
func FuzzQueueMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		s := New()
		h := &refHeap{}

		type pair struct {
			ev  Event
			ref *refEvent
		}
		var live []pair
		var fired []uint64
		nextID, nextSeq := uint64(0), uint64(0)
		delay := func() float64 {
			switch r.Intn(10) {
			case 0:
				return 0 // same instant
			case 1:
				return r.Float64() * 1e7 // far future
			default:
				return float64(r.Intn(64)) * 0.25 // dense collisions
			}
		}

		for op := 0; op < 20000; op++ {
			switch k := r.Float64(); {
			case k < 0.5 || len(live) == 0:
				d := delay()
				id := nextID
				nextID++
				ev := s.After(d, "diff", func() { fired = append(fired, id) })
				ref := &refEvent{at: s.Now() + d, seq: nextSeq, id: id}
				nextSeq++
				h.push(ref)
				live = append(live, pair{ev, ref})
			case k < 0.65:
				i := r.Intn(len(live))
				p := live[i]
				at := s.Now() + delay()
				if !p.ev.Pending() {
					if s.Reschedule(p.ev, at) {
						t.Fatalf("seed %d: Reschedule of a fired event reported true", seed)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				if !s.Reschedule(p.ev, at) {
					t.Fatalf("seed %d: Reschedule of a pending event reported false", seed)
				}
				p.ref.canceled = true
				ref := &refEvent{at: at, seq: nextSeq, id: p.ref.id}
				nextSeq++
				h.push(ref)
				live[i].ref = ref
			case k < 0.8:
				i := r.Intn(len(live))
				p := live[i]
				if p.ev.Pending() {
					s.Cancel(p.ev)
					p.ref.canceled = true
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				s.Step()
			}
		}
		for s.Step() {
		}

		var want []uint64
		for h.len() > 0 {
			if e := h.pop(); !e.canceled {
				want = append(want, e.id)
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, heap reference expects %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire order diverges at %d: queue popped %d, heap reference %d",
					seed, i, fired[i], want[i])
			}
		}
	})
}

// TestCancelCompaction checks that canceling all but the last of 1k queued
// events leaves no corpses; the survivor is drained by Step.
func TestCancelCompaction(t *testing.T) {
	checkMassCancelLeavesOnlySurvivors(t, 1000,
		func(i int) Time { return float64(i + 1) },
		func(i int) bool { return i == 999 }, true)
}

// TestCompactionAt100kPending checks that canceling 99% of 100k queued events
// leaves no corpses at scale; the survivors are drained by Run.
func TestCompactionAt100kPending(t *testing.T) {
	checkMassCancelLeavesOnlySurvivors(t, 100000,
		func(i int) Time { return float64(i%9973) + 1 },
		func(i int) bool { return i%100 == 0 }, false)
}

// checkMassCancelLeavesOnlySurvivors schedules total events at at(i), cancels
// every one keep(i) rejects, and checks that mass cancellation leaves no
// corpses: right after the cancels the heap holds exactly the survivors and
// every canceled node is back on the free list; the survivors then all fire,
// in order, drained by Step when step is set and by Run otherwise.
func checkMassCancelLeavesOnlySurvivors(t *testing.T, total int, at func(i int) Time, keep func(i int) bool, step bool) {
	t.Helper()
	s := New()
	var fired int
	lastAt := -1.0
	fn := func() {
		if s.Now() < lastAt {
			t.Fatalf("fire order regressed: %v after %v", s.Now(), lastAt)
		}
		lastAt = s.Now()
		fired++
	}
	evs := make([]Event, 0, total)
	for i := 0; i < total; i++ {
		evs = append(evs, s.Schedule(at(i), "e", fn))
	}
	kept := 0
	for i, e := range evs {
		if keep(i) {
			kept++
			continue
		}
		s.Cancel(e)
	}
	if got := s.Pending(); got != kept {
		t.Fatalf("Pending() = %d, want %d", got, kept)
	}
	if got := len(s.q); got != kept {
		t.Fatalf("heap holds %d events for %d survivors", got, kept)
	}
	if got := len(s.free); got != total-kept {
		t.Fatalf("free list holds %d nodes, want the %d canceled", got, total-kept)
	}
	if step {
		steps := 0
		for s.Step() {
			steps++
		}
		if steps != kept {
			t.Fatalf("Step fired %d events, want %d", steps, kept)
		}
	} else {
		s.Run()
	}
	if fired != kept {
		t.Fatalf("fired %d events, want %d", fired, kept)
	}
	if got := len(s.q); got != 0 {
		t.Fatalf("queue not empty after run: %d stored", got)
	}
}
