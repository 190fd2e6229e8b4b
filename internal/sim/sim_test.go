package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.Schedule(at, "e", func() { got = append(got, at) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, "tie", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(10, "setup", func() {
		s.After(-5, "neg", func() { fired = true })
	})
	s.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, "later", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, "past", func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Cancel of the zero handle and double cancel are no-ops.
	s.Cancel(Event{})
	s.Cancel(e)
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var victim Event
	victim = s.Schedule(2, "victim", func() { fired = true })
	s.Schedule(1, "killer", func() { s.Cancel(victim) })
	s.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntilDeadline(t *testing.T) {
	s := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10, 20} {
		at := at
		s.Schedule(at, "e", func() { fired = append(fired, at) })
	}
	s.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want advanced to deadline 5", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), "e", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt the run: fired %d", count)
	}
	// Run resumes after Stop.
	s.Run()
	if count != 10 {
		t.Fatalf("resumed run fired %d total, want 10", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(1, "r", recurse)
		}
	}
	s.After(1, "r", recurse)
	s.Run()
	if depth != 5 {
		t.Fatalf("recursive scheduling depth = %d, want 5", depth)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New()
	ticks := 0
	var stop func()
	stop = s.Ticker(10, "hb", func() {
		ticks++
		if ticks == 4 {
			stop()
		}
	})
	s.RunUntil(1000)
	if ticks != 4 {
		t.Fatalf("ticker fired %d times, want 4", ticks)
	}
	if s.Now() < 40 {
		t.Fatalf("clock = %v, want >= 40", s.Now())
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	s := New()
	ticks := 0
	stop := s.Ticker(10, "hb", func() { ticks++ })
	stop()
	s.Run()
	if ticks != 0 {
		t.Fatalf("stopped ticker fired %d times", ticks)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-interval ticker did not panic")
		}
	}()
	New().Ticker(0, "bad", func() {})
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(float64(i), "e", func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestPendingCount(t *testing.T) {
	s := New()
	e := s.Schedule(1, "a", func() {})
	s.Schedule(2, "b", func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after cancel, want 1", s.Pending())
	}
}

func TestRescheduleMovesPendingEvent(t *testing.T) {
	s := New()
	var got []string
	late := s.Schedule(5, "late", func() { got = append(got, "late") })
	s.Schedule(3, "mid", func() { got = append(got, "mid") })
	early := s.Schedule(1, "early", func() { got = append(got, "early") })
	if !s.Reschedule(late, 2) || !s.Reschedule(early, 4) {
		t.Fatal("Reschedule of a pending event reported false")
	}
	if !late.Pending() || !early.Pending() || late.Canceled() {
		t.Fatal("handle not pending after Reschedule")
	}
	if s.Pending() != 3 || s.Rescheduled() != 2 || s.Canceled() != 0 {
		t.Fatalf("Pending=%d Rescheduled=%d Canceled=%d, want 3/2/0",
			s.Pending(), s.Rescheduled(), s.Canceled())
	}
	s.Run()
	if want := []string{"late", "mid", "early"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if s.Now() != 4 {
		t.Fatalf("clock = %v, want 4", s.Now())
	}
}

func TestRescheduleDeadHandles(t *testing.T) {
	s := New()
	fired := s.Schedule(1, "fired", func() {})
	canceled := s.Schedule(2, "canceled", func() {})
	s.Cancel(canceled)
	s.Run()
	// fired's storage is recycled into fresh, so the fired handle is also
	// stale: it must not move the event that now owns its node.
	freshAt := -1.0
	fresh := s.Schedule(3, "fresh", func() { freshAt = s.Now() })
	for _, c := range []struct {
		name string
		e    Event
	}{{"zero", Event{}}, {"fired", fired}, {"canceled", canceled}} {
		if s.Reschedule(c.e, 10) {
			t.Errorf("Reschedule of a %s handle reported true", c.name)
		}
	}
	if !fresh.Pending() {
		t.Fatal("a dead handle disturbed a live event")
	}
	var self Event
	selfOK := true
	self = s.Schedule(4, "self", func() { selfOK = s.Reschedule(self, 20) })
	s.Run()
	if selfOK {
		t.Error("Reschedule of the executing event reported true")
	}
	if freshAt != 3 || s.Now() != 4 {
		t.Fatalf("fresh fired at %v, clock %v; want 3 and 4", freshAt, s.Now())
	}
	if s.Rescheduled() != 0 || s.Canceled() != 1 {
		t.Fatalf("Rescheduled=%d Canceled=%d, want 0/1", s.Rescheduled(), s.Canceled())
	}
}

func TestReschedulePastPanics(t *testing.T) {
	s := New()
	e := s.Schedule(20, "pending", func() {})
	s.Schedule(10, "later", func() {})
	s.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling into the past did not panic")
		}
	}()
	s.Reschedule(e, 5)
}

// TestRescheduleTieOrderMatchesCancelSchedule: a moved event takes a fresh
// seq, so among events at its new instant it fires exactly where a
// Cancel+Schedule at the same point would have put it.
func TestRescheduleTieOrderMatchesCancelSchedule(t *testing.T) {
	run := func(move func(s *Simulation, e Event, fn func()) Event) []int {
		s := New()
		var got []int
		evs := make([]Event, 6)
		for i := range evs {
			i := i
			evs[i] = s.Schedule(float64(1+i%3), "e", func() { got = append(got, i) })
		}
		// Move events onto instants already holding events scheduled
		// before and after them.
		evs[0] = move(s, evs[0], func() { got = append(got, 0) })
		s.Schedule(2, "tail", func() { got = append(got, 100) })
		evs[5] = move(s, evs[5], func() { got = append(got, 5) })
		evs[1] = move(s, evs[1], func() { got = append(got, 1) })
		s.Run()
		return got
	}
	viaReschedule := run(func(s *Simulation, e Event, _ func()) Event {
		if !s.Reschedule(e, 2) {
			t.Fatal("Reschedule reported false")
		}
		return e
	})
	viaCancel := run(func(s *Simulation, e Event, fn func()) Event {
		s.Cancel(e)
		return s.Schedule(2, "e", fn)
	})
	if fmt.Sprint(viaReschedule) != fmt.Sprint(viaCancel) {
		t.Fatalf("Reschedule order %v, Cancel+Schedule order %v", viaReschedule, viaCancel)
	}
}

// Property: for any set of event times, execution order is a sorted
// permutation of the input.
func TestQuickOrdering(t *testing.T) {
	if err := quick.Check(func(times []uint16) bool {
		s := New()
		var got []float64
		for _, u := range times {
			at := float64(u)
			s.Schedule(at, "q", func() { got = append(got, at) })
		}
		s.Run()
		if len(got) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(got)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentCountsReschedules: with a collector attached, each
// reschedule lands in sim/events_rescheduled and none in events_canceled.
func TestInstrumentCountsReschedules(t *testing.T) {
	s := New()
	c := metrics.New(100)
	s.Instrument(c)
	e := s.Schedule(10, "e", func() {})
	s.Reschedule(e, 20)
	s.Reschedule(e, 5)
	s.Run()
	got := map[string]float64{}
	for _, p := range c.Snapshot().Counters {
		got[p.Layer+"/"+p.Name] = p.Value
	}
	if got["sim/events_rescheduled"] != 2 || got["sim/events_canceled"] != 0 || got["sim/events_fired"] != 1 {
		t.Fatalf("counters %v, want 2 rescheduled, 0 canceled, 1 fired", got)
	}
}
