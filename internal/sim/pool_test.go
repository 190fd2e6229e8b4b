package sim

import "testing"

// TestStaleHandleCannotCancelRecycledEvent is the safety property of the
// event free list: a handle kept past its event's lifetime must never
// affect a later event that happens to reuse the same storage.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	s := New()
	stale := s.Schedule(1, "first", func() {})
	s.Run() // fires and retires "first"; its node returns to the pool

	fired := false
	fresh := s.Schedule(2, "second", func() { fired = true })
	if fresh.n != stale.n {
		t.Skip("pool did not reuse the node; nothing to check")
	}
	s.Cancel(stale) // must not touch "second"
	if fresh.Canceled() {
		t.Fatal("stale handle canceled a recycled event")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
}

// TestFreeListReuse verifies fired events actually return to the pool.
func TestFreeListReuse(t *testing.T) {
	s := New()
	e := s.Schedule(1, "a", func() {})
	s.Run()
	reused := s.Schedule(2, "b", func() {})
	if reused.n != e.n {
		t.Fatal("fired event's storage was not recycled")
	}
	if reused.gen == e.gen {
		t.Fatal("recycled node kept its generation")
	}
}

// TestCancelCountsFreesAndSkips checks the Canceled counter, that Cancel
// reclaims storage at once, and that Step and RunUntil then fire only the
// survivors.
func TestCancelCountsFreesAndSkips(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, s.Schedule(float64(i+1), "e", func() {}))
	}
	for _, e := range evs[:4] {
		s.Cancel(e)
	}
	if s.Canceled() != 4 {
		t.Fatalf("Canceled() = %d, want 4", s.Canceled())
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", s.Pending())
	}
	if len(s.free) != 4 {
		t.Fatalf("free list holds %d nodes, want the 4 canceled", len(s.free))
	}
	s.RunUntil(5) // fires event 5; events 1-4 are gone
	if s.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1 (events 1-4 canceled, event 5 fired)", s.Fired())
	}
	s.Run()
	if s.Fired() != 6 {
		t.Fatalf("Fired() = %d, want 6", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("queue not drained: Pending=%d", s.Pending())
	}
}

// TestCancelDuringOwnCallback: canceling the handle of the currently
// executing event must be a no-op and must not corrupt the counters.
func TestCancelDuringOwnCallback(t *testing.T) {
	s := New()
	var self Event
	self = s.Schedule(1, "self", func() { s.Cancel(self) })
	s.Run()
	if s.Fired() != 1 || s.Canceled() != 0 {
		t.Fatalf("Fired=%d Canceled=%d, want 1/0", s.Fired(), s.Canceled())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}
