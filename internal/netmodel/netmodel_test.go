package netmodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testbed builds a 4-node cluster (3 volatile, 1 dedicated) with the given
// outage schedule on volatile node 0.
func testbed(outages []trace.Interval, cfg Config) (*sim.Simulation, *cluster.Cluster, *Network) {
	s := sim.New()
	traces := []trace.Trace{
		{Duration: 1e6, Outages: outages},
		{Duration: 1e6},
		{Duration: 1e6},
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 1})
	return s, c, New(s, c, cfg)
}

func simpleCfg() Config {
	return Config{NodeBandwidth: 100, DiskBandwidth: 50, StallTimeout: 60}
}

func TestSingleTransferTime(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var doneAt float64 = -1
	n.Transfer(c.Node(1), c.Node(2), 1000, func(err error) {
		if err != nil {
			t.Errorf("transfer failed: %v", err)
		}
		doneAt = s.Now()
	})
	s.Run()
	// 1000 bytes at 100 B/s = 10 s.
	if math.Abs(doneAt-10) > 1e-9 {
		t.Fatalf("transfer finished at %v, want 10", doneAt)
	}
	if n.TotalBytes() != 1000 {
		t.Fatalf("TotalBytes = %v", n.TotalBytes())
	}
	if n.Consumed(1) != 1000 || n.Consumed(2) != 1000 {
		t.Fatalf("consumed = %v/%v, want 1000/1000", n.Consumed(1), n.Consumed(2))
	}
}

func TestFairSharingAtSource(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var t1, t2 float64
	n.Transfer(c.Node(1), c.Node(2), 1000, func(error) { t1 = s.Now() })
	n.Transfer(c.Node(1), c.Node(3), 1000, func(error) { t2 = s.Now() })
	s.Run()
	// Two flows share the 100 B/s source NIC: both take ~20 s.
	if math.Abs(t1-20) > 1e-6 || math.Abs(t2-20) > 1e-6 {
		t.Fatalf("completions at %v and %v, want 20", t1, t2)
	}
}

func TestRateRecoversWhenContenderFinishes(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var tBig float64
	n.Transfer(c.Node(1), c.Node(2), 500, func(error) {}) // shares until t=10
	n.Transfer(c.Node(1), c.Node(3), 1500, func(error) { tBig = s.Now() })
	s.Run()
	// Big flow: 10 s at 50 B/s (500 B), then 1000 B at 100 B/s => t=20.
	if math.Abs(tBig-20) > 1e-6 {
		t.Fatalf("big flow finished at %v, want 20", tBig)
	}
}

func TestLocalCopyUsesDisk(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var doneAt float64
	n.Transfer(c.Node(1), c.Node(1), 500, func(error) { doneAt = s.Now() })
	s.Run()
	// 500 bytes at 50 B/s disk = 10 s.
	if math.Abs(doneAt-10) > 1e-9 {
		t.Fatalf("local copy finished at %v, want 10", doneAt)
	}
}

func TestZeroByteTransferCompletesImmediately(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	done := false
	var errGot error
	n.Transfer(c.Node(1), c.Node(2), 0, func(err error) { done, errGot = true, err })
	s.Run()
	if !done || errGot != nil {
		t.Fatalf("zero-byte transfer done=%v err=%v", done, errGot)
	}
	if s.Now() != 0 {
		t.Fatalf("zero-byte transfer advanced clock to %v", s.Now())
	}
}

func TestOutagePausesTransfer(t *testing.T) {
	// Node 0 down during [5, 20): a 1000-byte flow from node 0 pauses and
	// resumes (outage 15 s < stall timeout 60 s).
	s, c, n := testbed([]trace.Interval{{Start: 5, End: 20}}, simpleCfg())
	var doneAt float64
	var errGot error
	n.Transfer(c.Node(0), c.Node(1), 1000, func(err error) { doneAt, errGot = s.Now(), err })
	s.Run()
	if errGot != nil {
		t.Fatalf("transfer failed: %v", errGot)
	}
	// 5 s at 100 B/s = 500 B, pause 15 s, then 500 B more: t = 25.
	if math.Abs(doneAt-25) > 1e-6 {
		t.Fatalf("paused transfer finished at %v, want 25", doneAt)
	}
}

func TestLongOutageStallsTransfer(t *testing.T) {
	s, c, n := testbed([]trace.Interval{{Start: 5, End: 500}}, simpleCfg())
	var errGot error
	var failAt float64
	n.Transfer(c.Node(0), c.Node(1), 1000, func(err error) { errGot, failAt = err, s.Now() })
	s.RunUntil(1000)
	if errGot != ErrStalled {
		t.Fatalf("err = %v, want ErrStalled", errGot)
	}
	// Stall timer arms at suspension (t=5), fires 60 s later.
	if math.Abs(failAt-65) > 1e-6 {
		t.Fatalf("stall failure at %v, want 65", failAt)
	}
}

func TestTransferToInitiallyDownNodeStalls(t *testing.T) {
	s, c, n := testbed([]trace.Interval{{Start: 0, End: 500}}, simpleCfg())
	var errGot error
	n.Transfer(c.Node(1), c.Node(0), 1000, func(err error) { errGot = err })
	s.RunUntil(1000)
	if errGot != ErrStalled {
		t.Fatalf("err = %v, want ErrStalled", errGot)
	}
}

func TestStallDisarmedOnResume(t *testing.T) {
	// Outage shorter than the stall timeout: flow must not fail even
	// though it was down at the deadline-less boundary.
	s, c, n := testbed([]trace.Interval{{Start: 1, End: 50}}, simpleCfg())
	var errGot error
	done := false
	n.Transfer(c.Node(0), c.Node(1), 100, func(err error) { errGot, done = err, true })
	s.RunUntil(1000)
	if !done || errGot != nil {
		t.Fatalf("done=%v err=%v, want clean completion", done, errGot)
	}
}

func TestCancel(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var errGot error
	f := n.Transfer(c.Node(1), c.Node(2), 1e9, func(err error) { errGot = err })
	s.Schedule(5, "cancel", func() { n.Cancel(f) })
	s.RunUntil(100)
	if errGot != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", errGot)
	}
	// Partial progress is still accounted.
	if n.Consumed(1) != 500 {
		t.Fatalf("consumed = %v, want 500 (5 s at 100 B/s)", n.Consumed(1))
	}
	// Double cancel is a no-op.
	n.Cancel(f)
}

func TestCallbackErrorExactlyOnce(t *testing.T) {
	s, c, n := testbed([]trace.Interval{{Start: 0, End: 1e5}}, simpleCfg())
	calls := 0
	f := n.Transfer(c.Node(0), c.Node(1), 100, func(error) { calls++ })
	s.RunUntil(1000)
	n.Cancel(f) // already failed via stall; must not double-fire
	s.RunUntil(2000)
	if calls != 1 {
		t.Fatalf("callback fired %d times", calls)
	}
}

func TestConcurrentFlowConservation(t *testing.T) {
	// Many flows into one destination: aggregate completion respects the
	// destination NIC capacity.
	s, c, n := testbed(nil, simpleCfg())
	const flows = 5
	var last float64
	for i := 0; i < flows; i++ {
		src := c.Node(1 + i%3)
		n.Transfer(src, c.Node(0), 200, func(error) {
			if s.Now() > last {
				last = s.Now()
			}
		})
	}
	s.Run()
	// 1000 bytes total through a 100 B/s NIC >= 10 s; sources also cap.
	if last < 10-1e-6 {
		t.Fatalf("flows finished at %v, violating capacity (min 10)", last)
	}
	if math.Abs(n.Consumed(0)-1000) > 1e-6 {
		t.Fatalf("dst consumed %v, want 1000", n.Consumed(0))
	}
}

func TestActiveFlowsBookkeeping(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	n.Transfer(c.Node(1), c.Node(2), 1000, func(error) {})
	if n.ActiveFlows(1) != 1 || n.ActiveFlows(2) != 1 {
		t.Fatalf("active flows %d/%d, want 1/1", n.ActiveFlows(1), n.ActiveFlows(2))
	}
	s.Run()
	if n.ActiveFlows(1) != 0 || n.ActiveFlows(2) != 0 {
		t.Fatal("flows not removed after completion")
	}
	if n.ActiveFlows(-1) != 0 || n.ActiveFlows(99) != 0 {
		t.Fatal("out-of-range node IDs should report 0 flows")
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	_ = s
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	n.Transfer(c.Node(1), c.Node(2), -1, func(error) {})
}

// TestMidInstantReadsSeeSettledState pins the observable contract of
// batched settling: endpoint changes only mark nodes dirty, but every read
// accessor flushes first, so state seen from inside an event callback is
// indistinguishable from the old settle-on-every-change schedule.
func TestMidInstantReadsSeeSettledState(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	n.Transfer(c.Node(1), c.Node(2), 1000, func(error) {})
	s.After(5, "probe", func() {
		// Progress is charged at settle points, never speculatively:
		// with nothing marked dirty since t=0, the half-finished flow
		// has no settled bytes yet (matching the old per-change
		// schedule, which also only settled on changes).
		if got := n.Consumed(1); got != 0 {
			t.Errorf("Consumed(src) before any change = %v, want 0", got)
		}
		// A new transfer marks node 1 dirty. Reads issued before the
		// end-of-instant flush must still observe it: the flush charges
		// flow 1's elapsed 500 B and re-shares the NIC.
		n.Transfer(c.Node(1), c.Node(3), 1000, func(error) {})
		if got := n.ActiveFlows(1); got != 2 {
			t.Errorf("ActiveFlows(src) after second transfer = %d, want 2", got)
		}
		if got := n.Consumed(1); math.Abs(got-500) > 1e-6 {
			t.Errorf("Consumed(src) after second transfer = %v, want 500", got)
		}
		if got := n.TotalBytes(); math.Abs(got-500) > 1e-6 {
			t.Errorf("TotalBytes mid-instant = %v, want 500", got)
		}
	})
	s.Run()
	// Flow 1: 500 B at full rate, then 500 B at half rate (5+10 s).
	// Flow 2: 1000 B, half rate until t=15 (500 B), full rate after (+5 s).
	if got := n.Consumed(1); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("Consumed(src) final = %v, want 2000", got)
	}
	if got := n.TotalBytes(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("TotalBytes final = %v, want 2000", got)
	}
	if s.Now() != 20 {
		t.Fatalf("simulation ended at %v, want 20", s.Now())
	}
}

// TestDueFlowCascadesInsideTransfer pins the one endpoint change that must
// not defer: a flow whose completion lands exactly at the instant of a
// Transfer touching its endpoint finishes inside that Transfer call, and
// its done callback runs before the caller's next statement — as the eager
// per-change recompute would have found it at zero remaining.
func TestDueFlowCascadesInsideTransfer(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var order []string
	// Scheduled before the flow exists, so the probe fires first at t=10,
	// ahead of the flow's own completion event.
	s.Schedule(10, "probe", func() {
		order = append(order, "probe")
		n.Transfer(c.Node(1), c.Node(3), 500, func(error) {})
		order = append(order, "after Transfer")
	})
	var doneAt float64 = -1
	// 1000 B at 100 B/s completes at exactly t=10.
	n.Transfer(c.Node(1), c.Node(2), 1000, func(err error) {
		if err != nil {
			t.Errorf("due flow failed: %v", err)
		}
		doneAt = s.Now()
		order = append(order, "due done")
	})
	s.Run()
	if want := "[probe due done after Transfer]"; fmt.Sprint(order) != want {
		t.Fatalf("order %v, want %s", order, want)
	}
	if doneAt != 10 {
		t.Fatalf("due flow finished at %v, want 10", doneAt)
	}
}

// TestSubUlpRescheduleIsNotDue: at t=1e6 a 1e-3 B flow's completion delay
// (~8.5e-12 s) is below the clock's ulp, so its completion is rescheduled
// to the current instant during the instant itself. It has made no
// progress since, so it is not due: a later Transfer on its endpoint
// defers as usual, and the flow completes at its own event.
func TestSubUlpRescheduleIsNotDue(t *testing.T) {
	s := sim.New()
	c := cluster.New(s, cluster.Config{DedicatedNodes: 3})
	n := New(s, c, DefaultConfig())
	const at = 1e6
	var tiny *Flow
	tinyDone := false
	var tinyAt float64
	s.Schedule(at, "probe", func() {
		tiny = n.Transfer(c.Node(0), c.Node(1), 1e-3, func(err error) {
			if err != nil {
				t.Errorf("sub-ulp flow failed: %v", err)
			}
			tinyDone, tinyAt = true, s.Now()
		})
		_ = n.TotalBytes() // settles: the completion lands on now
		if !tiny.completion.Pending() || tiny.completionAt != s.Now() {
			t.Fatalf("completion pending %v at %v, want pending at now %v",
				tiny.completion.Pending(), tiny.completionAt, s.Now())
		}
		for id := 0; id < 3; id++ {
			if n.hasDue(id) {
				t.Errorf("node %d reports a due flow", id)
			}
		}
		n.Transfer(c.Node(0), c.Node(2), 1, func(error) {})
		if tinyDone {
			t.Error("sub-ulp flow finished inside a Transfer on its endpoint")
		}
	})
	s.Run()
	if !tinyDone || tinyAt != at {
		t.Fatalf("sub-ulp flow done %v at %v, want done at %v", tinyDone, tinyAt, at)
	}
}

// TestPausedFlowIsNotDue: an outage cancels a flow's completion event, so
// at the instant that event would have fired the flow is not due, though
// its last scheduled completion time still reads as now.
func TestPausedFlowIsNotDue(t *testing.T) {
	// Node 0 down during [5, 20): the flow would have finished at t=10.
	s, c, n := testbed([]trace.Interval{{Start: 5, End: 20}}, simpleCfg())
	f := n.Transfer(c.Node(0), c.Node(1), 1000, func(error) {})
	s.Schedule(10, "probe", func() {
		if f.completionAt != s.Now() || f.completion.Pending() {
			t.Fatalf("completion pending %v at %v, want canceled at %v",
				f.completion.Pending(), f.completionAt, s.Now())
		}
		if n.hasDue(0) || n.hasDue(1) {
			t.Error("paused flow reports due")
		}
	})
	s.Run()
}

// TestTransferFromCascadeDoesNotReuseLiveSnapshotSlot: three flows out of
// node 0 tie at t=3, so the first completion cascade-finishes the other two
// inside the settle pass of node 0, and their done callbacks start new
// transfers. The slots the cascade frees are still in that pass's snapshot
// of node 0; were they reused at once, the pass would refresh a new flow in
// a finished one's place, spending an extra event seq on it and reordering
// the two new flows that tie at t=4.
func TestTransferFromCascadeDoesNotReuseLiveSnapshotSlot(t *testing.T) {
	s := sim.New()
	c := cluster.New(s, cluster.Config{DedicatedNodes: 7})
	// 120 B/s NICs: three flows share node 0 at 40 B/s, and every time
	// below is exact in floating point.
	n := New(s, c, Config{NodeBandwidth: 120, DiskBandwidth: 120, StallTimeout: 60})
	var got []string
	done := func(name string, then func()) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("%s failed: %v", name, err)
			}
			got = append(got, fmt.Sprintf("%s@%v", name, s.Now()))
			if then != nil {
				then()
			}
		}
	}
	n.Transfer(c.Node(0), c.Node(1), 120, done("a", nil))
	n.Transfer(c.Node(0), c.Node(2), 120, done("b", func() {
		// An unrelated 120 B flow at 120 B/s: due at t=4, after e.
		n.Transfer(c.Node(5), c.Node(6), 120, done("f", nil))
	}))
	n.Transfer(c.Node(0), c.Node(3), 120, done("c", func() {
		// Node 0 is free again: 120 B at 120 B/s, due at t=4.
		n.Transfer(c.Node(0), c.Node(4), 120, done("e", nil))
	}))
	s.Run()
	// a's completion fires first; it finishes b, whose settle of node 0
	// finishes c, so done callbacks unwind innermost first.
	if want := "[c@3 b@3 a@3 e@4 f@4]"; fmt.Sprint(got) != want {
		t.Fatalf("done order %v, want %s", got, want)
	}
	if n.TotalBytes() != 600 || n.Consumed(0) != 480 || n.Consumed(4) != 120 || n.Consumed(6) != 120 {
		t.Fatalf("TotalBytes %v, consumed node0/4/6 %v/%v/%v; want 600, 480/120/120",
			n.TotalBytes(), n.Consumed(0), n.Consumed(4), n.Consumed(6))
	}
}
