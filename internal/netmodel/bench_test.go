package netmodel

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkTransferChurn measures flow setup/teardown with fair-share
// recomputation on a 66-node fleet — the shuffle's hot path.
func BenchmarkTransferChurn(b *testing.B) {
	s := sim.New()
	traces := make([]trace.Trace, 60)
	for i := range traces {
		traces[i] = trace.Trace{Duration: 1e12}
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 6})
	n := New(s, c, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := c.Node(i % 60)
		dst := c.Node((i + 7) % 60)
		n.Transfer(src, dst, 530e3, func(error) {}) // one shuffle segment
		s.RunUntil(s.Now() + 0.05)
	}
}

// BenchmarkFanIn measures the arrival side of a fan-in burst: F transfers
// into one sink started within a single event callback, then the settle pass
// that recomputes rates for the instant. With batched settling each affected
// flow is refreshed once per instant, so cost grows linearly in F; the eager
// per-change recompute resettled the sink's whole flow list on every arrival,
// growing quadratically. Setup (fresh simulation and cluster) and flow
// teardown are untimed.
func BenchmarkFanIn(b *testing.B) {
	for _, F := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", F), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := sim.New()
				c := cluster.New(s, cluster.Config{DedicatedNodes: F + 1})
				n := New(s, c, DefaultConfig())
				sink := c.Node(0)
				s.After(0, "burst", func() {
					for j := 0; j < F; j++ {
						n.Transfer(c.Node(j+1), sink, 1e12, func(error) {})
					}
				})
				b.StartTimer()
				s.Step()           // fire the burst: F Transfers mark their endpoints
				_ = n.TotalBytes() // settle pass: one refresh per affected flow
			}
		})
	}
}
