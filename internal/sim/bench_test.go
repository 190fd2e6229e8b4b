package sim

import (
	"fmt"
	"testing"
)

// backlogSizes are the pending-event populations the throughput benchmark
// sweeps: each schedule+fire pays a sift through a heap of that size.
var backlogSizes = []int{0, 1000, 10000, 100000}

// BenchmarkEventThroughput measures raw schedule+fire cost — the
// simulator's fundamental currency — against a standing backlog of
// far-future events. With the free list this runs allocation-free at
// steady state, at every backlog size.
func BenchmarkEventThroughput(b *testing.B) {
	for _, pending := range backlogSizes {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New()
			fn := func() {}
			for i := 0; i < pending; i++ {
				s.Schedule(1e6+float64(i)*0.25, "bg", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(float64(i)*1e-3, "e", fn)
				s.Step()
			}
		})
	}
}

// BenchmarkTickerChain measures self-rescheduling tickers, the pattern all
// periodic services (scans, heartbeats, samplers) use.
func BenchmarkTickerChain(b *testing.B) {
	s := New()
	n := 0
	stop := s.Ticker(1, "t", func() { n++ })
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	_ = n
}

// BenchmarkScheduleCancel measures the schedule+cancel cycle in isolation:
// Cancel removes the event and the free list recycles its storage, so the
// cycle is allocation-free.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(float64(i)+1e6, "e", fn)
		s.Cancel(e)
	}
}

// BenchmarkCancelHeavy interleaves cancellation with firing: each op
// schedules two events, cancels one and fires the other.
func BenchmarkCancelHeavy(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := float64(i)
		e := s.Schedule(at+2, "victim", fn)
		s.Schedule(at+1, "keeper", fn)
		s.Cancel(e)
		s.Step()
	}
}

// BenchmarkReschedule measures moving a pending event in place, the
// netmodel's per-rate-change operation: one re-key and one sift from the
// event's slot. Each op moves a different event of the standing population
// to a scattered new time, so sifts go both ways. It allocates nothing.
func BenchmarkReschedule(b *testing.B) {
	for _, pending := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New()
			fn := func() {}
			evs := make([]Event, pending)
			for i := range evs {
				evs[i] = s.Schedule(1e6+float64(i)*0.25, "e", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := 1e6 + float64((i*7919)%(4*pending))*0.25
				if !s.Reschedule(evs[i%pending], at) {
					b.Fatal("pending event not rescheduled")
				}
			}
		})
	}
}

// BenchmarkShardPhase measures the parallel-phase hot path per ITEM: one
// op is one index of a fanned span (a synthetic per-node compute kernel
// writing a per-index slot and a per-worker padded partial — the contract
// every real phase follows). The caller-owned partials make the per-item
// path allocation-free; the only allocations in a phase are the w-1
// goroutine spawns, amortized over the span, so allocs/op must report 0
// at EVERY width — CI gates exactly that. On a multi-core runner ns/op
// falls with width; on one core it shows the fan's overhead ceiling.
func BenchmarkShardPhase(b *testing.B) {
	const span = 1 << 16
	out := make([]uint64, span)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := NewShardPool(w)
			partials := make([]Padded[uint64], pool.Workers())
			b.ReportAllocs()
			b.ResetTimer()
			for n := b.N; n > 0; n -= span {
				m := span
				if n < m {
					m = n
				}
				for i := range partials {
					partials[i].V = 0
				}
				pool.Run(m, func(worker, lo, hi int) {
					var sum uint64
					for i := lo; i < hi; i++ {
						// A splitmix-style round stands in for the per-node
						// draws/scans real phases do.
						x := (uint64(i) + 1) * 0x9e3779b97f4a7c15
						x ^= x >> 30
						x *= 0xbf58476d1ce4e5b9
						x ^= x >> 27
						out[i] = x
						sum += x
					}
					partials[worker].V = sum
				})
				var total uint64
				for i := range partials {
					total += partials[i].V
				}
				if total == 0 {
					b.Fatal("phase produced nothing")
				}
			}
		})
	}
}
