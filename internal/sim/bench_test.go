package sim

import "testing"

// BenchmarkEngine measures steady-state event throughput: a mix of periodic
// tickers and self-rearming one-shot chains, the same shape as a machine's
// timer ticks plus Poisson interrupt streams. Reported as ns per processed
// event; allocs/op is the headline the slab-backed queue optimizes.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	// 8 tickers at mutually prime-ish periods keep the queue busy.
	for _, p := range []Duration{7, 11, 13, 17, 19, 23, 29, 31} {
		e.Tick(0, p, func(Time) {})
	}
	// 8 self-rearming chains model the recursive After() interrupt sources.
	for i := 0; i < 8; i++ {
		gap := Duration(5 + i)
		var step func()
		step = func() { e.After(gap, step) }
		e.After(gap, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Processed
	for e.Processed-start < uint64(b.N) {
		e.Run(e.Now() + 4096)
	}
}

// BenchmarkEngineChurn measures transient behaviour: building a fresh queue
// of 1024 events and draining it, per iteration.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1024; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run(1 << 40)
	}
}
