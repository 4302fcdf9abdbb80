package core

import (
	"runtime"
	"testing"

	"repro/internal/browser"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/website"
)

// benchScenario is the simulation-path benchmark workload: a default
// Chrome/Linux loop-counting attacker over a short trace, exercising the
// engine, machine boot, page load, and attacker sampling end to end.
func benchScenario() Scenario {
	return Scenario{
		Name: "bench/collect", OS: kernel.Linux, Browser: browser.Chrome,
		Attack: LoopCounting, TraceDuration: 2 * sim.Second,
	}
}

var benchCollectScale = Scale{Sites: 4, TracesPerSite: 3, Folds: 2, Seed: 99}

// BenchmarkCollectOne measures one full trace simulation: machine boot,
// page load, and attacker sampling.
func BenchmarkCollectOne(b *testing.B) {
	scn := benchScenario()
	profile := website.ProfileFor(website.ClosedWorldDomains()[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectOne(scn, profile, 0, i, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectDataset measures a single-threaded dataset sweep — the
// acceptance-criterion workload for the simulation overhaul (cache bypassed
// so every iteration re-simulates).
func BenchmarkCollectDataset(b *testing.B) {
	scn := benchScenario()
	sc := benchCollectScale
	sc.Parallelism = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectDatasetForTest(scn, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectDatasetParallel is the same sweep at full parallelism.
func BenchmarkCollectDatasetParallel(b *testing.B) {
	scn := benchScenario()
	sc := benchCollectScale
	sc.Parallelism = runtime.NumCPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectDatasetForTest(scn, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsDisabled is the observability overhead guard: the
// instrumented single-threaded dataset sweep with obs off must match
// BenchmarkCollectDataset's time and allocation counts (the PR 2 baseline
// recorded in EXPERIMENTS.md). With obs off the instrumentation reduces to
// a handful of atomic adds per trace — no spans, no timestamps, no
// allocations.
func BenchmarkObsDisabled(b *testing.B) {
	scn := benchScenario()
	sc := benchCollectScale
	sc.Parallelism = 1
	obs.Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := collectDataset(scn, sc, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabled is the same sweep with full tracing on, bounding what
// turning observability on costs (sampled trace spans plus slot timing).
func BenchmarkObsEnabled(b *testing.B) {
	scn := benchScenario()
	sc := benchCollectScale
	sc.Parallelism = 1
	obs.Enable()
	defer obs.Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.DefaultTracer.Reset()
		sp := obs.StartSpan(nil, "bench")
		if _, _, err := collectDataset(scn, sc, sp, nil); err != nil {
			b.Fatal(err)
		}
		sp.End()
	}
}

// BenchmarkTable1Small runs a reduced Table 1 (all eight browser×OS rows,
// closed world, default trace durations) — the table-level workload that
// experiment pipelining and the dataset cache accelerate.
func BenchmarkTable1Small(b *testing.B) {
	sc := Scale{Sites: 2, TracesPerSite: 2, Folds: 2, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(7 + i)
		if _, err := (Runner{}).Table1(sc); err != nil {
			b.Fatal(err)
		}
	}
}
