package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/browser"
	"repro/internal/kernel"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The collect→fit benchmarks measure the columnar trace store end to end:
// workers record into one arena, ApplyInto packs rows in place, training
// reads aliased views, and budget overflow demotes to mmap-backed shard
// files instead of dropping datasets.
var benchFitScale = Scale{Sites: 4, TracesPerSite: 12, Folds: 2, Seed: 99}

func benchFitScenario(name string) Scenario {
	return Scenario{
		Name: name, OS: kernel.Linux, Browser: browser.Chrome,
		Attack: LoopCounting, TraceDuration: 1 * sim.Second,
	}
}

var benchFitConfig = ml.FitConfig{Epochs: 4, BatchSize: 16, LR: 0.003, Seed: 7}

var benchFitPrep = ml.Preprocessor{Smooth: 3}

// fitColumnar trains through the arena path: ApplyInto packs rows in place
// and the engine aliases contiguous runs instead of gathering. A
// deterministic 25% validation tail exercises the evaluation path too.
func fitColumnar(prep ml.Preprocessor, st *trace.Store) error {
	s, err := ml.PackDataset(prep, st.All())
	if err != nil {
		return err
	}
	model, err := ml.PaperNet(7, s.Size(), st.NumClasses(), 4, 6, 0.2)
	if err != nil {
		return err
	}
	cut := s.Len() - s.Len()/4
	return model.Fit(s.X[:cut], s.Y[:cut], s.X[cut:], s.Y[cut:], benchFitConfig)
}

// benchmarkColdCollectFit is one uncached CollectDataset→Fit pass,
// simulation cost included.
func benchmarkColdCollectFit(b *testing.B) {
	scn := benchFitScenario("bench/collect-fit")
	sc := benchFitScale
	sc.Parallelism = runtime.NumCPU()
	var resident int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := collectDataset(scn, sc, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		resident = st.ResidentBytes()
		if err := fitColumnar(benchFitPrep, st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(resident), "resident-bytes")
	b.ReportMetric(float64(datasetJobCount(sc)), "traces")
}

// benchmarkBudgetCollectFit is the experiment grid's steady state under a
// resident-byte budget that holds only one of three datasets: the grid
// cycles through its (scenario, scale) cells, fitting on each. The cache
// demotes cold entries to mmap-backed shard files and serves revisits from
// the mapping, so steady state pays pack+fit, not simulation.
func benchmarkBudgetCollectFit(b *testing.B) {
	sc := benchFitScale
	sc.Parallelism = runtime.NumCPU()
	scns := []Scenario{
		benchFitScenario("bench/grid-a"),
		benchFitScenario("bench/grid-b"),
		benchFitScenario("bench/grid-c"),
	}
	cache := NewDatasetCache(8, 0, b.TempDir())
	visit := func(scn Scenario) error {
		st, err := cache.getOrCollect(datasetCacheKey(scn, sc), func() (*trace.Store, error) {
			st, _, err := collectDataset(scn, sc, nil, nil)
			return st, err
		})
		if err != nil {
			return err
		}
		return fitColumnar(benchFitPrep, st)
	}
	// Warm up: collect every dataset once, then set the budget to hold
	// roughly one of them, forcing demotion.
	var resident int64
	for _, scn := range scns {
		if err := visit(scn); err != nil {
			b.Fatal(err)
		}
	}
	cache.mu.Lock()
	for _, e := range cache.entries {
		if bytes := entryBytes(e); bytes > resident {
			resident = bytes
		}
	}
	cache.budget = resident + resident/4
	cache.evictLocked()
	cache.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scn := range scns {
			if err := visit(scn); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(cache.budget), "budget-bytes")
	b.ReportMetric(float64(len(scns)*datasetJobCount(sc)), "traces")
}

// BenchmarkCollectFit is CollectDataset→Fit end to end. The cold leg is an
// uncached collection; the budget leg measures the grid's steady state
// under memory pressure, where the mmap-backed second cache tier replaces
// re-simulation.
func BenchmarkCollectFit(b *testing.B) {
	b.Run("cold-columnar", benchmarkColdCollectFit)
	b.Run("budget-columnar", benchmarkBudgetCollectFit)
}

// BenchmarkCollectSpill measures the bounded-window disk path against the
// in-memory arena on the same workload, reporting how little stays
// resident: the cost of capping memory is the write+mmap, not re-simulation.
func BenchmarkCollectSpill(b *testing.B) {
	scn := benchFitScenario("bench/collect-spill")
	sc := benchFitScale
	sc.Parallelism = runtime.NumCPU()
	dir := b.TempDir()
	var resident, total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := &spillPlan{path: fmt.Sprintf("%s/b%d.trst", dir, i), windowRows: 8}
		st, _, err := collectDataset(scn, sc, nil, plan)
		if err != nil {
			b.Fatal(err)
		}
		resident, total = st.ResidentBytes(), st.ValueBytes()
	}
	b.ReportMetric(float64(resident), "resident-bytes")
	b.ReportMetric(float64(total), "value-bytes")
}
