package ml

import (
	"testing"

	"repro/internal/sim"
)

// TestTrainEngineSteadyStateAllocs checks the training engine's per-batch
// cost is O(1) allocations once its arenas are warm, not O(batch size).
func TestTrainEngineSteadyStateAllocs(t *testing.T) {
	X, y := equivDataset(16, 160)
	model, err := PaperNet(5, 160, 4, 4, 6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eng := newTrainEngine(model, 1)
	defer eng.close()
	batch := make([]int, len(X))
	for i := range batch {
		batch[i] = i
	}
	eng.trainBatch(X, y, batch, 0) // warm the arenas
	for _, p := range eng.params {
		p.zeroGrad()
	}
	allocs := testing.AllocsPerRun(10, func() {
		eng.trainBatch(X, y, batch, 0)
		for _, p := range eng.params {
			p.zeroGrad()
		}
	})
	if allocs > 2 {
		t.Fatalf("trainBatch allocates %v per batch in steady state; want O(1)", allocs)
	}
}

// TestEngineAccuracyMatchesAccuracyParallel checks Fit's pooled validation
// path scores exactly like the public AccuracyParallel.
func TestEngineAccuracyMatchesAccuracyParallel(t *testing.T) {
	X, y := equivDataset(30, 160)
	model, err := PaperNet(6, 160, 4, 4, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Fit(X, y, nil, nil, FitConfig{Epochs: 1, BatchSize: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		eng := newTrainEngine(model, par)
		got := eng.accuracy(X, y)
		eng.close()
		if want := model.AccuracyParallel(X, y, par); got != want {
			t.Fatalf("par=%d: engine accuracy %v != AccuracyParallel %v", par, got, want)
		}
	}
}

// TestStreamReseedMatchesNewStream guards the dropout fast path: a Reseed'd
// stream must replay exactly the sequence a fresh NewStream produces.
func TestStreamReseedMatchesNewStream(t *testing.T) {
	reused := sim.NewStream(0, "dropout-mask")
	hash := sim.NameHash("dropout-mask")
	for _, seed := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		reused.Reseed(seed, hash)
		fresh := sim.NewStream(seed, "dropout-mask")
		for i := 0; i < 32; i++ {
			if a, b := reused.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %#x draw %d: reseeded %v != fresh %v", seed, i, a, b)
			}
		}
	}
}
