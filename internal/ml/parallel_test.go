package ml

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// equivDataset builds a small 4-class synthetic dataset whose classes are
// sinusoids of different frequency plus noise — enough structure that
// training actually moves the weights.
func equivDataset(n, length int) ([]*Tensor, []int) {
	rng := sim.NewStream(77, "equiv-data")
	var X []*Tensor
	var y []int
	for i := 0; i < n; i++ {
		c := i % 4
		v := make([]float64, length)
		for t := range v {
			v[t] = math.Sin(float64(t)*(0.05+0.04*float64(c))) + rng.Normal(0, 0.2)
		}
		X = append(X, FromSeries(v))
		y = append(y, c)
	}
	return X, y
}

// trainEquiv trains a fresh small PaperNet (with dropout active, the
// hardest layer to keep deterministic) for 3 epochs at the given worker
// count and returns the resulting weights and training-set accuracy.
func trainEquiv(t *testing.T, par int) (Weights, float64) {
	t.Helper()
	X, y := equivDataset(40, 160)
	model, err := PaperNet(5, 160, 4, 4, 6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FitConfig{Epochs: 3, BatchSize: 16, LR: 0.003, Seed: 9, Parallelism: par}
	if err := model.Fit(X, y, nil, nil, cfg); err != nil {
		t.Fatal(err)
	}
	return model.ExportWeights(), model.AccuracyParallel(X, y, par)
}

// TestParallelSerialEquivalence is the core determinism guarantee of the
// training engine: the same seed must produce bit-identical weights for
// every Parallelism value.
func TestParallelSerialEquivalence(t *testing.T) {
	refW, refAcc := trainEquiv(t, 1)
	for _, par := range []int{2, 4, 7} {
		w, acc := trainEquiv(t, par)
		if acc != refAcc {
			t.Errorf("Parallelism=%d accuracy %v != serial %v", par, acc, refAcc)
		}
		if len(w.Blobs) != len(refW.Blobs) {
			t.Fatalf("Parallelism=%d: %d blobs vs %d", par, len(w.Blobs), len(refW.Blobs))
		}
		for bi := range w.Blobs {
			for i := range w.Blobs[bi] {
				if w.Blobs[bi][i] != refW.Blobs[bi][i] {
					t.Fatalf("Parallelism=%d: blob %d elem %d differs: %v vs %v",
						par, bi, i, w.Blobs[bi][i], refW.Blobs[bi][i])
				}
			}
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	X, y := equivDataset(24, 160)
	model, err := PaperNet(3, 160, 4, 4, 6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Fit(X, y, nil, nil, FitConfig{Epochs: 1, BatchSize: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	batch := model.PredictBatch(X, 4)
	for i, x := range X {
		single := model.Predict(x)
		for c := range single {
			if batch[i][c] != single[c] {
				t.Fatalf("sample %d class %d: batch %v != single %v", i, c, batch[i][c], single[c])
			}
		}
	}
	if a1, a4 := model.AccuracyParallel(X, y, 1), model.AccuracyParallel(X, y, 4); a1 != a4 {
		t.Fatalf("AccuracyParallel differs: %v vs %v", a1, a4)
	}
}

// TestReplicaSharesWeights checks replicas alias the original weight
// storage (an update through the model is visible to replicas) while
// gradients stay private.
func TestReplicaSharesWeights(t *testing.T) {
	rng := sim.NewStream(2, "replica")
	model := &Sequential{Layers: []Layer{NewDense(rng, 3, 2)}}
	rep := model.replicate()
	model.Params()[0].W[0] = 42
	if rep.Params()[0].W[0] != 42 {
		t.Error("replica does not share weight storage")
	}
	rep.Params()[0].G[0] = 7
	if model.Params()[0].G[0] == 7 {
		t.Error("replica shares gradient storage; must be private")
	}
}
