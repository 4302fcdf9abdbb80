package core

import (
	"runtime"
	"testing"

	"repro/internal/ml"
)

// scoreArgmax returns the top class per score row.
func scoreArgmax(scores [][]float64) []int {
	out := make([]int, len(scores))
	for i, row := range scores {
		best := 0
		for c, v := range row {
			if v > row[best] {
				best = c
			}
		}
		out[i] = best
	}
	return out
}

// TestCompiledReferenceEquivalence is the pipeline-level acceptance gate for
// the compiled inference path: on every golden-grid dataset, classifiers
// trained once must produce identical argmax decisions whether scored
// through the float64 reference forward pass or the frozen float32
// CompiledModel, at serial and parallel intra-op worker counts. make ci
// greps for this test's PASS line, so it must never be skipped.
func TestCompiledReferenceEquivalence(t *testing.T) {
	wasTier := ml.ActiveInferTier()
	wasPar := ml.InferParallelism()
	defer func() {
		ml.SetInferTier(wasTier)
		ml.SetInferParallelism(wasPar)
	}()

	for _, scn := range goldenGrid() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			ds, err := collectDatasetForTest(scn, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			values := rawTraces(ds)
			clfs := map[string]ml.Classifier{
				"logreg": &ml.LogReg{Prep: ml.DefaultPreprocessor, Seed: goldenScale.Seed},
				"cnn-lstm": &ml.CNNLSTM{Prep: ml.DefaultPreprocessor, Seed: goldenScale.Seed,
					Filters: 4, Hidden: 4, Epochs: 2},
			}
			for name, clf := range clfs {
				if err := clf.Fit(ds.All()); err != nil {
					// Some golden traces are too short for the CNN at this
					// scale (a training-time limit, identical in both
					// inference modes); logreg trains on every dataset.
					if name == "logreg" {
						t.Fatalf("logreg: Fit: %v", err)
					}
					t.Logf("%s: Fit: %v (equivalence vacuous)", name, err)
					continue
				}
				bs, ok := clf.(ml.BatchScorer)
				if !ok {
					t.Fatalf("%s does not implement BatchScorer", name)
				}
				ml.SetInferTier(ml.TierReference)
				ref := bs.ScoresBatch(values)
				refTop := scoreArgmax(ref)

				ml.SetInferTier(ml.TierCompiled)
				for _, par := range []int{1, runtime.NumCPU()} {
					ml.SetInferParallelism(par)
					got := bs.ScoresBatch(values)
					gotTop := scoreArgmax(got)
					for i := range refTop {
						if gotTop[i] != refTop[i] {
							t.Fatalf("%s par=%d trace %d: compiled argmax %d != reference %d\ncompiled %v\nreference %v",
								name, par, i, gotTop[i], refTop[i], got[i], ref[i])
						}
					}
				}
			}
		})
	}
}
