package core

import (
	"runtime"
	"testing"

	"repro/internal/ml"
)

// scoreOn scores values through a trained LogReg or CNNLSTM on the given
// inference tier with par workers.
func scoreOn(clf ml.Classifier, tier ml.InferTier, par int, values [][]float64) [][]float64 {
	switch c := clf.(type) {
	case *ml.LogReg:
		c.Tier, c.Parallelism = tier, par
	case *ml.CNNLSTM:
		c.Tier, c.Parallelism = tier, par
	}
	return clf.(ml.BatchScorer).ScoresBatch(values)
}

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
	t.Parallel()
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
				ref := scoreOn(clf, ml.TierReference, 0, values)
				refTop := scoreArgmax(ref)
				for _, par := range []int{1, runtime.NumCPU()} {
					got := scoreOn(clf, ml.TierCompiled, par, values)
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
