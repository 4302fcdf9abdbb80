package core

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/ml"
)

// runnerOutputs is everything one Runner produces from the shared store:
// the scores a classifier built by its maker gives every trace (which
// differ between tiers) and a full cross-validated experiment.
type runnerOutputs struct {
	scores [][]float64
	result string
}

func runOnce(t *testing.T, r Runner, scn Scenario, sc Scale) runnerOutputs {
	st, err := r.CollectDataset(scn, sc)
	if err != nil {
		t.Error(err)
		return runnerOutputs{}
	}
	mk, err := ClassifierByName(r.Classifier, r.Tier)
	if err != nil {
		t.Error(err)
		return runnerOutputs{}
	}
	clf := mk(sc.Seed)
	if err := clf.Fit(st.All()); err != nil {
		t.Error(err)
		return runnerOutputs{}
	}
	scores := clf.(ml.BatchScorer).ScoresBatch(rawTraces(st))
	res, err := r.RunExperiment(scn, sc)
	if err != nil {
		t.Error(err)
		return runnerOutputs{}
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Error(err)
	}
	return runnerOutputs{scores: scores, result: string(js)}
}

func sameScores(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestTwoRunnersOneProcess runs two Runners that differ only in inference
// tier against the same cached store at once. Each must produce exactly
// what it produces alone, and the two must differ, so a tier held by the
// process rather than the Runner would show as a mismatch.
func TestTwoRunnersOneProcess(t *testing.T) {
	t.Parallel()
	scn := shortScenario("runner/two-tiers")
	sc := Scale{Sites: 3, TracesPerSite: 4, Folds: 2, Seed: 29}
	cache := NewDatasetCache(8, 0, "")
	runners := []Runner{
		{Classifier: "logreg", Tier: ml.TierReference, Cache: cache},
		{Classifier: "logreg", Tier: ml.TierInt8, Cache: cache},
	}
	alone := make([]runnerOutputs, len(runners))
	for i, r := range runners {
		alone[i] = runOnce(t, r, scn, sc)
	}
	if t.Failed() {
		return
	}
	if sameScores(alone[0].scores, alone[1].scores) {
		t.Fatal("reference and int8 runners scored identically; the test cannot tell tiers apart")
	}

	const rounds = 3
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r Runner) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				got := runOnce(t, r, scn, sc)
				if !sameScores(got.scores, alone[i].scores) {
					t.Errorf("%v runner round %d: scores differ from its solo run", r.Tier, round)
				}
				if got.result != alone[i].result {
					t.Errorf("%v runner round %d: result %s, solo %s", r.Tier, round, got.result, alone[i].result)
				}
			}
		}(i, r)
	}
	wg.Wait()
}
