package core

import (
	"fmt"

	"repro/internal/browser"
	"repro/internal/kernel"
	"repro/internal/ml"
	"repro/internal/trace"
)

// ServingScenario is the configuration served models are trained on: the
// paper's baseline Chrome-on-Linux loop-counting attacker.
func ServingScenario() Scenario {
	return Scenario{Name: "serve", OS: kernel.Linux, Browser: browser.Chrome, Attack: LoopCounting}
}

// ServingModel bundles everything a serving daemon needs: the frozen
// inference artifact, the tier actually built (requested tier falls back
// exactly as batch scoring does), the preprocessing raw traces get before
// scoring, and a bank of held-out raw traces for load generation and
// self-tests.
type ServingModel struct {
	Model    ml.Frozen
	Tier     ml.InferTier
	Prep     ml.Preprocessor
	InputLen int
	Classes  int
	// Traces are the raw collected traces (load-generation corpus).
	Traces [][]float64
}

// BuildServingModel collects a dataset for the scenario, trains the
// runner's classifier on all of it, and freezes the fitted model at the
// runner's tier. Only gradient-trained classifiers can be frozen
// ("logreg", "cnn"); the instance-based ones have no model to compile, and
// the reference tier has no frozen artifact.
func (r Runner) BuildServingModel(scn Scenario, sc Scale) (*ServingModel, error) {
	mk, err := ClassifierByName(r.Classifier, r.Tier)
	if err != nil {
		return nil, err
	}
	if mk == nil {
		return nil, fmt.Errorf("core: classifier %q cannot be frozen for serving (want logreg or cnn)", r.Classifier)
	}
	clf := mk(sc.Seed)
	fz, ok := clf.(ml.Freezer)
	if !ok {
		return nil, fmt.Errorf("core: classifier %q cannot be frozen for serving (want logreg or cnn)", r.Classifier)
	}

	st, err := r.CollectDataset(scn, sc)
	if err != nil {
		return nil, err
	}
	if err := clf.Fit(st.All()); err != nil {
		return nil, fmt.Errorf("core: serving fit: %w", err)
	}
	frozen, got, err := fz.Frozen(r.Tier)
	if err != nil {
		return nil, err
	}
	return &ServingModel{
		Model:    frozen,
		Tier:     got,
		Prep:     fz.Preprocessor(),
		InputLen: fz.InputLen(),
		Classes:  st.NumClasses(),
		Traces:   rawTraces(st),
	}, nil
}

// rawTraces lists every trace's raw value series, in store order.
func rawTraces(st *trace.Store) [][]float64 {
	out := make([][]float64, st.Len())
	for i := range out {
		out[i] = st.Values(i)
	}
	return out
}
