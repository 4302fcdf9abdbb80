package core

import (
	"fmt"
	"strings"

	"repro/internal/ml"
)

// Runner is one run's configuration: the classifier every experiment cell
// evaluates with, the inference tier it scores on, the dataset cache, and
// where cells run. Each command builds one from its flags; the zero value
// runs cells in process with nearest centroid on the compiled tier and no
// dataset cache. Nothing here is process state, so Runners with different
// settings run side by side in one process.
//
// Tables write the runner's classifier and tier into every CellSpec they
// build, so a spec fully describes its cell: RunCell executes a spec with
// its own classifier and tier, whichever Runner runs it.
type Runner struct {
	// Classifier names the per-fold classifier (ClassifierByName
	// vocabulary); "" is nearest centroid.
	Classifier string
	// Tier is the inference tier gradient-trained classifiers score on.
	Tier ml.InferTier
	// Cache memoizes collected datasets; nil collects every dataset afresh.
	Cache *DatasetCache
	// Dispatcher, when set, runs table and figure cells in place of the
	// local cell pool — how cmd/experiments' -coordinator flag shards
	// whole grids over worker replicas (internal/dist).
	Dispatcher CellDispatcher
}

// CellDispatcher runs one batch of independent cells and returns results
// indexed like the specs. internal/dist's Coordinator implements it by
// sharding the batch across worker replicas.
type CellDispatcher interface {
	RunCells(specs []CellSpec, par int) ([]CellResult, error)
}

// experimentCell is the spec of one table cell under this runner's
// classifier and tier.
func (r Runner) experimentCell(scn ScenarioSpec, sc Scale) CellSpec {
	return CellSpec{Scenario: scn, Scale: sc, Classifier: r.Classifier, Infer: r.Tier.String()}
}

// RunCells executes a batch of independent cells through the dispatcher,
// or the local cell pool when there is none, and returns results indexed
// like the specs. par bounds local cell concurrency (<= 0 = all at once;
// compute stays slot-bounded); distributed dispatchers derive concurrency
// from worker lanes instead. RunCells counts the batch's cells as planned;
// RunCell counts each one completed where it runs, here or on a worker.
func (r Runner) RunCells(specs []CellSpec, par int) ([]CellResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	cCellsPlanned.Add(int64(len(specs)))
	if r.Dispatcher != nil {
		return r.Dispatcher.RunCells(specs, par)
	}
	out := make([]CellResult, len(specs))
	err := runCells(len(specs), par, func(i int) (err error) {
		out[i], err = r.RunCell(specs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunCell executes one cell in this process, never through the
// dispatcher — the body of a dist worker lane. The spec must be
// self-contained: it names its classifier and inference tier, and the
// runner contributes only its dataset cache.
func (r Runner) RunCell(spec CellSpec) (CellResult, error) {
	var (
		res CellResult
		err error
	)
	switch strings.ToLower(spec.Kind) {
	case "", "experiment":
		res, err = r.runExperimentCell(spec)
	case "meantrace":
		res, err = runMeanTraceCell(spec)
	default:
		err = fmt.Errorf("core: unknown cell kind %q", spec.Kind)
	}
	if err == nil {
		cCellsCompleted.Inc()
	}
	return res, err
}

// scatterCells runs the specs and writes each returned Result into its row
// destination — the shared shape of every table builder.
func (r Runner) scatterCells(specs []CellSpec, dsts []*Result, par int) error {
	results, err := r.RunCells(specs, par)
	if err != nil {
		return err
	}
	for i, res := range results {
		if res.Result != nil && i < len(dsts) && dsts[i] != nil {
			*dsts[i] = *res.Result
		}
	}
	return nil
}
