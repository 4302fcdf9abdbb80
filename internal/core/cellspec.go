package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/browser"
	"repro/internal/kernel"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/website"
)

// CellSpec is the JSON-serializable description of one experiment cell —
// the unit of work both the local cell pool and the distributed
// coordinator/worker runner (internal/dist) shard. It extends ScenarioSpec
// with everything a remote worker needs to reproduce the cell exactly:
// the dataset scale, the classifier, and the inference tier. Because specs
// travel as a wire payload, ParseCellSpec rejects unknown fields and
// Validate resolves every name before any work starts.
type CellSpec struct {
	// Kind selects the cell body: "" or "experiment" runs the full
	// collect+evaluate pipeline (tables); "meantrace" averages per-visit
	// traces for one site (Figure 4's cells) into a normalized series.
	Kind     string       `json:"kind,omitempty"`
	Scenario ScenarioSpec `json:"scenario"`
	Scale    Scale        `json:"scale"`
	// Classifier names the per-fold classifier (ClassifierByName
	// vocabulary). Empty means the executing process's default, so
	// dispatchers stamp the coordinator's choice in before shipping.
	Classifier string `json:"classifier,omitempty"`
	// Infer selects the inference tier for gradient-trained classifiers:
	// "" (leave the executing process's tier alone), compiled, int8, or
	// reference.
	Infer string `json:"infer,omitempty"`
	// Site and Runs configure "meantrace" cells: the profiled site and
	// the number of visits averaged.
	Site string `json:"site,omitempty"`
	Runs int    `json:"runs,omitempty"`
}

// CellResult is what running one cell yields. Experiment cells fill Result
// and Summary; meantrace cells fill Series. All fields survive a JSON
// round-trip bit-exactly (encoding/json prints float64 shortest-form),
// which the distributed runner's merged-manifest equivalence test pins.
type CellResult struct {
	Result *Result   `json:"result,omitempty"`
	Series []float64 `json:"series,omitempty"`
	// Summary is the cell's run-manifest row, built from the same facts
	// the span-derived single-process manifest rows carry, so a merged
	// multi-worker manifest matches a local run modulo host/timing fields.
	Summary *obs.CellSummary `json:"summary,omitempty"`
}

// ParseCellSpec decodes a JSON cell spec, rejecting unknown fields and
// trailing garbage — the validation gate worker replicas apply to every
// cell that arrives over the wire.
func ParseCellSpec(data []byte) (CellSpec, error) {
	var c CellSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return CellSpec{}, fmt.Errorf("core: cell spec: %w", err)
	}
	if dec.More() {
		return CellSpec{}, fmt.Errorf("core: cell spec: trailing data")
	}
	return c, nil
}

// Validate resolves every name in the spec without running anything, so a
// malformed spec is rejected before it costs compute.
func (c CellSpec) Validate() error {
	if _, err := c.Scenario.ToScenario(); err != nil {
		return err
	}
	switch strings.ToLower(c.Kind) {
	case "", "experiment":
		if _, err := ClassifierByName(c.Classifier); err != nil {
			return err
		}
		if _, err := inferTierByName(c.Infer); err != nil {
			return err
		}
		return c.Scale.Validate()
	case "meantrace":
		if c.Site == "" {
			return fmt.Errorf("core: meantrace cell needs a site")
		}
		if c.Runs < 2 {
			return fmt.Errorf("core: meantrace cell needs at least 2 runs")
		}
		return nil
	default:
		return fmt.Errorf("core: unknown cell kind %q", c.Kind)
	}
}

// inferTierByName maps the spec/flag vocabulary to an inference tier. The
// empty string means "leave the current tier alone" and resolves to it.
func inferTierByName(mode string) (ml.InferTier, error) {
	switch mode {
	case "":
		return ml.ActiveInferTier(), nil
	case "compiled":
		return ml.TierCompiled, nil
	case "int8":
		return ml.TierInt8, nil
	case "reference":
		return ml.TierReference, nil
	}
	return 0, fmt.Errorf("core: unknown inference mode %q (want compiled, int8, or reference)", mode)
}

// Spec-vocabulary names for the enum types, so table builders can express
// their grids as wire-safe ScenarioSpecs.
func osSpecName(o kernel.OS) string {
	switch o {
	case kernel.Windows:
		return "windows"
	case kernel.MacOS:
		return "macos"
	default:
		return "linux"
	}
}

func browserSpecName(b browser.Browser) string {
	switch b {
	case browser.Firefox:
		return "firefox"
	case browser.Safari:
		return "safari"
	case browser.TorBrowser:
		return "tor"
	default:
		return "chrome"
	}
}

func attackSpecName(k AttackKind) string {
	if k == SweepCounting {
		return "sweep"
	}
	return "loop"
}

// CellDispatcher runs one batch of independent cells and returns results
// indexed like the specs. The local implementation is the in-process cell
// pool; internal/dist's Coordinator shards the batch across worker
// replicas instead.
type CellDispatcher interface {
	RunCells(specs []CellSpec, par int) ([]CellResult, error)
}

// cellDispatcher, when non-nil, replaces the local cell pool for every
// RunCellSpecs call — how cmd/experiments' -coordinator flag reroutes
// whole table grids to worker replicas.
var cellDispatcher CellDispatcher

// SetCellDispatcher installs a dispatcher for all subsequent table and
// figure grids; nil restores the local pool. Not safe to call concurrently
// with running experiments.
func SetCellDispatcher(d CellDispatcher) { cellDispatcher = d }

// RunCellSpecs executes a batch of independent cells through the active
// dispatcher (local pool by default), stamping the process's classifier
// and inference-tier defaults into specs that don't pin their own so
// remote workers reproduce this process's configuration. par bounds local
// cell concurrency (<= 0 = all at once; compute stays slot-bounded);
// distributed dispatchers derive concurrency from worker lanes instead.
func RunCellSpecs(specs []CellSpec, par int) ([]CellResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	stamped := stampCellDefaults(specs)
	if d := cellDispatcher; d != nil {
		cCellsPlanned.Add(int64(len(stamped)))
		return d.RunCells(stamped, par)
	}
	return RunCellsInProcess(stamped, par)
}

// RunCellsInProcess runs a batch through the local cell pool, ignoring any
// installed dispatcher — the execution path worker replicas use, so a
// worker colocated with a coordinator can never dispatch to itself.
func RunCellsInProcess(specs []CellSpec, par int) ([]CellResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	cCellsPlanned.Add(int64(len(specs)))
	out := make([]CellResult, len(specs))
	err := runCells(len(specs), par, func(i int) error {
		res, err := RunCell(specs[i])
		if err != nil {
			return err
		}
		out[i] = res
		cCellsCompleted.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// stampCellDefaults copies the specs, filling empty classifier/tier fields
// of experiment cells with the process-wide configuration (the -clf and
// -infer flags) so dispatched cells carry it to workers explicitly.
func stampCellDefaults(specs []CellSpec) []CellSpec {
	out := append([]CellSpec(nil), specs...)
	tier := ml.ActiveInferTier().String()
	for i := range out {
		if k := strings.ToLower(out[i].Kind); k != "" && k != "experiment" {
			continue
		}
		if out[i].Classifier == "" {
			out[i].Classifier = defaultClassifierName
		}
		if out[i].Infer == "" {
			out[i].Infer = tier
		}
	}
	return out
}

// scatterCells dispatches the specs and writes each returned Result into
// its row destination — the shared shape of every table builder.
func scatterCells(specs []CellSpec, dsts []*Result, par int) error {
	results, err := RunCellSpecs(specs, par)
	if err != nil {
		return err
	}
	for i, r := range results {
		if r.Result != nil && i < len(dsts) && dsts[i] != nil {
			*dsts[i] = *r.Result
		}
	}
	return nil
}

// RunCell executes one cell in this process — the worker side of the
// distributed runner and the body of the local dispatcher. The spec must
// be self-contained: RunCell applies its classifier and inference tier,
// runs the cell, and returns the result plus its manifest row.
func RunCell(spec CellSpec) (CellResult, error) {
	switch strings.ToLower(spec.Kind) {
	case "", "experiment":
		return runExperimentCell(spec)
	case "meantrace":
		return runMeanTraceCell(spec)
	default:
		return CellResult{}, fmt.Errorf("core: unknown cell kind %q", spec.Kind)
	}
}

// runExperimentCell is RunExperiment plus an explicit manifest row: the
// row is built from the collect/evaluate facts directly rather than
// re-derived from spans, so workers with bounded tracers still report
// every cell.
func runExperimentCell(spec CellSpec) (CellResult, error) {
	scn, err := spec.Scenario.ToScenario()
	if err != nil {
		return CellResult{}, err
	}
	mk, err := ClassifierByName(spec.Classifier)
	if err != nil {
		return CellResult{}, err
	}
	if spec.Infer != "" {
		tier, err := inferTierByName(spec.Infer)
		if err != nil {
			return CellResult{}, err
		}
		ml.SetInferTier(tier)
	}
	t0 := time.Now()
	sp := obs.StartSpan(nil, "cell")
	sp.SetAttr("scenario", scn.Name)
	defer sp.End()
	st, info, err := collectDatasetInfo(sp, scn, spec.Scale)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return CellResult{}, err
	}
	res, evalBusy, err := evaluateInfo(sp, st, spec.Scale, mk, scn.Name)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return CellResult{}, err
	}
	sp.SetAttr("top1_mean", res.Top1.Mean).SetAttr("top5_mean", res.Top5.Mean)
	sum := &obs.CellSummary{
		Scenario:       scn.Name,
		WallMS:         float64(time.Since(t0).Nanoseconds()) / 1e6,
		CPUMS:          float64(info.busyNS+evalBusy) / 1e6,
		Traces:         st.Len(),
		TrimmedSamples: st.TrimmedSamples(),
		Cached:         info.cached,
		Folds:          spec.Scale.Folds,
		Top1Mean:       res.Top1.Mean,
		Top5Mean:       res.Top5.Mean,
	}
	r := res
	return CellResult{Result: &r, Summary: sum}, nil
}

// runMeanTraceCell is one (site, attacker) point of Figure 4: `Runs`
// visits averaged into one max-normalized series. Per-visit compute holds
// a global slot, and the cell reuses one machine arena across its visits,
// exactly like the pre-dispatcher Figure4 body.
func runMeanTraceCell(spec CellSpec) (CellResult, error) {
	if err := spec.Validate(); err != nil {
		return CellResult{}, err
	}
	scn, err := spec.Scenario.ToScenario()
	if err != nil {
		return CellResult{}, err
	}
	profile := website.ProfileFor(spec.Site)
	arena := &kernel.Machine{}
	traces := make([]trace.Trace, spec.Runs)
	for v := 0; v < spec.Runs; v++ {
		t0 := acquireSlot()
		tr, err := collectOne(arena, scn, profile, 0, v, spec.Scale.Seed, nil)
		releaseSlot(t0)
		if err != nil {
			return CellResult{}, err
		}
		traces[v] = tr
	}
	mean, err := trace.MeanTrace(traces)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Series: stats.NormalizeMax(mean)}, nil
}
