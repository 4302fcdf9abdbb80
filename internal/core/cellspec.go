package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

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
	// vocabulary); empty means nearest centroid.
	Classifier string `json:"classifier,omitempty"`
	// Infer selects the inference tier for gradient-trained classifiers
	// (ml.ParseInferTier vocabulary); empty means compiled.
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
		if _, err := ClassifierByName(c.Classifier, 0); err != nil {
			return err
		}
		if _, err := ml.ParseInferTier(c.Infer); err != nil {
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

// runExperimentCell runs one experiment cell with the spec's classifier
// and inference tier, returning its result and manifest row.
func (r Runner) runExperimentCell(spec CellSpec) (CellResult, error) {
	scn, err := spec.Scenario.ToScenario()
	if err != nil {
		return CellResult{}, err
	}
	tier, err := ml.ParseInferTier(spec.Infer)
	if err != nil {
		return CellResult{}, err
	}
	mk, err := ClassifierByName(spec.Classifier, tier)
	if err != nil {
		return CellResult{}, err
	}
	res, sum, err := r.experiment(scn, spec.Scale, mk)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Result: &res, Summary: sum}, nil
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
