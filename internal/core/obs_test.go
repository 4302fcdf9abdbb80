package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
)

// TestObservedExperimentManifest is the acceptance test for the
// observability layer: a small experiment run with obs enabled and a
// gradient-trained classifier must produce a manifest containing per-cell
// timings, cache hit/miss counts, slot-pool utilization, epoch losses, and
// trimmed-sample counts.
func TestObservedExperimentManifest(t *testing.T) {
	obs.Default.Reset()
	obs.DefaultTracer.Reset()
	obs.ResetWarnings()
	obs.Enable()
	defer obs.Disable()
	r := Runner{Classifier: "logreg", Cache: NewDatasetCache(8, 0, "")}

	scn := benchScenario()
	scn.Name = "obs/manifest"
	sc := benchCollectScale
	sc.Seed = 4242
	start := time.Now()
	res, err := r.RunExperiment(scn, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Second run: collection must come from the dataset cache while
	// evaluation recomputes, giving the manifest one cached and one
	// uncached cell.
	if _, err := r.RunExperiment(scn, sc); err != nil {
		t.Fatal(err)
	}

	m := obs.NewManifest("obs-test")
	m.Config["scenario"] = scn.Name
	m.Sections = r.ManifestSections(time.Since(start))
	m.Finish(obs.Default, obs.DefaultTracer, start)

	if len(m.Cells) != 2 {
		t.Fatalf("manifest cells = %d, want 2", len(m.Cells))
	}
	var cachedCells int
	for _, c := range m.Cells {
		if c.Scenario != scn.Name {
			t.Errorf("cell scenario = %q, want %q", c.Scenario, scn.Name)
		}
		if c.WallMS <= 0 {
			t.Errorf("cell wall_ms = %v, want > 0", c.WallMS)
		}
		if c.Traces != sc.Sites*sc.TracesPerSite {
			t.Errorf("cell traces = %d, want %d", c.Traces, sc.Sites*sc.TracesPerSite)
		}
		if c.Folds != sc.Folds {
			t.Errorf("cell folds = %d, want %d", c.Folds, sc.Folds)
		}
		if c.Cached {
			cachedCells++
		} else if c.CPUMS <= 0 {
			t.Errorf("uncached cell cpu_ms = %v, want > 0", c.CPUMS)
		}
		if c.TrimmedSamples < 0 {
			t.Errorf("cell trimmed_samples = %d, want >= 0", c.TrimmedSamples)
		}
		if c.Top1Mean != res.Top1.Mean {
			t.Errorf("cell top1_mean = %v, want %v", c.Top1Mean, res.Top1.Mean)
		}
	}
	if cachedCells != 1 {
		t.Errorf("cached cells = %d, want exactly 1", cachedCells)
	}

	if hits := m.Metrics.Counters["core.dscache.hits"]; hits < 1 {
		t.Errorf("dscache hits = %d, want >= 1", hits)
	}
	if misses := m.Metrics.Counters["core.dscache.misses"]; misses < 1 {
		t.Errorf("dscache misses = %d, want >= 1", misses)
	}
	if got := m.Metrics.Counters["core.traces.collected"]; got != int64(sc.Sites*sc.TracesPerSite) {
		t.Errorf("traces collected = %d, want %d", got, sc.Sites*sc.TracesPerSite)
	}
	if m.Metrics.Counters["core.sim.events_processed"] <= 0 {
		t.Error("sim events_processed not recorded")
	}
	if m.Metrics.Counters["core.slots.busy_ns"] <= 0 {
		t.Error("slot busy_ns not recorded")
	}
	if got := m.Metrics.Counters["core.folds.completed"]; got != int64(2*sc.Folds) {
		t.Errorf("folds completed = %d, want %d", got, 2*sc.Folds)
	}
	// LogReg trains through ml.Fit, so epoch metrics and per-fit loss
	// curves must be present.
	if m.Metrics.Counters["ml.fit.epochs"] <= 0 {
		t.Error("ml.fit.epochs not recorded; classifier override did not reach ml.Fit")
	}
	var fitSpans int
	for _, s := range m.Spans {
		if s.Name != "ml.fit" {
			continue
		}
		fitSpans++
		losses, ok := s.Attrs["losses"].([]float64)
		if !ok || len(losses) == 0 {
			t.Errorf("ml.fit span missing epoch losses: %v", s.Attrs)
		}
	}
	if fitSpans != 2*sc.Folds {
		t.Errorf("ml.fit spans = %d, want %d (one per fold)", fitSpans, 2*sc.Folds)
	}

	slots, ok := m.Sections["slots"].(map[string]any)
	if !ok {
		t.Fatalf("manifest sections missing slots: %v", m.Sections)
	}
	if util, ok := slots["utilization"].(float64); !ok || util <= 0 || util > 1 {
		t.Errorf("slot utilization = %v, want in (0, 1]", slots["utilization"])
	}

	// The manifest must survive a JSON round-trip intact (it is the
	// on-disk run artifact).
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 2 || back.Metrics.Counters["core.traces.collected"] == 0 {
		t.Errorf("manifest JSON round-trip lost data: %s", raw)
	}
}

// TestProgressLine checks the live status line reflects the pipeline
// counters it advertises.
func TestProgressLine(t *testing.T) {
	line := Runner{Tier: ml.TierInt8}.ProgressLine()
	for _, want := range []string{"cells", "traces", "folds", "cache", "slots", "infer int8"} {
		if !strings.Contains(line, want) {
			t.Errorf("ProgressLine() = %q, missing %q", line, want)
		}
	}
}
