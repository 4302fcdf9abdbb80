package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/ml"
)

func TestCellSpecRoundTrip(t *testing.T) {
	specs := []CellSpec{
		{
			Scenario: ScenarioSpec{
				Name: "t4/1-quantized-P5ms", OS: "linux", Browser: "chrome",
				Attack: "loop", Variant: "python", Timer: "quantized:100",
				PeriodMS: 5, TraceDurationS: 2.5, VisitJitter: 0.1,
				FixedFreqGHz: 2.4, PinCores: true, RemoveIRQs: true,
				SeparateVMs: true, BackgroundNoise: true, InterruptNoise: true,
				CacheNoise: true,
			},
			Scale:      Scale{Sites: 10, TracesPerSite: 8, OpenWorld: 4, Folds: 4, Seed: 5, Parallelism: 2, CellParallelism: 3},
			Classifier: "knn",
			Infer:      "int8",
		},
		{
			Kind:     "meantrace",
			Scenario: ScenarioSpec{Name: "fig4/loop", Attack: "loop"},
			Scale:    Scale{Seed: 9},
			Site:     "nytimes.com",
			Runs:     4,
		},
	}
	for _, spec := range specs {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back, err := ParseCellSpec(data)
		if err != nil {
			t.Fatalf("parse %s: %v", data, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("round trip changed spec:\nbefore %+v\nafter  %+v", spec, back)
		}
	}
}

func TestCellSpecValidate(t *testing.T) {
	valid := CellSpec{
		Scenario: ScenarioSpec{Name: "ok", OS: "linux", Browser: "chrome", Attack: "loop"},
		Scale:    Scale{Sites: 2, TracesPerSite: 1, Folds: 2},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CellSpec)
	}{
		{"unknown kind", func(c *CellSpec) { c.Kind = "meantraces" }},
		{"nameless scenario", func(c *CellSpec) { c.Scenario.Name = "" }},
		{"unknown os", func(c *CellSpec) { c.Scenario.OS = "plan9" }},
		{"unknown browser", func(c *CellSpec) { c.Scenario.Browser = "lynx" }},
		{"unknown attack", func(c *CellSpec) { c.Scenario.Attack = "rowhammer" }},
		{"unknown variant", func(c *CellSpec) { c.Scenario.Variant = "cobol" }},
		{"bad timer", func(c *CellSpec) { c.Scenario.Timer = "sundial" }},
		{"unknown classifier", func(c *CellSpec) { c.Classifier = "svm" }},
		{"unknown tier", func(c *CellSpec) { c.Infer = "fp16" }},
		{"too few sites", func(c *CellSpec) { c.Scale.Sites = 1 }},
		{"negative open world", func(c *CellSpec) { c.Scale.OpenWorld = -1 }},
		{"too few folds", func(c *CellSpec) { c.Scale.Folds = 1 }},
		{"meantrace without site", func(c *CellSpec) { c.Kind = "meantrace"; c.Runs = 4 }},
		{"meantrace one run", func(c *CellSpec) { c.Kind = "meantrace"; c.Site = "amazon.com"; c.Runs = 1 }},
	}
	for _, tc := range cases {
		spec := valid
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validated without error", tc.name)
		}
	}
}

func TestParseCellSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":          `{"scenario":{"name":"x"},"sclae":{}}`,
		"unknown scenario field": `{"scenario":{"name":"x","osname":"linux"}}`,
		"trailing data":          `{"scenario":{"name":"x"}} {"more":1}`,
		"wrong type":             `{"runs":"four"}`,
		"not an object":          `[1,2]`,
	}
	for name, in := range cases {
		if _, err := ParseCellSpec([]byte(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseTimerSpecErrors(t *testing.T) {
	bad := []string{
		"quantized",     // missing Δ
		"quantized:",    // empty Δ
		"quantized:0",   // non-positive Δ
		"quantized:-5",  // negative Δ
		"quantized:abc", // non-numeric Δ
		"jittered",      // missing Δ
		"jittered:zzz",  // non-numeric Δ
		"randomized:5",  // argless timer with argument
		"precise:1",     // argless timer with argument
		"python:2",      // argless timer with argument
		"hourglass",     // unknown timer
	}
	for _, spec := range bad {
		if _, err := parseTimerSpec(spec); err == nil {
			t.Errorf("%q: parsed without error", spec)
		}
	}
	good := []string{"precise", "python", "randomized", "quantized:100", "jittered:0.1"}
	for _, spec := range good {
		if _, err := parseTimerSpec(spec); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
	}
}

// FuzzCellSpecJSON gates the wire-payload codec: arbitrary bytes never
// panic the parser, and anything accepted survives a marshal/re-parse
// round trip unchanged.
func FuzzCellSpecJSON(f *testing.F) {
	f.Add([]byte(`{"scenario":{"name":"t1/x","os":"linux"},"scale":{"sites":4,"traces_per_site":3,"folds":2}}`))
	f.Add([]byte(`{"kind":"meantrace","scenario":{"name":"fig4/loop"},"scale":{"seed":7},"site":"a.com","runs":3}`))
	f.Add([]byte(`{"classifier":"knn","infer":"int8"}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseCellSpec(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseCellSpec(out)
		if err != nil {
			t.Fatalf("marshaled spec rejected: %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed spec:\nbefore %+v\nafter  %+v", spec, back)
		}
	})
}

// recordingDispatcher captures what a Runner hands its dispatcher.
type recordingDispatcher struct {
	specs []CellSpec
	par   int
}

func (d *recordingDispatcher) RunCells(specs []CellSpec, par int) ([]CellResult, error) {
	d.specs = specs
	d.par = par
	return make([]CellResult, len(specs)), nil
}

// TestRunCellSpecsDispatcher checks that a Runner with a dispatcher hands
// it every cell untouched, and that tables write the runner's classifier
// and tier into each experiment cell so a remote worker reproduces them.
func TestRunCellSpecsDispatcher(t *testing.T) {
	t.Parallel()
	d := &recordingDispatcher{}
	r := Runner{Classifier: "logreg", Tier: ml.TierInt8, Dispatcher: d}
	specs := []CellSpec{
		{Scenario: ScenarioSpec{Name: "a"}, Scale: tinyScale},
		{Kind: "meantrace", Scenario: ScenarioSpec{Name: "b"}, Site: "x.com", Runs: 3},
	}
	res, err := r.RunCells(specs, 5)
	if err != nil {
		t.Fatalf("RunCells: %v", err)
	}
	if len(res) != 2 || d.par != 5 || !reflect.DeepEqual(d.specs, specs) {
		t.Fatalf("dispatcher saw specs %+v par %d", d.specs, d.par)
	}

	rows, err := r.Table3(tinyScale)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(d.specs) != len(rows) {
		t.Fatalf("Table3 dispatched %d cells for %d rows", len(d.specs), len(rows))
	}
	for _, spec := range d.specs {
		if spec.Classifier != "logreg" || spec.Infer != "int8" {
			t.Errorf("cell %q carries classifier %q tier %q, want logreg int8",
				spec.Scenario.Name, spec.Classifier, spec.Infer)
		}
	}
}
