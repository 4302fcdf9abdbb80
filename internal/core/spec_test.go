package core

import (
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestParseScenarioSpec(t *testing.T) {
	js := `{
		"name": "custom",
		"os": "windows",
		"browser": "firefox",
		"attack": "sweep",
		"variant": "python",
		"timer": "quantized:100",
		"period_ms": 10,
		"trace_duration_s": 20,
		"pin_cores": true,
		"interrupt_noise": true
	}`
	spec, err := ParseScenarioSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	scn, err := spec.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	if scn.OS != kernel.Windows || scn.Browser != browser.Firefox || scn.Attack != SweepCounting {
		t.Fatalf("scenario: %+v", scn)
	}
	if scn.Period != 10*sim.Millisecond || scn.TraceDuration != 20*sim.Second {
		t.Fatal("durations")
	}
	if !scn.Isolation.PinCores || !scn.InterruptNoise {
		t.Fatal("flags")
	}
	if scn.Timer == nil || scn.Timer(1).Name() != "quantized" {
		t.Fatal("timer")
	}
	if scn.Variant.Name != "python" {
		t.Fatal("variant")
	}
}

func TestParseScenarioSpecErrors(t *testing.T) {
	cases := []string{
		`{"unknown_field": 1}`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := ParseScenarioSpec(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

func TestToScenarioValidation(t *testing.T) {
	cases := []ScenarioSpec{
		{},                                                                               // no name
		{Name: "x", OS: "plan9"},                                                         // bad OS
		{Name: "x", Browser: "lynx"},                                                     // bad browser
		{Name: "x", Attack: "rowhammer"} /* bad attack */, {Name: "x", Variant: "cobol"}, // bad variant
		{Name: "x", Timer: "sundial"},      // bad timer
		{Name: "x", Timer: "quantized"},    // missing arg
		{Name: "x", Timer: "quantized:-5"}, // bad arg
		{Name: "x", Timer: "jittered"},     // missing arg
		{Name: "x", Timer: "jittered:zzz"}, // bad arg
	}
	for i, c := range cases {
		if _, err := c.ToScenario(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	// Minimal defaults resolve.
	scn, err := ScenarioSpec{Name: "min"}.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	if scn.OS != kernel.Linux || scn.Browser != browser.Chrome || scn.Attack != LoopCounting {
		t.Fatal("defaults")
	}
}

func TestTimerSpecVariants(t *testing.T) {
	for spec, want := range map[string]string{
		"precise":      "precise",
		"python":       "quantized",
		"randomized":   "randomized",
		"jittered:0.1": "jittered",
	} {
		mk, err := parseTimerSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := mk(1).Name(); got != want {
			t.Fatalf("%s → %s, want %s", spec, got, want)
		}
	}
}

func TestSpecRoundTripRuns(t *testing.T) {
	spec := ScenarioSpec{Name: "rt", Attack: "loop", Timer: "python", Variant: "python"}
	scn, err := spec.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Runner{}).RunExperiment(scn, Scale{Sites: 3, TracesPerSite: 3, Folds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Top1.Mean <= 0 {
		t.Fatal("no accuracy")
	}
	if res.Confusion.Total() != 9 {
		t.Fatalf("confusion total = %d", res.Confusion.Total())
	}
}
