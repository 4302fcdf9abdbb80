package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/website"
)

var tinyScale = Scale{Sites: 4, TracesPerSite: 4, Folds: 2, Seed: 42}

func tinyScenario(name string) Scenario {
	return Scenario{Name: name, OS: kernel.Linux, Browser: browser.Chrome, Attack: LoopCounting}
}

func TestScaleValidate(t *testing.T) {
	cases := []Scale{
		{Sites: 1, TracesPerSite: 1, Folds: 2},
		{Sites: 101, TracesPerSite: 1, Folds: 2},
		{Sites: 5, TracesPerSite: 0, Folds: 2},
		{Sites: 5, TracesPerSite: 1, Folds: 1},
	}
	for i, sc := range cases {
		if sc.Validate() == nil {
			t.Errorf("case %d: invalid scale accepted", i)
		}
	}
	if err := tinyScale.Validate(); err != nil {
		t.Fatal(err)
	}
	if tinyScale.NonSensitiveLabel() != 4 {
		t.Fatal("NonSensitiveLabel")
	}
}

func TestScenarioNormalize(t *testing.T) {
	s := Scenario{}
	if s.normalize() == nil {
		t.Fatal("unnamed scenario accepted")
	}
	s = tinyScenario("x")
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Period != 5*sim.Millisecond || s.Variant.Name != "js" {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.TraceDuration != 15*sim.Second {
		t.Fatal("trace duration default")
	}
}

func TestEffectiveSampleSpacing(t *testing.T) {
	p := 5 * sim.Millisecond
	if got := effectiveSampleSpacing(clockface.Precise{}, p); got != p {
		t.Fatalf("precise spacing = %v", got)
	}
	if got := effectiveSampleSpacing(clockface.Tor(), p); got != 100*sim.Millisecond {
		t.Fatalf("tor spacing = %v", got)
	}
	if got := effectiveSampleSpacing(clockface.NewJittered(sim.Millisecond, 1), p); got != p {
		t.Fatalf("jittered-below-period spacing = %v", got)
	}
	r := clockface.NewRandomized(sim.NewStream(1, "x"))
	if got := effectiveSampleSpacing(r, p); got != 15*sim.Millisecond {
		t.Fatalf("randomized spacing = %v", got)
	}
}

func TestCollectOneShape(t *testing.T) {
	scn := tinyScenario("collect-one")
	tr, err := CollectOne(scn, website.ProfileFor("github.com"), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Label != 3 || tr.Domain != "github.com" {
		t.Fatalf("labeling: %+v", tr)
	}
	if len(tr.Values) != 3000 { // 15 s / 5 ms
		t.Fatalf("trace length = %d, want 3000", len(tr.Values))
	}
	// Determinism.
	tr2, err := CollectOne(scn, website.ProfileFor("github.com"), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Values {
		if tr.Values[i] != tr2.Values[i] {
			t.Fatal("CollectOne not deterministic")
		}
	}
}

func TestCollectDatasetShape(t *testing.T) {
	ds, err := (Runner{}).CollectDataset(tinyScenario("dataset"), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 16 || ds.NumClasses() != 4 {
		t.Fatalf("dataset: %d traces, %d classes", ds.Len(), ds.NumClasses())
	}
}

func TestCollectDatasetOpenWorld(t *testing.T) {
	sc := tinyScale
	sc.OpenWorld = 6
	ds, err := (Runner{}).CollectDataset(tinyScenario("openworld"), sc)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 22 || ds.NumClasses() != 5 {
		t.Fatalf("dataset: %d traces, %d classes", ds.Len(), ds.NumClasses())
	}
	ns := 0
	for i := 0; i < ds.Len(); i++ {
		if ds.Label(i) == sc.NonSensitiveLabel() {
			ns++
		}
	}
	if ns != 6 {
		t.Fatalf("non-sensitive traces = %d", ns)
	}
}

func TestRunExperimentClosedWorld(t *testing.T) {
	res, err := (Runner{}).RunExperiment(tinyScenario("tiny-closed"), tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpenWorld {
		t.Fatal("closed world flagged open")
	}
	if res.Top1.Mean < 50 {
		t.Fatalf("top1 = %v, want strong signal on 4 easy classes", res.Top1)
	}
	if res.Top5.Mean < res.Top1.Mean {
		t.Fatal("top5 < top1")
	}
	if len(res.FoldTop1) != 2 {
		t.Fatal("fold accuracies missing")
	}
	if !strings.Contains(res.String(), "tiny-closed") {
		t.Fatal("String()")
	}
}

func TestRunExperimentOpenWorld(t *testing.T) {
	sc := tinyScale
	sc.OpenWorld = 8
	res, err := (Runner{}).RunExperiment(tinyScenario("tiny-open"), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OpenWorld {
		t.Fatal("open world not flagged")
	}
	if res.Combined.Mean <= 0 {
		t.Fatal("combined accuracy empty")
	}
	if !strings.Contains(res.String(), "open") {
		t.Fatal("String()")
	}
}

func TestCompareSignificance(t *testing.T) {
	a := Result{FoldTop1: []float64{0.9, 0.91, 0.92, 0.9}}
	b := Result{FoldTop1: []float64{0.5, 0.52, 0.51, 0.5}}
	tt, err := CompareSignificance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tt.P > 0.01 {
		t.Fatalf("p = %v for clearly different results", tt.P)
	}
}

func TestTable2Tiny(t *testing.T) {
	rows, err := (Runner{}).Table2(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Result.Top1.Mean <= 0 && r.Noise != "interrupt" {
			t.Errorf("row %v has zero accuracy", r)
		}
		if r.String() == "" {
			t.Error("row String")
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	rows, err := (Runner{}).Table3(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Mechanism != "default" || !strings.Contains(rows[4].Mechanism, "VM") {
		t.Fatalf("ladder order: %v", rows)
	}
}

func TestTable4Tiny(t *testing.T) {
	sc := tinyScale
	rows, err := (Runner{}).Table4(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The randomized timer must be far weaker than the jittered timer.
	if rows[2].Result.Top1.Mean >= rows[0].Result.Top1.Mean-10 {
		t.Fatalf("randomized %v vs jittered %v: defense ineffective",
			rows[2].Result.Top1, rows[0].Result.Top1)
	}
}

func TestFigure3(t *testing.T) {
	traces, err := Figure3(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("sites = %d", len(traces))
	}
	for site, tr := range traces {
		if len(tr.Values) != 3000 {
			t.Fatalf("%s: %d samples", site, len(tr.Values))
		}
	}
}

func TestFigure4(t *testing.T) {
	series, err := (Runner{}).Figure4(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Correlation < 0.3 {
			t.Fatalf("%s: r = %v, loop and sweep should correlate strongly", s.Site, s.Correlation)
		}
		if len(s.Loop) == 0 || len(s.Sweep) != len(s.Loop) {
			t.Fatalf("%s: series lengths %d/%d", s.Site, len(s.Loop), len(s.Sweep))
		}
	}
	if _, err := (Runner{}).Figure4(1, 7); err == nil {
		t.Fatal("runs=1 accepted")
	}
}

func TestFigure5(t *testing.T) {
	series, err := Figure5(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.SoftirqPct) != 150 { // 15 s / 100 ms
			t.Fatalf("%s: %d buckets", s.Site, len(s.SoftirqPct))
		}
		peak := 0.0
		for _, v := range s.SoftirqPct {
			if v > peak {
				peak = v
			}
		}
		if peak <= 0 {
			t.Fatalf("%s: no softirq time recorded", s.Site)
		}
	}
	// nytimes activity concentrates early: the first 4 s must hold more
	// interrupt time than the last 5 s (§5.2).
	var ny Figure5Series
	for _, s := range series {
		if s.Site == "nytimes.com" {
			ny = s
		}
	}
	early, late := 0.0, 0.0
	for i, v := range ny.SoftirqPct {
		if i < 40 {
			early += v
		}
		if i >= 100 {
			late += v
		}
	}
	if early <= late {
		t.Fatalf("nytimes interrupt time not front-loaded: %v vs %v", early, late)
	}
	if _, err := Figure5(0, 7); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution.ExplainedFraction() < 0.99 {
		t.Fatalf("explained = %v, want the paper's >99%%", res.Attribution.ExplainedFraction())
	}
	// All observed gaps must exceed the 1.5 µs kernel-entry floor (§5.3).
	for ty, h := range res.Histograms {
		inRange := 0
		for i, c := range h.Counts {
			if h.BinCenter(i) < 1.4 && c > 0 {
				t.Fatalf("%v: gap below the 1.5µs Meltdown-mitigation floor", ty)
			}
			inRange += c
		}
	}
	if _, err := Figure6(0, 7); err == nil {
		t.Fatal("loads=0 accepted")
	}
}

// TestFigure6LegendOrder checks Figure6 lists its interrupt types in the
// figure's legend order, one histogram each, so output rows are stable.
func TestFigure6LegendOrder(t *testing.T) {
	res, err := Figure6(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	legend := []interrupt.Type{
		interrupt.SoftNetRX, interrupt.SoftTimer, interrupt.SoftTasklet,
		interrupt.LocalTimer, interrupt.IRQWork, interrupt.NetRX,
	}
	if !slices.Equal(res.Types, legend) {
		t.Fatalf("types %v, want legend order %v", res.Types, legend)
	}
	if len(res.Histograms) != len(legend) {
		t.Fatalf("%d histograms for %d types", len(res.Histograms), len(legend))
	}
	for _, ty := range res.Types {
		if res.Histograms[ty] == nil {
			t.Fatalf("%v: no histogram", ty)
		}
	}
}

func TestFigure7(t *testing.T) {
	series := Figure7(7)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.RealMS) != len(s.ValueMS) || len(s.RealMS) == 0 {
			t.Fatalf("%s: bad lengths", s.Timer)
		}
		// All timers are monotone.
		for i := 1; i < len(s.ValueMS); i++ {
			if s.ValueMS[i] < s.ValueMS[i-1] {
				t.Fatalf("%s not monotone", s.Timer)
			}
		}
	}
}

func TestFigure8(t *testing.T) {
	series, err := Figure8(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byName := map[string]Figure8Series{}
	for _, s := range series {
		byName[s.Timer] = s
	}
	// Quantized(100ms): all durations ~100 ms.
	for _, d := range byName["quantized"].Durations {
		if math.Abs(d-100) > 1 {
			t.Fatalf("quantized duration %v, want ~100ms", d)
		}
	}
	// Jittered: 4.8–5.2 ms band.
	for _, d := range byName["jittered"].Durations {
		if d < 4.7 || d > 5.3 {
			t.Fatalf("jittered duration %v outside 4.8–5.2ms band", d)
		}
	}
	// Randomized: wide spread — range must exceed 20 ms.
	min, max := math.Inf(1), math.Inf(-1)
	for _, d := range byName["randomized"].Durations {
		min = math.Min(min, d)
		max = math.Max(max, d)
	}
	if max-min < 20 {
		t.Fatalf("randomized durations too tight: [%v, %v]", min, max)
	}
	if _, err := Figure8(5, 7); err == nil {
		t.Fatal("samples=5 accepted")
	}
}

func TestCollectOneRandomizedTimerSlots(t *testing.T) {
	scn := tinyScenario("slots")
	scn.Variant = attack.Python
	scn.Timer = func(seed uint64) clockface.Timer {
		return clockface.NewRandomized(sim.NewStream(seed, "t"))
	}
	tr, err := CollectOne(scn, website.ProfileFor("github.com"), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Slot indexing leaves holes: a healthy fraction of zeros.
	zeros := 0
	for _, v := range tr.Values {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("randomized-timer trace has no holes; slot indexing inactive?")
	}
}

func TestTopConfusions(t *testing.T) {
	cm := stats.NewConfusionMatrix(3)
	cm.Add(0, 1)
	cm.Add(0, 1)
	cm.Add(1, 2)
	cm.Add(2, 2) // diagonal ignored
	got := TopConfusions(cm, []string{"a.com", "b.com"}, 5)
	if len(got) != 2 {
		t.Fatalf("pairs = %v", got)
	}
	if got[0].True != "a.com" || got[0].Predicted != "b.com" || got[0].Count != 2 {
		t.Fatalf("top pair = %+v", got[0])
	}
	// Label 2 is beyond the slice → "non-sensitive".
	if got[1].Predicted != "non-sensitive" {
		t.Fatalf("overflow label = %+v", got[1])
	}
	if TopConfusions(nil, nil, 3) != nil || TopConfusions(cm, nil, 0) != nil {
		t.Fatal("edge cases")
	}
}

func TestInterruptSignatures(t *testing.T) {
	sig := func(site string) InterruptSignature {
		s, err := SignatureOf(site, 2, 5*sim.Second, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	weather := sig("weather.com")
	nytimes := sig("nytimes.com")

	// §5.2: weather.com routinely triggers TLB shootdowns (memory churn);
	// its TLB rate must clearly exceed nytimes'.
	wTLB := weather.Rate(interrupt.IPITLB)
	nTLB := nytimes.Rate(interrupt.IPITLB)
	if wTLB <= nTLB {
		t.Fatalf("weather TLB rate %v should exceed nytimes %v", wTLB, nTLB)
	}
	// Signatures of different sites differ; identical calls agree.
	if weather.Distance(nytimes) <= 0 {
		t.Fatal("distinct sites should have distinct signatures")
	}
	again := sig("weather.com")
	if weather.Distance(again) != 0 {
		t.Fatal("SignatureOf not deterministic")
	}
	if weather.String() == "" {
		t.Fatal("String")
	}
	if _, err := SignatureOf("x", 0, sim.Second, 1); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

func TestBackgroundNoiseExperiment(t *testing.T) {
	res, err := (Runner{}).BackgroundNoise(Scale{Sites: 6, TracesPerSite: 6, Folds: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// §4.2: a drop of "just a few points" — the attack stays strong.
	if res.Noisy.Top1.Mean < res.Quiet.Top1.Mean-25 {
		t.Fatalf("background noise too damaging: %v", res)
	}
	if res.Noisy.Top1.Mean < 50 {
		t.Fatalf("attack collapsed under background noise: %v", res)
	}
	if res.String() == "" {
		t.Fatal("String")
	}
}

func TestTable1TinyTwoConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs 8 browser×OS configs")
	}
	sc := Scale{Sites: 3, TracesPerSite: 3, OpenWorld: 4, Folds: 3, Seed: 15}
	rows, err := (Runner{}).Table1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ClosedLoop.Top1.Mean <= 0 {
			t.Fatalf("%v: zero closed accuracy", r.Config)
		}
		if !r.OpenLoop.OpenWorld || !r.OpenSweep.OpenWorld {
			t.Fatalf("%v: open world missing", r.Config)
		}
		if r.String() == "" {
			t.Fatal("String")
		}
	}
}

func TestStability(t *testing.T) {
	scn := tinyScenario("stability")
	sum, err := (Runner{}).Stability(scn, tinyScale, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean <= 0 || sum.Mean > 100 {
		t.Fatalf("stability mean = %v", sum.Mean)
	}
	if _, err := (Runner{}).Stability(scn, tinyScale, []uint64{1}); err == nil {
		t.Fatal("single seed accepted")
	}
}
