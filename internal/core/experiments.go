package core

import (
	"fmt"
	"strings"

	"repro/internal/browser"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// This file reproduces the paper's tables. Each function runs the relevant
// scenarios at the given scale and returns printable rows; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Tables build their grids as wire-safe CellSpecs carrying the runner's
// classifier and tier and hand them to scatterCells, so the same grid runs
// through the local cell pool or — when the runner has a dispatcher —
// across worker replicas (internal/dist).

// Table1Config is one (browser, OS) row of Table 1.
type Table1Config struct {
	Browser browser.Browser
	OS      kernel.OS
}

// Table1Configs lists the paper's eight browser×OS combinations.
func Table1Configs() []Table1Config {
	return []Table1Config{
		{browser.Chrome, kernel.Linux},
		{browser.Chrome, kernel.Windows},
		{browser.Chrome, kernel.MacOS},
		{browser.Firefox, kernel.Linux},
		{browser.Firefox, kernel.Windows},
		{browser.Firefox, kernel.MacOS},
		{browser.Safari, kernel.MacOS},
		{browser.TorBrowser, kernel.Linux},
	}
}

// Table1Row holds closed- and open-world results for one configuration,
// for both the loop-counting attack and the cache (sweep-counting) attack.
type Table1Row struct {
	Config          Table1Config
	ClosedLoop      Result
	ClosedSweep     Result
	OpenLoop        Result
	OpenSweep       Result
	LoopVsSweepP    float64 // closed-world significance (§4.2 t-test)
	significanceSet bool
}

func (r Table1Row) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-8s closed: loop %s vs sweep %s",
		r.Config.Browser, r.Config.OS, r.ClosedLoop.Top1, r.ClosedSweep.Top1)
	if r.OpenLoop.OpenWorld {
		fmt.Fprintf(&b, " | open: loop sens %s non %s comb %s vs sweep comb %s",
			r.OpenLoop.Sensitive, r.OpenLoop.NonSensitive, r.OpenLoop.Combined, r.OpenSweep.Combined)
	}
	if r.significanceSet {
		fmt.Fprintf(&b, " | p=%.2g", r.LoopVsSweepP)
	}
	return b.String()
}

// Table1 reproduces "Classification accuracy obtained with JavaScript
// loop-counting attacker" across browser×OS combinations. Open-world runs
// are skipped when sc.OpenWorld is 0.
func (r Runner) Table1(sc Scale) ([]Table1Row, error) {
	cfgs := Table1Configs()
	rows := make([]Table1Row, len(cfgs))
	closedScale := sc
	closedScale.OpenWorld = 0
	var specs []CellSpec
	var dsts []*Result
	cell := func(scn ScenarioSpec, scale Scale, dst *Result) {
		specs = append(specs, r.experimentCell(scn, scale))
		dsts = append(dsts, dst)
	}
	for i, cfg := range cfgs {
		rows[i].Config = cfg
		base := ScenarioSpec{
			OS:      osSpecName(cfg.OS),
			Browser: browserSpecName(cfg.Browser),
		}

		loop := base
		loop.Name = fmt.Sprintf("t1/%s/%s/loop/closed", cfg.Browser, cfg.OS)
		loop.Attack = "loop"
		cell(loop, closedScale, &rows[i].ClosedLoop)

		sweep := base
		sweep.Name = fmt.Sprintf("t1/%s/%s/sweep/closed", cfg.Browser, cfg.OS)
		sweep.Attack = "sweep"
		cell(sweep, closedScale, &rows[i].ClosedSweep)

		if sc.OpenWorld > 0 {
			loopOpen := loop
			loopOpen.Name = fmt.Sprintf("t1/%s/%s/loop/open", cfg.Browser, cfg.OS)
			cell(loopOpen, sc, &rows[i].OpenLoop)

			sweepOpen := sweep
			sweepOpen.Name = fmt.Sprintf("t1/%s/%s/sweep/open", cfg.Browser, cfg.OS)
			cell(sweepOpen, sc, &rows[i].OpenSweep)
		}
	}
	if err := r.scatterCells(specs, dsts, sc.CellParallelism); err != nil {
		return nil, err
	}
	for i := range rows {
		if tt, err := CompareSignificance(rows[i].ClosedLoop, rows[i].ClosedSweep); err == nil {
			rows[i].LoopVsSweepP = tt.P
			rows[i].significanceSet = true
		}
	}
	return rows, nil
}

// Table2Row is one cell group of Table 2: an attack under a noise source.
type Table2Row struct {
	Attack AttackKind
	Noise  string
	Result Result
}

func (r Table2Row) String() string {
	return fmt.Sprintf("%-15s %-16s %s", r.Attack, r.Noise, r.Result.Top1)
}

// Table2 reproduces "Classification accuracy ... in the presence of
// different sources of noise": loop- and sweep-counting under no noise,
// cache-sweep noise, and interrupt noise, all on Chrome/Linux (§4.3 runs
// this controlled comparison on a single machine).
func (r Runner) Table2(sc Scale) ([]Table2Row, error) {
	sc.OpenWorld = 0
	// Full capacity up front: dsts hold pointers into rows, so the backing
	// array must never reallocate.
	rows := make([]Table2Row, 0, 6)
	var specs []CellSpec
	var dsts []*Result
	for _, kind := range []AttackKind{LoopCounting, SweepCounting} {
		for _, noise := range []string{"none", "cache-sweep", "interrupt"} {
			scn := ScenarioSpec{
				Name:    fmt.Sprintf("t2/%s/%s", kind, noise),
				OS:      "linux",
				Browser: "chrome",
				Attack:  attackSpecName(kind),
			}
			switch noise {
			case "cache-sweep":
				scn.CacheNoise = true
			case "interrupt":
				scn.InterruptNoise = true
			}
			rows = append(rows, Table2Row{Attack: kind, Noise: noise})
			specs = append(specs, r.experimentCell(scn, sc))
			dsts = append(dsts, &rows[len(rows)-1].Result)
		}
	}
	if err := r.scatterCells(specs, dsts, sc.CellParallelism); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Row is one isolation-ladder step.
type Table3Row struct {
	Mechanism string
	Result    Result
}

func (r Table3Row) String() string {
	return fmt.Sprintf("%-28s top1 %s top5 %s", r.Mechanism, r.Result.Top1, r.Result.Top5)
}

// Table3 reproduces "Classification accuracy obtained with Python
// loop-counting attacker under various isolation mechanisms". Each step
// adds one mechanism to all previous ones (§5.1).
func (r Runner) Table3(sc Scale) ([]Table3Row, error) {
	sc.OpenWorld = 0
	base := ScenarioSpec{
		OS:      "linux",
		Browser: "chrome", // victim browser; attacker is native Python
		Attack:  "loop",
		Variant: "python",
		Timer:   "python",
	}
	steps := []struct {
		name  string
		apply func(*ScenarioSpec)
	}{
		{"default", func(*ScenarioSpec) {}},
		{"+ disable frequency scaling", func(s *ScenarioSpec) { s.FixedFreqGHz = 2.4 }},
		{"+ pin to separate cores", func(s *ScenarioSpec) { s.PinCores = true }},
		{"+ remove IRQ interrupts", func(s *ScenarioSpec) { s.RemoveIRQs = true }},
		{"+ run in separate VMs", func(s *ScenarioSpec) { s.SeparateVMs = true }},
	}
	rows := make([]Table3Row, len(steps))
	specs := make([]CellSpec, len(steps))
	dsts := make([]*Result, len(steps))
	scn := base
	for i, st := range steps {
		st.apply(&scn) // cumulative: each step keeps all previous mechanisms
		scn.Name = fmt.Sprintf("t3/%d-%s", i, st.name)
		rows[i].Mechanism = st.name
		specs[i] = r.experimentCell(scn, sc)
		dsts[i] = &rows[i].Result
	}
	if err := r.scatterCells(specs, dsts, sc.CellParallelism); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table4Row is one timer-defense evaluation.
type Table4Row struct {
	Timer    string
	DeltaMS  float64
	PeriodMS float64
	Result   Result
}

func (r Table4Row) String() string {
	return fmt.Sprintf("%-10s Δ=%gms P=%gms top1 %s top5 %s",
		r.Timer, r.DeltaMS, r.PeriodMS, r.Result.Top1, r.Result.Top5)
}

// Table4 reproduces "Classification accuracy obtained with Python
// loop-counting attacker with different timers": Chrome's jittered timer,
// a Tor-style 100 ms quantized timer, and the paper's randomized timer at
// P ∈ {5, 100, 500} ms (§6.1).
func (r Runner) Table4(sc Scale) ([]Table4Row, error) {
	sc.OpenWorld = 0
	base := ScenarioSpec{
		OS:      "linux",
		Browser: "chrome",
		Attack:  "loop",
		Variant: "python",
	}
	type cfg struct {
		name    string
		deltaMS float64
		period  sim.Duration
		timer   string
	}
	cfgs := []cfg{
		{"jittered", 0.1, 5 * sim.Millisecond, "jittered:0.1"},
		{"quantized", 100, 5 * sim.Millisecond, "quantized:100"},
		{"randomized", 1, 5 * sim.Millisecond, "randomized"},
		{"randomized", 1, 100 * sim.Millisecond, "randomized"},
		{"randomized", 1, 500 * sim.Millisecond, "randomized"},
	}
	rows := make([]Table4Row, len(cfgs))
	specs := make([]CellSpec, len(cfgs))
	dsts := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		scn := base
		scn.Name = fmt.Sprintf("t4/%d-%s-P%v", i, c.name, c.period)
		scn.Timer = c.timer
		scn.PeriodMS = c.period.Milliseconds()
		rows[i] = Table4Row{
			Timer: c.name, DeltaMS: c.deltaMS, PeriodMS: c.period.Milliseconds(),
		}
		specs[i] = r.experimentCell(scn, sc)
		dsts[i] = &rows[i].Result
	}
	if err := r.scatterCells(specs, dsts, sc.CellParallelism); err != nil {
		return nil, err
	}
	return rows, nil
}

// BackgroundNoiseResult holds §4.2's robustness experiment: the attack with
// and without Slack + Spotify running (paper: 96.6 % → 93.4 %, "other
// applications do not generate enough noise to have a significant impact").
type BackgroundNoiseResult struct {
	Quiet, Noisy Result
}

func (r BackgroundNoiseResult) String() string {
	return fmt.Sprintf("quiet %s | with Slack+Spotify %s", r.Quiet.Top1, r.Noisy.Top1)
}

// BackgroundNoise runs the robustness experiment on Chrome/Linux.
func (r Runner) BackgroundNoise(sc Scale) (BackgroundNoiseResult, error) {
	sc.OpenWorld = 0
	base := ScenarioSpec{OS: "linux", Browser: "chrome", Attack: "loop"}
	quiet := base
	quiet.Name = "bgnoise/quiet"
	noisy := base
	noisy.Name = "bgnoise/slack-spotify"
	noisy.BackgroundNoise = true
	var res BackgroundNoiseResult
	specs := []CellSpec{r.experimentCell(quiet, sc), r.experimentCell(noisy, sc)}
	dsts := []*Result{&res.Quiet, &res.Noisy}
	if err := r.scatterCells(specs, dsts, sc.CellParallelism); err != nil {
		return BackgroundNoiseResult{}, err
	}
	return res, nil
}
