package core

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/defense"
	"repro/internal/ebpf"
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/website"
)

// FigureSites are the three sites the paper's figures follow.
var FigureSites = []string{"nytimes.com", "amazon.com", "weather.com"}

// Figure3 regenerates the example loop-counting traces: one 15-second
// Chrome/Linux trace per figure site.
func Figure3(seed uint64) (map[string]trace.Trace, error) {
	scn := Scenario{
		Name: "fig3", OS: kernel.Linux, Browser: browser.Chrome,
		Attack: LoopCounting,
	}
	out := make(map[string]trace.Trace, len(FigureSites))
	arena := &kernel.Machine{}
	for _, site := range FigureSites {
		tr, err := collectOne(arena, scn, website.ProfileFor(site), 0, 0, seed, nil)
		if err != nil {
			return nil, err
		}
		out[site] = tr
	}
	return out, nil
}

// Figure4Series holds one site's averaged, max-normalized traces for both
// attackers and their Pearson correlation.
type Figure4Series struct {
	Site        string
	Loop        []float64
	Sweep       []float64
	Correlation float64
}

// Figure4 regenerates the loop- vs sweep-counting comparison: traces
// averaged over `runs` visits per site, normalized by each attacker's
// maximum, with the correlation coefficient the paper reports (r = 0.87,
// 0.79, 0.94 for the three sites).
func (r Runner) Figure4(runs int, seed uint64) ([]Figure4Series, error) {
	if runs < 2 {
		return nil, fmt.Errorf("core: Figure4 needs at least 2 runs")
	}
	out := make([]Figure4Series, len(FigureSites))
	kinds := []string{"loop", "sweep"}
	// One "meantrace" cell per (site, attacker) pair: cells pipeline
	// concurrently (or across worker replicas when the runner has a
	// dispatcher) while per-visit compute stays bounded by the global slot
	// pool, and each cell reuses a single machine arena across its visits.
	specs := make([]CellSpec, 0, len(FigureSites)*len(kinds))
	for _, site := range FigureSites {
		for _, k := range kinds {
			specs = append(specs, CellSpec{
				Kind: "meantrace",
				Scenario: ScenarioSpec{
					Name: "fig4/" + k, OS: "linux",
					Browser: "chrome", Attack: k,
				},
				Scale: Scale{Seed: seed},
				Site:  site,
				Runs:  runs,
			})
		}
	}
	results, err := r.RunCells(specs, 0)
	if err != nil {
		return nil, err
	}
	for ci, res := range results {
		if ci%len(kinds) == 0 {
			out[ci/len(kinds)].Loop = res.Series
		} else {
			out[ci/len(kinds)].Sweep = res.Series
		}
	}
	for i, site := range FigureSites {
		out[i].Site = site
		corr, err := stats.Pearson(out[i].Loop, out[i].Sweep)
		if err != nil {
			return nil, err
		}
		out[i].Correlation = corr
	}
	return out, nil
}

// Figure5Series is one site's interrupt-time timeline, split by the two
// non-movable interrupt groups the figure plots.
type Figure5Series struct {
	Site string
	// SoftirqPct and ReschedPct are percentages of each 100 ms bucket
	// spent in softirq handlers and rescheduling-IPI handlers on the
	// attacker's core, averaged over the runs.
	SoftirqPct []float64
	ReschedPct []float64
}

// Figure5 regenerates "percentage of time spent processing interrupts":
// with movable IRQs kept off the attacker core (irqbalance), the remaining
// softirq and rescheduling-interrupt time is bucketed per 100 ms and
// averaged over `runs` page loads.
func Figure5(runs int, seed uint64) ([]Figure5Series, error) {
	if runs < 1 {
		return nil, fmt.Errorf("core: Figure5 needs at least 1 run")
	}
	const dur = 15 * sim.Second
	bucket := 100 * sim.Millisecond
	n := int(dur / bucket)
	var out []Figure5Series
	m := &kernel.Machine{} // arena, re-booted per visit
	for _, site := range FigureSites {
		soft := make([]float64, n)
		resched := make([]float64, n)
		for v := 0; v < runs; v++ {
			m.Reset(kernel.Config{
				OS:   kernel.Linux,
				Seed: traceSeed(seed, "fig5", site, v),
				Isolation: kernel.Isolation{
					RemoveIRQs: true, PinCores: true,
				},
			})
			tracer := ebpf.Attach(m.Ctl, kernel.AttackerCore, 1<<20)
			visit := website.ProfileFor(site).Instantiate(m.RNG().Fork("visit"))
			browser.LoadPage(m, visit, 1.0, dur)
			m.Eng.Run(dur)
			tl := ebpf.InterruptTimeline(tracer.Buf.Drain(), bucket, dur)
			for ty, series := range tl {
				var dst []float64
				switch {
				case ty.CategoryOf() == interrupt.CatSoftirq:
					dst = soft
				case ty == interrupt.IPIResched:
					dst = resched
				default:
					continue
				}
				for i := 0; i < n && i < len(series); i++ {
					dst[i] += series[i]
				}
			}
		}
		for i := range soft {
			soft[i] = soft[i] / float64(runs) * 100
			resched[i] = resched[i] / float64(runs) * 100
		}
		out = append(out, Figure5Series{Site: site, SoftirqPct: soft, ReschedPct: resched})
	}
	return out, nil
}

// Figure6Result maps each interrupt type shown in the figure to the
// histogram of total gap lengths it was associated with, plus the overall
// attribution statistics. Types lists the histogram keys in the figure's
// legend order; iterate it rather than the map for a stable row order.
type Figure6Result struct {
	Types       []interrupt.Type
	Histograms  map[interrupt.Type]*stats.Histogram
	Attribution ebpf.Attribution
}

// Figure6 regenerates "Distributions of interrupt handling times": gaps
// observed by a native attacker over `loads` page loads spanning 10 sites,
// attributed per type. The paper runs 50 loads over 10 websites.
func Figure6(loads int, seed uint64) (Figure6Result, error) {
	if loads < 1 {
		return Figure6Result{}, fmt.Errorf("core: Figure6 needs at least 1 load")
	}
	types := []interrupt.Type{
		interrupt.SoftNetRX, interrupt.SoftTimer, interrupt.SoftTasklet,
		interrupt.LocalTimer, interrupt.IRQWork, interrupt.NetRX,
	}
	hists := make(map[interrupt.Type]*stats.Histogram, len(types))
	for _, ty := range types {
		// The paper's Figure 6 plots 0–10 µs; our NET_RX softirq model
		// carries heavier deferred work, so the axis extends to 25 µs.
		hists[ty] = stats.NewHistogram(0, 25, 50)
	}
	var agg ebpf.Attribution
	agg.GapLengthsByType = map[interrupt.Type][]sim.Duration{}
	sites := website.ClosedWorldDomains()[:10]
	const dur = 10 * sim.Second
	m := &kernel.Machine{} // arena, re-booted per load
	for l := 0; l < loads; l++ {
		site := sites[l%len(sites)]
		m.Reset(kernel.Config{
			OS:   kernel.Linux,
			Seed: traceSeed(seed, "fig6", site, l),
		})
		m.Attacker().RecordSteals(true)
		tracer := ebpf.Attach(m.Ctl, kernel.AttackerCore, 1<<20)
		visit := website.ProfileFor(site).Instantiate(m.RNG().Fork("visit"))
		browser.LoadPage(m, visit, 1.0, dur)
		m.Eng.Run(dur)
		gaps := ebpf.ObserveGaps(m.Attacker(), 100*sim.Nanosecond)
		a := ebpf.Attribute(gaps, tracer.Buf.Drain())
		agg.TotalGaps += a.TotalGaps
		agg.ExplainedGaps += a.ExplainedGaps
		agg.Unexplained = append(agg.Unexplained, a.Unexplained...)
		for ty, lens := range a.GapLengthsByType {
			agg.GapLengthsByType[ty] = append(agg.GapLengthsByType[ty], lens...)
			if h, ok := hists[ty]; ok {
				for _, d := range lens {
					h.Add(float64(d) / float64(sim.Microsecond))
				}
			}
		}
	}
	return Figure6Result{Types: types, Histograms: hists, Attribution: agg}, nil
}

// Figure7Series is one timer's transfer function sampled over a window.
type Figure7Series struct {
	Timer   string
	RealMS  []float64
	ValueMS []float64
}

// Figure7 regenerates "Example outputs of different timers" by sampling
// each secure timer against real time: Tor's 100 ms quantizer over 200 ms
// (the paper plots it over its characteristic window), Chrome's jittered
// 0.1 ms timer over 1 ms, and the randomized timer over 200 ms.
func Figure7(seed uint64) []Figure7Series {
	sample := func(tm clockface.Timer, window, step sim.Duration) Figure7Series {
		var s Figure7Series
		s.Timer = tm.Name()
		for t := sim.Time(0); t <= window; t += step {
			s.RealMS = append(s.RealMS, t.Milliseconds())
			s.ValueMS = append(s.ValueMS, tm.Read(t).Milliseconds())
		}
		return s
	}
	return []Figure7Series{
		sample(clockface.Quantized{Delta: 100 * sim.Millisecond}, 200*sim.Millisecond, sim.Millisecond),
		sample(clockface.NewJittered(100*sim.Microsecond, seed), sim.Millisecond, 10*sim.Microsecond),
		sample(defense.RandomizedTimer(sim.NewStream(seed, "fig7")), 200*sim.Millisecond, sim.Millisecond),
	}
}

// Figure8Series is the distribution of real durations of one "5 ms"
// attacker loop under a timer.
type Figure8Series struct {
	Timer     string
	Durations []float64 // milliseconds
	Hist      *stats.Histogram
}

// Figure8 regenerates "Distributions of durations of one 5-millisecond
// attacker loop with different timers": the attacker loop runs on an idle
// machine and the real time spanned by each reported 5 ms period is
// recorded. Quantized(100ms) clusters at 100 ms, jittered at 4.8–5.2 ms,
// randomized spreads over 0–100+ ms.
func Figure8(samples int, seed uint64) ([]Figure8Series, error) {
	if samples < 10 {
		return nil, fmt.Errorf("core: Figure8 needs at least 10 samples")
	}
	type cfg struct {
		name  string
		timer clockface.Timer
		hist  *stats.Histogram
	}
	cfgs := []cfg{
		{"quantized", clockface.Quantized{Delta: 100 * sim.Millisecond},
			stats.NewHistogram(99, 101, 40)},
		{"jittered", clockface.NewJittered(100*sim.Microsecond, seed),
			stats.NewHistogram(4.5, 5.5, 40)},
		{"randomized", defense.RandomizedTimer(sim.NewStream(seed, "fig8")),
			stats.NewHistogram(0, 120, 48)},
	}
	var out []Figure8Series
	for _, c := range cfgs {
		m := kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: seed})
		durs, err := attack.PeriodDurations(m, attack.Config{
			Timer: c.timer, Period: 5 * sim.Millisecond,
			Samples: samples, Variant: attack.Python,
		})
		if err != nil {
			return nil, err
		}
		ms := make([]float64, len(durs))
		for i, d := range durs {
			ms[i] = d.Milliseconds()
			c.hist.Add(ms[i])
		}
		out = append(out, Figure8Series{Timer: c.name, Durations: ms, Hist: c.hist})
	}
	return out, nil
}
