// Package attack implements the paper's two attacker programs (Figure 2):
// the sweep-counting attack of Shusterman et al., which counts LLC-sized
// buffer sweeps per period, and the paper's loop-counting attack, which
// counts bare loop iterations per period and makes no memory accesses.
//
// Attackers run on the simulated machine's attacker core. Counter values
// are derived from the core's user-work integral between the period
// boundaries the attacker *observes through its secure timer*, so timer
// defenses (clockface) and interrupt activity (kernel/interrupt) shape the
// trace exactly as they do in the real attack.
package attack

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/clockface"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Variant models the attacker's implementation language, which fixes the
// loop-body cost (increment + timer call).
type Variant struct {
	Name string
	// IterCycles is the cost of one inner-loop iteration in CPU cycles.
	IterCycles float64
}

// Attacker implementation variants. JS is calibrated to the paper's
// ~27,000 iterations per 5 ms at Chrome-era clock speeds (§3.3).
var (
	JS     = Variant{Name: "js", IterCycles: 460}
	Python = Variant{Name: "python", IterCycles: 5000}
	Rust   = Variant{Name: "rust", IterCycles: 60}
	// CSS approximates the JavaScript-free variant of [64]: with JS
	// disabled, the "loop" is a CSS-driven layout/animation step whose
	// per-iteration cost is tens of microseconds, so counters are far
	// coarser than the JS attacker's.
	CSS = Variant{Name: "css", IterCycles: 100000}
)

// Config parameterizes a trace collection.
type Config struct {
	// Timer is the secure timer the attacker reads (browser or native).
	Timer clockface.Timer
	// Period is P from Figure 2 (default 5 ms).
	Period sim.Duration
	// Samples is the number of trace samples to record. With a coarse
	// timer each "period" stretches to the timer's resolution, so wall
	// time = Samples × max(Period, resolution): 3000 samples ≈ 15 s on
	// Chrome and ≈ 50 s at Tor's 100 ms timer with 500 samples.
	Samples int
	// Variant defaults to JS.
	Variant Variant
	// Cost is the sweep cost model (sweep-counting only); zero value
	// uses cache.DefaultCostModel.
	Cost cache.CostModel
	// SlotIndexed stores counters at Trace[t_begin/SlotUnit] as in
	// Figure 2's pseudocode, where t_begin is the *reported*
	// (secure-timer) time. Under a randomized timer, reported time
	// deviates from real time by up to the defense threshold, so samples
	// land in wrong slots, collide, or leave holes — a key part of why
	// the §6.1 defense destroys the attack. Sequential storage (the
	// default) is equivalent for timers whose reported time tracks real
	// time.
	SlotIndexed bool
	// SlotUnit is the trace-array granularity for slot indexing. The
	// paper's pseudocode declares `int Trace[T*1000]` — a
	// millisecond-granular array regardless of P — so with P = 500 ms an
	// attacker records 30 counters scattered over 15 000 slots. Zero
	// defaults to Period (one slot per sample).
	SlotUnit sim.Duration
	// Dst, when its capacity covers Samples, provides the storage for the
	// trace values (a row of a trace.Store arena), so collection allocates
	// nothing per trace. Values are written into Dst's backing array
	// starting at element 0; with insufficient capacity a fresh slice is
	// allocated as before and Dst is ignored. The caller detects which
	// happened by comparing backing arrays (trace.Builder.Finish does).
	Dst []float64
}

func (c *Config) normalize() error {
	if c.Timer == nil {
		return fmt.Errorf("attack: config needs a timer")
	}
	if c.Period <= 0 {
		c.Period = 5 * sim.Millisecond
	}
	if c.Samples <= 0 {
		return fmt.Errorf("attack: config needs Samples > 0")
	}
	if c.Variant.IterCycles <= 0 {
		c.Variant = JS
	}
	if c.Cost == (cache.CostModel{}) {
		c.Cost = cache.DefaultCostModel
	}
	return nil
}

// firstCrossing returns the earliest real time t >= from at which
// timer.Read(t) >= target. Invertible timers are solved directly; stateful
// ones (Randomized) are stepped via NextChange, which is cheap at their
// update granularity.
func firstCrossing(tm clockface.Timer, from, target sim.Time) sim.Time {
	switch t := tm.(type) {
	case clockface.Precise:
		if target < from {
			return from
		}
		return target
	case clockface.Quantized:
		// Read(x) = floor(x/Δ)Δ >= target  ⇔  x >= ceil(target/Δ)Δ.
		d := t.Delta
		x := (target + d - 1) / d * d
		if x < from {
			x = from
		}
		return x
	case *clockface.Jittered:
		// Read is constant within each tick, and tick k reads
		// kΔ + ε ≤ (k+1)Δ, so no tick before target/Δ − 1 reaches
		// target: scan from there (or from the current tick, if later).
		// ε ≤ Δ bounds the scan to a couple of steps.
		d := t.Delta
		k := max(from/d, target/d-1)
		for {
			tickStart := k * d
			probe := tickStart
			if probe < from {
				probe = from
			}
			if t.Read(probe) >= target {
				return probe
			}
			k++
		}
	default:
		x := from
		for tm.Read(x) < target {
			x = tm.NextChange(x)
		}
		return x
	}
}

// run drives the attacker's outer loop: it walks period boundaries as seen
// through the secure timer, calls sample to compute each counter value,
// and stores values sequentially or slot-indexed per cfg.
func run(m *kernel.Machine, cfg Config, name string, sample func(cursor, tEnd sim.Time) float64) trace.Trace {
	cursor := m.Eng.Now()
	repStart := cfg.Timer.Read(cursor)
	unit := cfg.SlotUnit
	if unit <= 0 {
		unit = cfg.Period
	}
	// Safety stop for slot mode: a pathological timer could leave slots
	// unreachable; bound wall time at several nominal trace lengths.
	hardStop := cursor + sim.Time(cfg.Samples)*unit*4 + 2*sim.Second
	var vals []float64
	if cfg.SlotIndexed {
		if cap(cfg.Dst) >= cfg.Samples {
			vals = cfg.Dst[:cfg.Samples]
			for i := range vals {
				vals[i] = 0
			}
		} else {
			vals = make([]float64, cfg.Samples)
		}
	} else if cap(cfg.Dst) >= cfg.Samples {
		vals = cfg.Dst[:0]
	} else {
		vals = make([]float64, 0, cfg.Samples)
	}
	collected := 0
	for {
		repBegin := cfg.Timer.Read(cursor)
		slot := int((repBegin - repStart) / unit)
		if cfg.SlotIndexed {
			if slot >= cfg.Samples || cursor >= hardStop {
				break
			}
		} else if collected >= cfg.Samples {
			break
		}
		tEnd := firstCrossing(cfg.Timer, cursor, repBegin+cfg.Period)
		if tEnd <= cursor {
			tEnd = cursor + 1
		}
		m.Eng.Run(tEnd)
		v := sample(cursor, tEnd)
		if cfg.SlotIndexed {
			if slot >= 0 && slot < cfg.Samples {
				vals[slot] = v // Trace[t_begin] = counter: last write wins
			}
		} else {
			vals = append(vals, v)
		}
		collected++
		cursor = tEnd
	}
	return trace.Trace{Attack: name, Period: cfg.Period, Values: vals}
}

// CollectLoop records a loop-counting trace (Figure 2b) on machine m. The
// machine's engine is advanced as a side effect; page-load activity must
// already be scheduled.
func CollectLoop(m *kernel.Machine, cfg Config) (trace.Trace, error) {
	if err := cfg.normalize(); err != nil {
		return trace.Trace{}, err
	}
	core := m.Attacker()
	lastWork := core.WorkAt(m.Eng.Now())
	tr := run(m, cfg, "loop-counting", func(cursor, tEnd sim.Time) float64 {
		w := core.WorkAt(tEnd)
		n := cpu.IterationsBetween(lastWork, w, cfg.Variant.IterCycles)
		lastWork = w
		return float64(n)
	})
	return tr, nil
}

// CollectSweep records a sweep-counting trace (Figure 2a). Each iteration
// additionally sweeps an LLC-sized buffer; its cost is the loop overhead
// plus the self-consistent sweep cost under the victim's current eviction
// rate, so counter values are coarse (≈32 per 5 ms) and carry cache noise
// on top of the interrupt signal.
func CollectSweep(m *kernel.Machine, cfg Config) (trace.Trace, error) {
	if err := cfg.normalize(); err != nil {
		return trace.Trace{}, err
	}
	core := m.Attacker()
	geo := m.Cache.Geometry()
	lastWork := core.WorkAt(m.Eng.Now())
	lastVictim := m.Cache.TotalVictimAccesses()
	var pending float64 // cycles left in the sweep in flight across the boundary
	tr := run(m, cfg, "sweep-counting", func(cursor, tEnd sim.Time) float64 {
		w := core.WorkAt(tEnd)
		avail := w - lastWork
		lastWork = w

		// Victim eviction rate over this period drives per-sweep
		// misses; the attacker's continuous sweeping keeps residency
		// high, which the occupancy model tracks via the reset below.
		nowVictim := m.Cache.TotalVictimAccesses()
		rate := (nowVictim - lastVictim) / float64(tEnd-cursor)
		lastVictim = nowVictim
		m.Cache.SweepMisses() // attacker sweeps keep the model resident

		_, misses := cfg.Cost.SteadySweepRate(geo, rate, core.Freq())
		sweepCost := cfg.Cost.SweepCycles(geo, int(misses)) + cfg.Variant.IterCycles

		count := 0
		workLeft := avail
		if pending > 0 {
			if workLeft >= pending {
				workLeft -= pending
				pending = 0
				count++
			} else {
				pending -= workLeft
				workLeft = 0
			}
		}
		if pending == 0 && workLeft > 0 {
			n := int(workLeft / sweepCost)
			count += n
			rem := workLeft - float64(n)*sweepCost
			pending = sweepCost - rem // the sweep in flight at the boundary
		}
		return float64(count)
	})
	return tr, nil
}

// PeriodDurations records the real-time span of each attacker sample
// instead of a counter — the measurement behind Figure 8's loop-duration
// distributions. The machine's engine is advanced as a side effect.
func PeriodDurations(m *kernel.Machine, cfg Config) ([]sim.Duration, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cfg.SlotIndexed = false
	var durs []sim.Duration
	run(m, cfg, "period-durations", func(cursor, tEnd sim.Time) float64 {
		durs = append(durs, tEnd-cursor)
		return 0
	})
	return durs, nil
}
