package attack

import (
	"testing"
	"testing/quick"

	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/website"
)

func quietMachine(seed uint64) *kernel.Machine {
	return kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: seed})
}

func loadedMachine(seed uint64, domain string) *kernel.Machine {
	m := quietMachine(seed)
	visit := website.ProfileFor(domain).Instantiate(m.RNG().Fork("visit"))
	browser.LoadPage(m, visit, 1.0, 15*sim.Second)
	return m
}

func TestFirstCrossingPrecise(t *testing.T) {
	got := firstCrossing(clockface.Precise{}, 100, 500)
	if got != 500 {
		t.Fatalf("precise crossing = %v", got)
	}
	if firstCrossing(clockface.Precise{}, 600, 500) != 600 {
		t.Fatal("crossing before from should clamp")
	}
}

func TestFirstCrossingQuantized(t *testing.T) {
	q := clockface.Quantized{Delta: 100}
	// Read(t) >= 250 first at t=300.
	if got := firstCrossing(q, 0, 250); got != 300 {
		t.Fatalf("quantized crossing = %v, want 300", got)
	}
	// Already crossed: clamp to from.
	if got := firstCrossing(q, 450, 250); got != 450 {
		t.Fatalf("clamped crossing = %v", got)
	}
	if q.Read(firstCrossing(q, 0, 300)) < 300 {
		t.Fatal("exact-multiple target")
	}
}

// Property: firstCrossing returns a time whose Read meets the target, and
// for quantized timers no earlier tick boundary would.
func TestFirstCrossingProperty(t *testing.T) {
	f := func(fromRaw, periodRaw uint16) bool {
		from := sim.Time(fromRaw)
		period := sim.Duration(periodRaw%5000) + 1
		timers := []clockface.Timer{
			clockface.Precise{},
			clockface.Quantized{Delta: 250},
			clockface.NewJittered(250, 99),
		}
		for _, tm := range timers {
			target := tm.Read(from) + period
			x := firstCrossing(tm, from, target)
			if x < from {
				return false
			}
			if tm.Read(x) < target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstCrossingJitteredMatchesFullScan checks the jittered timer's
// shortcut, which starts the tick scan at target/Δ − 1, against a scan of
// every tick from `from`: both must return the earliest time whose reading
// meets the target. Half the targets are whole ticks past the reading at
// `from`, as the attacker's are (reading + P), which is where the tick
// just before target/Δ can already cross.
func TestFirstCrossingJitteredMatchesFullScan(t *testing.T) {
	fullScan := func(j *clockface.Jittered, from, target sim.Time) sim.Time {
		for k := from / j.Delta; ; k++ {
			if probe := max(k*j.Delta, from); j.Read(probe) >= target {
				return probe
			}
		}
	}
	rng := sim.NewStream(3, "first-crossing")
	for i := 0; i < 2000; i++ {
		delta := sim.Duration(rng.IntN(200) + 2)
		seed := rng.Uint64()
		timers := []*clockface.Jittered{
			clockface.NewJittered(delta, seed),
			clockface.NewJitteredAmp(delta, sim.Duration(rng.IntN(int(delta-1))+1), seed),
		}
		for _, j := range timers {
			from := sim.Time(rng.Int64N(1 << 20))
			target := j.Read(from) + sim.Duration(rng.IntN(60))*delta
			if i%2 == 1 { // anywhere from 5 ticks before from to 60 after
				target = from + sim.Time(rng.Int64N(int64(65*delta))) - 5*delta
			}
			got, want := firstCrossing(j, from, target), fullScan(j, from, target)
			if got != want {
				t.Fatalf("Δ %d, amp %d, seed %d: firstCrossing(%d, %d) = %d, full scan %d",
					j.Delta, j.Amp, seed, from, target, got, want)
			}
		}
	}
}

func TestFirstCrossingRandomizedViaNextChange(t *testing.T) {
	r := clockface.NewRandomized(sim.NewStream(5, "fc"))
	base := r.Read(0)
	x := firstCrossing(r, 0, base+5*sim.Millisecond)
	if x <= 0 {
		t.Fatal("crossing did not advance")
	}
	if r.Read(x) < base+5*sim.Millisecond {
		t.Fatal("crossing target not met")
	}
}

func TestCollectLoopCalibration(t *testing.T) {
	// On an idle machine with a precise timer, counter values should be
	// near P·freq/IterCycles with small dips from baseline interrupts.
	m := quietMachine(1)
	tr, err := CollectLoop(m, Config{
		Timer:   clockface.Precise{},
		Period:  5 * sim.Millisecond,
		Samples: 200,
		Variant: JS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 200 {
		t.Fatalf("samples = %d", len(tr.Values))
	}
	if tr.Attack != "loop-counting" {
		t.Fatal("attack name")
	}
	mean := stats.Mean(tr.Values)
	// Idle machine sits near the governor floor (1.6 GHz):
	// 5 ms × 1.6 GHz / 460 ≈ 17 400. Allow for startup at 2.2 GHz.
	if mean < 12000 || mean > 30000 {
		t.Fatalf("mean iterations = %v, outside plausible range", mean)
	}
}

func TestCollectLoopSeesVictimActivity(t *testing.T) {
	// Loading a heavy page must depress counter values versus idle.
	idle := quietMachine(2)
	idleTr, err := CollectLoop(idle, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 400, Variant: JS})
	if err != nil {
		t.Fatal(err)
	}
	busy := loadedMachine(2, "amazon.com")
	busyTr, err := CollectLoop(busy, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 400, Variant: JS})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the busiest stretch (first 2 s = 400 samples cover it).
	idleMin := stats.Min(idleTr.Values)
	busyMin := stats.Min(busyTr.Values)
	if busyMin >= idleMin {
		t.Fatalf("page load did not depress counters: busy min %v vs idle min %v", busyMin, idleMin)
	}
	if stats.Mean(busyTr.Values) >= stats.Mean(idleTr.Values) {
		t.Fatalf("busy mean %v should be below idle mean %v",
			stats.Mean(busyTr.Values), stats.Mean(idleTr.Values))
	}
}

func TestCollectSweepCalibration(t *testing.T) {
	m := quietMachine(3)
	tr, err := CollectSweep(m, Config{
		Timer:   clockface.Precise{},
		Period:  5 * sim.Millisecond,
		Samples: 200,
		Variant: JS,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(tr.Values)
	// Paper: ~32 sweeps per 5 ms at full clock; idle governor floor
	// gives ~20. Band covers both.
	if mean < 10 || mean > 45 {
		t.Fatalf("mean sweeps = %v, want ~dozens", mean)
	}
	if tr.Attack != "sweep-counting" {
		t.Fatal("attack name")
	}
}

func TestSweepCountsAreCoarse(t *testing.T) {
	// The sweep counter must take far fewer distinct values than the
	// loop counter — the quantization the paper identifies.
	m1 := loadedMachine(4, "nytimes.com")
	sweep, err := CollectSweep(m1, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 500, Variant: JS})
	if err != nil {
		t.Fatal(err)
	}
	m2 := loadedMachine(4, "nytimes.com")
	loop, err := CollectLoop(m2, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 500, Variant: JS})
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(xs []float64) int {
		s := map[float64]bool{}
		for _, x := range xs {
			s[x] = true
		}
		return len(s)
	}
	if distinct(sweep.Values)*4 > distinct(loop.Values) {
		t.Fatalf("sweep distinct=%d loop distinct=%d; sweep should be much coarser",
			distinct(sweep.Values), distinct(loop.Values))
	}
}

func TestSweepSlowsUnderEvictions(t *testing.T) {
	// weather.com's heavy memory churn should cost the sweep attacker
	// misses, lowering counts versus idle beyond what interrupts alone do.
	idle := quietMachine(5)
	idleTr, _ := CollectSweep(idle, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 300, Variant: JS})
	busy := loadedMachine(5, "weather.com")
	busyTr, _ := CollectSweep(busy, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 300, Variant: JS})
	if stats.Mean(busyTr.Values) >= stats.Mean(idleTr.Values) {
		t.Fatalf("victim evictions did not slow sweeping: %v vs %v",
			stats.Mean(busyTr.Values), stats.Mean(idleTr.Values))
	}
}

func TestTorTimerStretchesSamples(t *testing.T) {
	m := quietMachine(6)
	start := m.Eng.Now()
	_, err := CollectLoop(m, Config{Timer: clockface.Tor(), Period: 5 * sim.Millisecond, Samples: 20, Variant: JS})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := m.Eng.Now() - start
	// Each 5 ms period stretches to Tor's 100 ms resolution.
	if elapsed < 19*100*sim.Millisecond {
		t.Fatalf("20 samples took %v, want ≥ 1.9 s under Tor timer", elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	m := quietMachine(7)
	if _, err := CollectLoop(m, Config{Samples: 10}); err == nil {
		t.Fatal("nil timer accepted")
	}
	if _, err := CollectLoop(m, Config{Timer: clockface.Precise{}}); err == nil {
		t.Fatal("zero samples accepted")
	}
	// Defaults fill in.
	tr, err := CollectLoop(m, Config{Timer: clockface.Precise{}, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Period != 5*sim.Millisecond {
		t.Fatal("default period not applied")
	}
}

func TestCollectDeterminism(t *testing.T) {
	run := func() []float64 {
		m := loadedMachine(8, "github.com")
		tr, _ := CollectLoop(m, Config{Timer: clockface.Chrome(1), Period: 5 * sim.Millisecond, Samples: 300, Variant: JS})
		return tr.Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSlotIndexedStorage(t *testing.T) {
	// With a randomized timer, slot indexing must leave holes and place
	// samples by reported time.
	m := quietMachine(20)
	rt := clockface.NewRandomized(sim.NewStream(3, "slots"))
	tr, err := CollectLoop(m, Config{
		Timer: rt, Period: 5 * sim.Millisecond, Samples: 400,
		Variant: JS, SlotIndexed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 400 {
		t.Fatalf("slot trace length %d", len(tr.Values))
	}
	zeros := 0
	for _, v := range tr.Values {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 40 || zeros == len(tr.Values) {
		t.Fatalf("holes = %d of %d, want some but not all", zeros, len(tr.Values))
	}
}

func TestSlotIndexedEquivalentForPreciseTimer(t *testing.T) {
	// For a timer that tracks real time exactly, slot indexing and
	// sequential storage agree sample for sample.
	a := quietMachine(21)
	seq, err := CollectLoop(a, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 200, Variant: JS})
	if err != nil {
		t.Fatal(err)
	}
	b := quietMachine(21)
	slot, err := CollectLoop(b, Config{Timer: clockface.Precise{}, Period: 5 * sim.Millisecond, Samples: 200, Variant: JS, SlotIndexed: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Values {
		if seq.Values[i] != slot.Values[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, seq.Values[i], slot.Values[i])
		}
	}
}

func TestPeriodDurations(t *testing.T) {
	m := quietMachine(22)
	durs, err := PeriodDurations(m, Config{
		Timer: clockface.Tor(), Period: 5 * sim.Millisecond,
		Samples: 20, Variant: Python,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != 20 {
		t.Fatalf("durations = %d", len(durs))
	}
	for _, d := range durs {
		if d != 100*sim.Millisecond {
			t.Fatalf("Tor period = %v, want exactly 100ms", d)
		}
	}
	if _, err := PeriodDurations(m, Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestVariantOrdering(t *testing.T) {
	// Native beats JS beats Python beats CSS in loop granularity.
	if !(Rust.IterCycles < JS.IterCycles && JS.IterCycles < Python.IterCycles && Python.IterCycles < CSS.IterCycles) {
		t.Fatalf("variant cost ordering broken: %v %v %v %v",
			Rust.IterCycles, JS.IterCycles, Python.IterCycles, CSS.IterCycles)
	}
	// CSS counters are coarse: tens per 5 ms rather than tens of
	// thousands.
	m := quietMachine(30)
	tr, err := CollectLoop(m, Config{
		Timer: clockface.Chrome(1), Period: 5 * sim.Millisecond,
		Samples: 100, Variant: CSS,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(tr.Values)
	if mean < 50 || mean > 200 {
		t.Fatalf("CSS counter mean = %v, want ~125/period", mean)
	}
}
