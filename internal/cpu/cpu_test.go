package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestWorkIntegralNoSteals(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 2.0) // 2 cycles/ns
	eng.Run(1000)
	if w := c.WorkAt(eng.Now()); w != 2000 {
		t.Fatalf("work = %v, want 2000", w)
	}
}

func TestStealRemovesWork(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 1.0)
	eng.Schedule(100, func() { c.Steal(50, CauseTimer) })
	eng.Run(200)
	// 200 ns elapsed, 50 stolen → 150 cycles at 1 GHz.
	if w := c.WorkAt(eng.Now()); w != 150 {
		t.Fatalf("work = %v, want 150", w)
	}
	if s := c.StolenAt(eng.Now()); s != 50 {
		t.Fatalf("stolen = %v, want 50", s)
	}
	if s := c.StolenByCause(CauseTimer); s != 50 {
		t.Fatalf("stolen by timer = %v, want 50", s)
	}
}

func TestStealsQueueBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 1.0)
	c.RecordSteals(true)
	eng.Schedule(100, func() {
		s1 := c.Steal(30, CauseDeviceIRQ)
		s2 := c.Steal(20, CauseSoftirq) // arrives during first handler
		if s1.End != 130 || s2.Start != 130 || s2.End != 150 {
			t.Errorf("steal windows: %+v %+v", s1, s2)
		}
	})
	eng.Run(200)
	if w := c.WorkAt(eng.Now()); w != 150 {
		t.Fatalf("work = %v, want 150", w)
	}
	if len(c.Steals()) != 2 {
		t.Fatalf("steal log = %d entries, want 2", len(c.Steals()))
	}
	if d := c.Steals()[0].Duration(); d != 30 {
		t.Fatalf("steal duration = %v", d)
	}
}

// TestUntrackedCoreReadsPanic: an untracked core's time was never booked,
// so every reader of it panics; logging steals or a Reset tracks the core
// again, and a core that does not log still returns an empty log.
func TestUntrackedCoreReadsPanic(t *testing.T) {
	c := NewCore(sim.NewEngine(), 3, 1.0)
	c.SetTracked(false)
	for name, read := range map[string]func(){
		"WorkAt":        func() { c.WorkAt(0) },
		"StolenAt":      func() { c.StolenAt(0) },
		"StolenByCause": func() { c.StolenByCause(CauseTimer) },
		"BusyUntil":     func() { c.BusyUntil() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an untracked core did not panic", name)
				}
			}()
			read()
		}()
	}
	if len(c.Steals()) != 0 {
		t.Fatal("a core that does not log steals has a log")
	}
	c.RecordSteals(true)
	if !c.Tracked() {
		t.Fatal("logging steals must track the core")
	}
	c.SetTracked(false)
	c.Reset(1.0)
	if !c.Tracked() || c.WorkAt(0) != 0 {
		t.Fatal("Reset must restore a tracked core")
	}
}

func TestFreqChangeMidway(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 1.0)
	eng.Schedule(100, func() { c.SetFreq(3.0) })
	eng.Run(200)
	// 100 ns @1 + 100 ns @3 = 400 cycles.
	if w := c.WorkAt(eng.Now()); w != 400 {
		t.Fatalf("work = %v, want 400", w)
	}
}

func TestFreqChangeDuringBookedSteal(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 1.0)
	eng.Schedule(100, func() { c.Steal(100, CauseTimer) }) // books [100,200]
	eng.Schedule(150, func() { c.SetFreq(2.0) })           // during steal
	eng.Run(300)
	// 100 @1 + stolen [100,200] + 100 @2 = 300 cycles.
	if w := c.WorkAt(eng.Now()); w != 300 {
		t.Fatalf("work = %v, want 300", w)
	}
}

func TestZeroDurationStealClamped(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 1.0)
	st := c.Steal(0, CauseOther)
	if st.Duration() != 1 {
		t.Fatalf("zero steal duration = %v, want clamp to 1", st.Duration())
	}
}

func TestIterationsBetween(t *testing.T) {
	if n := IterationsBetween(0, 1000, 100); n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
	if n := IterationsBetween(1000, 900, 100); n != 0 {
		t.Fatalf("negative window n = %d, want 0", n)
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"NewCore":           func() { NewCore(sim.NewEngine(), 0, 0) },
		"SetFreq":           func() { NewCore(sim.NewEngine(), 0, 1).SetFreq(-1) },
		"IterationsBetween": func() { IterationsBetween(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: work + stolen·freq == elapsed·freq when frequency is constant,
// for any steal pattern.
func TestWorkConservationProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		eng := sim.NewEngine()
		c := NewCore(eng, 0, 1.5)
		at := sim.Time(10)
		for _, d := range durs {
			d := sim.Duration(d%50) + 1
			eng.Schedule(at, func() { c.Steal(d, CauseDeviceIRQ) })
			at += sim.Time(d) + 37 // gaps between steals
		}
		end := at + 100
		eng.Run(end)
		w := c.WorkAt(end)
		s := c.StolenAt(end)
		want := 1.5 * float64(end-s)
		return almostEq(w, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestGovernorDropsUnderLoad(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 2.5)
	g := NewGovernor(eng, []*Core{c}, GovernorConfig{MinGHz: 2.3, MaxGHz: 2.5})
	// Keep demand pegged at 1 for 200 ms: all-core turbo kicks in.
	eng.Tick(0, 5*sim.Millisecond, func(sim.Time) { g.ReportLoad(1.0) })
	eng.Run(200 * sim.Millisecond)
	if c.Freq() > 2.37 {
		t.Fatalf("freq = %v, want near all-core limit under sustained load", c.Freq())
	}
	if g.Load() < 0.8 {
		t.Fatalf("load = %v, want near 1", g.Load())
	}
}

func TestGovernorIdleRecoversToMax(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 2.3)
	g := NewGovernor(eng, []*Core{c}, GovernorConfig{MinGHz: 2.3, MaxGHz: 2.5})
	g.ReportLoad(1.0)
	eng.Run(500 * sim.Millisecond) // no further load
	if c.Freq() < 2.45 {
		t.Fatalf("freq = %v, want near single-core turbo when idle", c.Freq())
	}
}

func TestGovernorFix(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 2.5)
	g := NewGovernor(eng, []*Core{c}, GovernorConfig{MinGHz: 2.3, MaxGHz: 2.5})
	g.Fix(2.35)
	if !g.Fixed() {
		t.Fatal("Fixed() = false")
	}
	eng.Tick(0, 5*sim.Millisecond, func(sim.Time) { g.ReportLoad(1.0) })
	eng.Run(200 * sim.Millisecond)
	if c.Freq() != 2.35 {
		t.Fatalf("freq = %v, want fixed 2.35", c.Freq())
	}
}

func TestGovernorStop(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCore(eng, 0, 2.5)
	g := NewGovernor(eng, []*Core{c}, GovernorConfig{MinGHz: 2.3, MaxGHz: 2.5})
	g.Stop()
	eng.Tick(0, 5*sim.Millisecond, func(sim.Time) { g.ReportLoad(1.0) })
	eng.Run(100 * sim.Millisecond)
	if c.Freq() != 2.5 {
		t.Fatalf("freq = %v, want unchanged after Stop", c.Freq())
	}
}

func TestCauseString(t *testing.T) {
	if CauseTimer.String() != "timer" {
		t.Error("timer name")
	}
	if Cause(200).String() == "" {
		t.Error("unknown cause should render")
	}
}
