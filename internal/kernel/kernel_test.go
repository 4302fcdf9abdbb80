package kernel

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/interrupt"
	"repro/internal/sim"
)

func TestOSString(t *testing.T) {
	if Linux.String() != "linux" || Windows.String() != "windows" || MacOS.String() != "macos" {
		t.Fatal("OS names")
	}
	if OS(9).String() == "" {
		t.Fatal("unknown OS should render")
	}
}

func TestProfiles(t *testing.T) {
	for _, os := range []OS{Linux, Windows, MacOS} {
		p := profileFor(os)
		if p.irq.TickHZ <= 0 || p.baselineIRQRate <= 0 || p.baselineSoftRate <= 0 {
			t.Errorf("%v profile invalid: %+v", os, p)
		}
	}
	if profileFor(Linux).irq.TickHZ != 250 {
		t.Error("Linux should tick at 250 Hz")
	}
}

func TestMachineBootsAndTicks(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 1})
	m.Eng.Run(sim.Second)
	ticks := m.Ctl.Counts(interrupt.LocalTimer, AttackerCore)
	if ticks < 240 || ticks > 260 {
		t.Fatalf("attacker-core ticks = %d, want ~250", ticks)
	}
	// Baseline device IRQs should have fired somewhere.
	total := m.Ctl.TotalCount(interrupt.SATA) + m.Ctl.TotalCount(interrupt.USB)
	if total < 10 {
		t.Fatalf("baseline IRQs = %d, want >= 10", total)
	}
	if m.Attacker().ID != AttackerCore {
		t.Fatal("Attacker() core id")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() sim.Duration {
		m := NewMachine(Config{OS: Linux, Seed: 99})
		m.Eng.Run(sim.Second)
		return m.Attacker().StolenAt(m.Eng.Now())
	}
	if run() != run() {
		t.Fatal("same seed must produce identical stolen time")
	}
	m2 := NewMachine(Config{OS: Linux, Seed: 100})
	m2.Eng.Run(sim.Second)
	m1 := NewMachine(Config{OS: Linux, Seed: 99})
	m1.Eng.Run(sim.Second)
	if m1.Attacker().StolenAt(m1.Eng.Now()) == m2.Attacker().StolenAt(m2.Eng.Now()) {
		t.Fatal("different seeds should diverge")
	}
}

// TestResetEqualsFresh drives one machine through a sequence of
// heterogeneous configurations via Reset and checks that each run's per-core
// stolen time and interrupt counters match a fresh NewMachine with the same
// config — the contract the collection arenas depend on. It tracks every
// core, so every core's time is compared.
func TestResetEqualsFresh(t *testing.T) {
	policy := interrupt.SoftirqRaisingCore
	configs := []Config{
		{OS: Linux, Seed: 5},
		{OS: Windows, Seed: 6, BackgroundNoise: true},
		{OS: MacOS, Seed: 7, SoftirqPolicy: &policy},
		{OS: Linux, Seed: 8, Isolation: Isolation{
			FixedFreqGHz: 2.4, PinCores: true, RemoveIRQs: true, SeparateVMs: true,
		}},
		{OS: Linux, Seed: 5}, // back to the first config: full state reset
	}
	fingerprint := func(m *Machine) []uint64 {
		for _, c := range m.Cores {
			c.SetTracked(true)
		}
		var fp []uint64
		m.Eng.Run(sim.Second / 2)
		now := m.Eng.Now()
		for _, c := range m.Cores {
			fp = append(fp, uint64(c.StolenAt(now)))
		}
		for ty := interrupt.Type(0); ty < interrupt.NumTypes; ty++ {
			fp = append(fp, m.Ctl.TotalCount(ty))
		}
		fp = append(fp, m.Eng.Processed)
		return fp
	}
	reused := &Machine{} // Reset boots zero-value machines too
	for i, cfg := range configs {
		reused.Reset(cfg)
		got := fingerprint(reused)
		want := fingerprint(NewMachine(cfg))
		if len(got) != len(want) {
			t.Fatalf("config %d: fingerprint lengths differ", i)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("config %d: reused machine diverged from fresh at field %d: got %d, want %d",
					i, j, got[j], want[j])
			}
		}
	}
}

func TestIsolationFixedFreq(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 1, Isolation: Isolation{FixedFreqGHz: 2.5}})
	for i := 0; i < 100; i++ {
		m.Sched.VictimBurst(sim.Millisecond, 1.0)
	}
	m.Eng.Run(sim.Second)
	if f := m.Attacker().Freq(); f != 2.5 {
		t.Fatalf("freq = %v, want fixed 2.5", f)
	}
}

func TestIsolationRemoveIRQs(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 2, Isolation: Isolation{RemoveIRQs: true}})
	m.Eng.Run(2 * sim.Second)
	for _, ty := range []interrupt.Type{interrupt.SATA, interrupt.USB, interrupt.NetRX} {
		if n := m.Ctl.Counts(ty, AttackerCore); n != 0 {
			t.Fatalf("%v delivered %d times to attacker core despite irqbalance", ty, n)
		}
	}
	// Non-movable ticks still arrive.
	if m.Ctl.Counts(interrupt.LocalTimer, AttackerCore) == 0 {
		t.Fatal("timer ticks must be non-movable")
	}
}

func TestIsolationVMAmplifies(t *testing.T) {
	stolen := func(vm bool) sim.Duration {
		m := NewMachine(Config{OS: Linux, Seed: 3, Isolation: Isolation{SeparateVMs: vm}})
		m.Eng.Run(2 * sim.Second)
		return m.Attacker().StolenAt(m.Eng.Now())
	}
	plain, vm := stolen(false), stolen(true)
	if float64(vm) < 1.2*float64(plain) {
		t.Fatalf("VM stolen %v not amplified vs %v", vm, plain)
	}
}

func TestSchedulerPinnedNeverPreempts(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 4, Isolation: Isolation{PinCores: true}})
	if !m.Sched.Pinned() {
		t.Fatal("scheduler should be pinned")
	}
	for i := 0; i < 2000; i++ {
		m.Sched.VictimBurst(2*sim.Millisecond, 0.8)
	}
	if m.Sched.Preemptions() != 0 {
		t.Fatalf("pinned scheduler preempted attacker %d times", m.Sched.Preemptions())
	}
	if m.Attacker().StolenByCause(cpu.CausePreempt) != 0 {
		t.Fatal("attacker lost time to preemption while pinned")
	}
}

func TestSchedulerUnpinnedSometimesPreempts(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 5})
	for i := 0; i < 2000; i++ {
		m.Sched.VictimBurst(2*sim.Millisecond, 0.8)
	}
	if m.Sched.Preemptions() == 0 {
		t.Fatal("unpinned scheduler never preempted the attacker in 2000 bursts")
	}
	// Preemption must be rare (Table 3: pinning changes accuracy 0.2%).
	if m.Sched.Preemptions() > 200 {
		t.Fatalf("preemptions = %d, too frequent", m.Sched.Preemptions())
	}
}

func TestVictimBurstSendsResched(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 6, Isolation: Isolation{PinCores: true}})
	before := m.Ctl.TotalCount(interrupt.IPIResched)
	for i := 0; i < 50; i++ {
		m.Sched.VictimBurst(sim.Millisecond, 0.5)
	}
	if m.Ctl.TotalCount(interrupt.IPIResched) < before+50 {
		t.Fatal("bursts should send rescheduling IPIs")
	}
	m.Sched.VictimBurst(0, 1) // no-op
}

func TestVictimMemoryEvictsAndShootsDown(t *testing.T) {
	m := NewMachine(Config{OS: Linux, Seed: 7})
	full := m.Cache.Resident()
	m.Sched.VictimMemory(float64(m.Cache.Geometry().Lines()))
	if m.Cache.Resident() >= full {
		t.Fatal("victim memory should evict attacker lines")
	}
	before := m.Ctl.TotalCount(interrupt.IPITLB)
	for i := 0; i < 50; i++ {
		m.Sched.VictimMemory(200000)
	}
	if m.Ctl.TotalCount(interrupt.IPITLB) <= before {
		t.Fatal("large memory churn should trigger TLB shootdowns")
	}
	m.Sched.VictimMemory(0) // no-op
}

func TestNoiseAppsAddInterrupts(t *testing.T) {
	count := func(noise bool) uint64 {
		m := NewMachine(Config{OS: Linux, Seed: 8, BackgroundNoise: noise})
		m.Eng.Run(2 * sim.Second)
		return m.Ctl.TotalCount(interrupt.NetRX) + m.Ctl.TotalCount(interrupt.SoftTimer)
	}
	quiet, noisy := count(false), count(true)
	if noisy < quiet*2 {
		t.Fatalf("noise apps: %d vs quiet %d, want clear increase", noisy, quiet)
	}
}

func TestSoftirqPolicyOverride(t *testing.T) {
	p := interrupt.SoftirqRaisingCore
	m := NewMachine(Config{OS: Linux, Seed: 9, SoftirqPolicy: &p})
	m.Eng.Run(sim.Second)
	// All baseline deferred softirqs were raised for VictimCore, so the
	// attacker core must have none of them.
	if n := m.Ctl.Counts(interrupt.SoftRCU, AttackerCore); n != 0 {
		t.Fatalf("raising-core policy leaked %d RCU softirqs to attacker", n)
	}
}

func TestMachineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too few cores")
		}
	}()
	NewMachine(Config{OS: Linux, Cores: 2})
}
