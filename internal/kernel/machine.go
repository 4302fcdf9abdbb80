package kernel

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/interrupt"
	"repro/internal/sim"
)

// Core roles on the simulated 4-core machine (no hyper-threading, like the
// paper's Table 3 test box).
const (
	IRQPinCore   = 0 // irqbalance target when RemoveIRQs is set
	AttackerCore = 1
	VictimCore   = 2
)

// Config parameterizes a Machine.
type Config struct {
	OS        OS
	Cores     int // default 4
	Seed      uint64
	Isolation Isolation
	// CacheGeometry defaults to the 8 MiB/16-way Core-i5 LLC.
	CacheGeometry cache.Geometry
	// SoftirqPolicy overrides the OS default when set (ablation knob).
	SoftirqPolicy *interrupt.SoftirqPolicy
	// BackgroundNoise runs the Slack/Spotify-style noise apps (Table 1's
	// robustness experiment).
	BackgroundNoise bool
}

// Machine is one simulated computer.
type Machine struct {
	Eng   *sim.Engine
	Cores []*cpu.Core
	Ctl   *interrupt.Controller
	Gov   *cpu.Governor
	Cache *cache.OccupancyModel
	Sched *Scheduler

	cfg Config
	rng *sim.Stream
}

// NewMachine builds and boots a machine: cores running, timer ticks firing,
// baseline background activity scheduled, isolation mechanisms applied.
//
// Only the attacker core is tracked: the other cores' interrupts are
// routed, drawn and counted as on a real machine, but their kernel time is
// not booked, because the attacker sees only its own core. To read
// another core's time, track it before running the engine: with
// Core.SetTracked or Core.RecordSteals, or by watching it through
// Controller.Observe (ebpf.Attach).
func NewMachine(cfg Config) *Machine {
	m := &Machine{}
	m.boot(cfg)
	return m
}

// Reset re-boots the machine under a new configuration, recycling the
// engine, cores, interrupt controller, and cache-model allocations from the
// previous run. A reset machine is behaviorally indistinguishable from
// NewMachine(cfg): every stream fork and every event insertion happens in
// the same order, so simulations on reused machines are bit-identical to
// simulations on fresh ones. Collection loops rely on this to amortize the
// machine's object graph across thousands of visits.
func (m *Machine) Reset(cfg Config) { m.boot(cfg) }

// boot initializes a zero or previously-used machine. The order of stream
// forks ("governor-dither", "irq", "sched", "baseline-irq", "baseline-soft",
// "noise-apps") and of initial event scheduling (governor tick, per-core
// timer ticks, baseline chains, noise apps) is part of the determinism
// contract and must not change.
func (m *Machine) boot(cfg Config) {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Cores < 3 {
		panic("kernel: need at least 3 cores for the attacker/victim/IRQ layout")
	}
	if cfg.CacheGeometry == (cache.Geometry{}) {
		cfg.CacheGeometry = cache.DefaultGeometry
	}
	prof := profileFor(cfg.OS)
	if cfg.SoftirqPolicy != nil {
		prof.irq.SoftirqPolicy = *cfg.SoftirqPolicy
	}

	if m.Eng == nil {
		m.Eng = sim.NewEngine()
	} else {
		m.Eng.Reset()
	}
	eng := m.Eng
	rng := sim.NewStream(cfg.Seed, "machine")
	startGHz := 2.5 // single-core turbo: the attacker spins from t=0
	if cfg.Isolation.FixedFreqGHz > 0 {
		startGHz = cfg.Isolation.FixedFreqGHz
	}
	if len(m.Cores) != cfg.Cores {
		m.Cores = make([]*cpu.Core, cfg.Cores)
		for i := range m.Cores {
			m.Cores[i] = cpu.NewCore(eng, i, startGHz)
		}
	} else {
		for _, c := range m.Cores {
			c.Reset(startGHz)
		}
	}
	for i, c := range m.Cores {
		c.SetTracked(i == AttackerCore)
	}
	cores := m.Cores
	m.Gov = cpu.NewGovernor(eng, cores, cpu.GovernorConfig{
		MinGHz: 2.48, MaxGHz: 2.5,
		DitherGHz: 0.01, RNG: rng.Fork("governor-dither"),
	})
	if cfg.Isolation.FixedFreqGHz > 0 {
		m.Gov.Fix(cfg.Isolation.FixedFreqGHz)
	}

	if m.Ctl == nil || m.Ctl.NumCores() != len(cores) {
		m.Ctl = interrupt.NewController(eng, cores, rng.Fork("irq"), prof.irq)
	} else {
		m.Ctl.Reset(rng.Fork("irq"), prof.irq)
	}
	if cfg.Isolation.RemoveIRQs {
		m.Ctl.SetRouting(interrupt.RoutePinned, IRQPinCore)
	}
	if cfg.Isolation.SeparateVMs {
		m.Ctl.SetVM(AttackerCore, true)
		m.Ctl.SetVM(VictimCore, true)
	}
	m.Ctl.StartTimerTicks()

	if m.Cache == nil {
		m.Cache = cache.NewOccupancyModel(cfg.CacheGeometry)
	} else {
		m.Cache.Reset(cfg.CacheGeometry)
	}
	m.cfg = cfg
	m.rng = rng
	m.Sched = newScheduler(m, cfg.Isolation.PinCores)
	m.startBaseline(prof)
	if cfg.BackgroundNoise {
		m.startNoiseApps()
	}
}

// Attacker returns the core the attacker task runs on.
func (m *Machine) Attacker() *cpu.Core { return m.Cores[AttackerCore] }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// RNG exposes the machine's root random stream for components that must
// share its determinism (page loads, attackers).
func (m *Machine) RNG() *sim.Stream { return m.rng }

// startBaseline schedules the idle machine's background interrupt activity:
// disk flushes, USB polling, RCU and timer softirqs. Rates come from the OS
// profile.
func (m *Machine) startBaseline(prof osProfile) {
	irqRNG := m.rng.Fork("baseline-irq")
	softRNG := m.rng.Fork("baseline-soft")
	var nextIRQ func()
	nextIRQ = func() {
		mean := sim.Duration(float64(sim.Second) / prof.baselineIRQRate)
		m.Eng.After(irqRNG.DurExp(mean), func() {
			if irqRNG.Bernoulli(0.6) {
				m.Ctl.RaiseIRQ(interrupt.SATA)
			} else {
				m.Ctl.RaiseIRQ(interrupt.USB)
			}
			nextIRQ()
		})
	}
	nextIRQ()

	var nextSoft func()
	nextSoft = func() {
		mean := sim.Duration(float64(sim.Second) / prof.baselineSoftRate)
		m.Eng.After(softRNG.DurExp(mean), func() {
			if softRNG.Bernoulli(0.5) {
				m.Ctl.DeferSoftirq(interrupt.SoftRCU, VictimCore)
			} else {
				m.Ctl.DeferSoftirq(interrupt.SoftTimer, VictimCore)
			}
			nextSoft()
		})
	}
	nextSoft()
}

// startNoiseApps models Slack plus Spotify playing music (§4.2): steady
// network traffic, audio-timer softirqs, and periodic CPU wakeups.
func (m *Machine) startNoiseApps() {
	rng := m.rng.Fork("noise-apps")
	var nextNet func()
	nextNet = func() {
		m.Eng.After(rng.DurExp(8*sim.Millisecond), func() {
			m.Ctl.RaiseIRQ(interrupt.NetRX)
			nextNet()
		})
	}
	nextNet()
	// Audio pipeline: 10 ms period timer work plus occasional bursts.
	m.Eng.Tick(0, 10*sim.Millisecond, func(sim.Time) {
		m.Ctl.DeferSoftirq(interrupt.SoftTimer, VictimCore)
	})
	var nextBurst func()
	nextBurst = func() {
		m.Eng.After(rng.DurExp(120*sim.Millisecond), func() {
			m.Sched.VictimBurst(rng.DurUniform(200*sim.Microsecond, 1200*sim.Microsecond), 0.3)
			nextBurst()
		})
	}
	nextBurst()
}
