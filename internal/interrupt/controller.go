package interrupt

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// RoutingKind selects how movable device IRQs are distributed.
type RoutingKind uint8

// Device-IRQ routing policies (the `irqbalance` knob from §5.1).
const (
	// RouteBalanced spreads device IRQs across all cores round-robin.
	RouteBalanced RoutingKind = iota
	// RoutePinned binds all movable IRQs to a single core.
	RoutePinned
)

// SoftirqPolicy selects where victim-deferred softirqs execute. The paper
// notes Linux offers no interface to control this (§5.2).
type SoftirqPolicy uint8

// Softirq dispatch policies.
const (
	// SoftirqAnyCore lets deferred softirqs land on any core round-robin,
	// reaching the attacker even when device IRQs are pinned away.
	SoftirqAnyCore SoftirqPolicy = iota
	// SoftirqRaisingCore processes deferred softirqs only on the core
	// that raised them (an ablation: if the kernel worked this way,
	// removing IRQs would block much more of the leak).
	SoftirqRaisingCore
)

// Config parameterizes a Controller.
type Config struct {
	// EntryOverhead is the kernel entry/exit cost added once per kernel
	// entry — the Meltdown/MDS mitigation cost that makes all observed
	// gaps ≥1.5 µs (§5.3). Default 1.5 µs.
	EntryOverhead sim.Duration
	// CostScale multiplies handler durations (models OS differences).
	CostScale float64
	// TickHZ is the local timer frequency (Linux CONFIG_HZ=250).
	TickHZ int
	// SoftirqPolicy controls deferred softirq placement.
	SoftirqPolicy SoftirqPolicy
	// VMFactor and VMExit amplify deliveries to cores running inside a
	// virtual machine: the handler runs in both host and guest and each
	// entry pays VM-exit/entry transitions (§5.1, "Run in separate VMs").
	VMFactor float64
	VMExit   sim.Duration
	// RPSFraction is the share of NET_RX softirq work deferred to other
	// cores (receive packet steering / ksoftirqd load sharing). This is
	// why moving the NIC IRQ away does not move all of its processing
	// away — a key reason Table 3's "remove IRQ interrupts" step only
	// costs ~6 points, and the source of Figure 5's softirq time on an
	// IRQ-isolated attacker core.
	RPSFraction float64
}

// DefaultConfig mirrors the paper's Ubuntu 20.04 test machines.
func DefaultConfig() Config {
	return Config{
		EntryOverhead: 1500 * sim.Nanosecond,
		CostScale:     1.0,
		TickHZ:        250,
		SoftirqPolicy: SoftirqAnyCore,
		VMFactor:      3.0,
		VMExit:        8 * sim.Microsecond,
		RPSFraction:   0.3,
	}
}

// Controller routes and delivers interrupts to cores. It owns the kernel's
// /proc/interrupts-style counters and the kernel-side event log consumed by
// the ebpf package.
type Controller struct {
	eng   *sim.Engine
	cores []*cpu.Core
	rng   *sim.Stream
	cfg   Config

	routing     RoutingKind
	pinnedCore  int
	affinity    [NumTypes]int // per-type device-IRQ home core; -1 = spread
	rrDevice    int           // round-robin cursor for balanced device IRQs
	rrSoftirq   int           // round-robin cursor for deferred softirqs
	vmCore      []bool
	pendingSoft [][]Type // per-core deferred softirq queues

	counts    [][]uint64 // [type][core]
	observers []watch
}

// AllCores is the core argument of Observe that watches every core.
const AllCores = -1

// watch is one Observe registration.
type watch struct {
	core int // AllCores or one core
	fn   Observer
}

// NewController creates a controller over the given cores.
func NewController(eng *sim.Engine, cores []*cpu.Core, rng *sim.Stream, cfg Config) *Controller {
	if len(cores) == 0 {
		panic("interrupt: need at least one core")
	}
	c := &Controller{
		eng: eng, cores: cores,
		vmCore:      make([]bool, len(cores)),
		pendingSoft: make([][]Type, len(cores)),
		counts:      make([][]uint64, NumTypes),
	}
	for i := range c.counts {
		c.counts[i] = make([]uint64, len(cores))
	}
	c.Reset(rng, cfg)
	return c
}

// Reset re-initializes the controller for a fresh boot of the same machine:
// same engine and cores, new random stream and configuration. All routing,
// affinity, VM, queue, counter, and observer state returns to the
// NewController defaults; the per-core allocations are kept.
func (c *Controller) Reset(rng *sim.Stream, cfg Config) {
	if cfg.CostScale <= 0 {
		cfg.CostScale = 1
	}
	if cfg.TickHZ <= 0 {
		cfg.TickHZ = 250
	}
	if cfg.EntryOverhead < 0 {
		cfg.EntryOverhead = 0
	}
	c.rng = rng
	c.cfg = cfg
	c.routing = RouteBalanced
	c.pinnedCore = 0
	c.rrDevice = 0
	c.rrSoftirq = 0
	for i := range c.vmCore {
		c.vmCore[i] = false
	}
	for i := range c.pendingSoft {
		c.pendingSoft[i] = c.pendingSoft[i][:0]
	}
	for i := range c.counts {
		clear(c.counts[i])
	}
	c.observers = nil
	for i := range c.affinity {
		c.affinity[i] = -1
	}
	// Single-line legacy devices are serviced by one core; multi-queue
	// devices (NIC RSS, AHCI MSI-X) spread. Linux routes legacy lines to
	// CPU0 by default.
	c.affinity[Keyboard] = 0
	c.affinity[USB] = 0
}

// SetIRQAffinity routes a device-IRQ type to one core (the
// /proc/irq/N/smp_affinity knob); core -1 restores balanced spreading.
// The §7.1 keystroke attacks assume the keyboard line shares the
// attacker's core, and are defeated by exactly this knob.
func (c *Controller) SetIRQAffinity(t Type, core int) {
	if SpecOf(t).Category != CatDevice {
		panic(fmt.Sprintf("interrupt: affinity on non-device type %v", t))
	}
	if core >= len(c.cores) {
		panic(fmt.Sprintf("interrupt: affinity core %d out of range", core))
	}
	c.affinity[t] = core
}

// Observe registers a kernel-side event observer (the eBPF attach point)
// for the handlers run on one core, or on every core with AllCores. The
// watched cores become tracked, so register before the workload runs.
func (c *Controller) Observe(core int, o Observer) {
	if core == AllCores {
		for _, cc := range c.cores {
			cc.SetTracked(true)
		}
	} else {
		c.cores[core].SetTracked(true)
	}
	c.observers = append(c.observers, watch{core: core, fn: o})
}

// SetRouting configures movable-IRQ distribution. For RoutePinned, core is
// the target; for RouteBalanced it is ignored.
func (c *Controller) SetRouting(kind RoutingKind, core int) {
	if kind == RoutePinned && (core < 0 || core >= len(c.cores)) {
		panic(fmt.Sprintf("interrupt: pinned core %d out of range", core))
	}
	c.routing = kind
	c.pinnedCore = core
}

// SetVM marks a core as running inside a virtual machine, amplifying the
// cost of every delivery to it.
func (c *Controller) SetVM(core int, vm bool) { c.vmCore[core] = vm }

// Counts returns the /proc/interrupts-style counter for (type, core).
func (c *Controller) Counts(t Type, core int) uint64 { return c.counts[t][core] }

// TotalCount returns the number of deliveries of t across all cores.
func (c *Controller) TotalCount(t Type) uint64 {
	var n uint64
	for _, v := range c.counts[t] {
		n += v
	}
	return n
}

// sampleDuration draws a handler-body duration for t.
func (c *Controller) sampleDuration(t Type) sim.Duration {
	s := SpecOf(t)
	d := c.rng.DurLogNormal(s.Median, s.Sigma, s.Min, s.Max)
	return sim.Duration(float64(d) * c.cfg.CostScale)
}

// deliver executes one handler on the target core now (or queued after the
// core's current kernel work), emitting a kernel event and stealing time.
// On an untracked core it only counts the delivery and draws the handler's
// variate, which keeps every later draw of the stream in step: nothing
// reads that core's time, and no observer watches it.
func (c *Controller) deliver(t Type, core int) {
	c.counts[t][core]++
	cc := c.cores[core]
	if !cc.Tracked() {
		c.rng.SkipDurLogNormal()
		return
	}
	dur := c.sampleDuration(t)
	// Kernel entry overhead applies once per entry: piggybacked handlers
	// (core already in kernel) skip it.
	if cc.BusyUntil() <= c.eng.Now() {
		dur += c.cfg.EntryOverhead
	}
	if c.vmCore[core] {
		dur = sim.Duration(float64(dur)*c.cfg.VMFactor) + c.cfg.VMExit
	}
	st := cc.Steal(dur, SpecOf(t).Cause)
	ev := Event{Type: t, Core: core, Start: st.Start, End: st.End}
	for _, w := range c.observers {
		if w.core == AllCores || w.core == core {
			w.fn(ev)
		}
	}
}

// routeDevice picks the core for a movable device IRQ: global pinning
// (irqbalance binding everything) wins, then per-type affinity, then
// round-robin spreading.
func (c *Controller) routeDevice(t Type) int {
	if c.routing == RoutePinned {
		return c.pinnedCore
	}
	if a := c.affinity[t]; a >= 0 {
		return a
	}
	core := c.rrDevice % len(c.cores)
	c.rrDevice++
	return core
}

// RaiseIRQ delivers a device interrupt per the routing policy and runs its
// follow-up softirq (e.g. NET_RX after a network interrupt) back-to-back on
// the same core, as irq_exit does. It returns the core that handled it.
func (c *Controller) RaiseIRQ(t Type) int {
	if SpecOf(t).Category != CatDevice {
		panic(fmt.Sprintf("interrupt: RaiseIRQ on non-device type %v", t))
	}
	core := c.routeDevice(t)
	c.deliver(t, core)
	switch t {
	case NetRX:
		// Most NET_RX processing runs in the IRQ's irq_exit; a share is
		// steered to other cores (RPS / ksoftirqd), where it runs at
		// their next tick.
		if c.rng.Float64() < c.cfg.RPSFraction {
			c.DeferSoftirq(SoftNetRX, core)
		} else {
			c.deliver(SoftNetRX, core)
		}
	case Graphics:
		// GPU completion work is deferred to a tasklet about half the
		// time (long-running launches, §5.2).
		if c.rng.Bernoulli(0.5) {
			c.deliver(SoftTasklet, core)
		}
	}
	return core
}

// SendResched sends a rescheduling IPI to the target core.
func (c *Controller) SendResched(core int) { c.deliver(IPIResched, core) }

// TLBShootdown broadcasts TLB-invalidation IPIs to every core except the
// initiator (§2.2). The paper observes rescheduling interrupts often occur
// alongside shootdowns (§5.2); callers model that explicitly.
func (c *Controller) TLBShootdown(initiator int) {
	for i := range c.cores {
		if i != initiator {
			c.deliver(IPITLB, i)
		}
	}
}

// DeferSoftirq queues a softirq raised by kernel work on behalf of the
// victim (timer callbacks, tasklets, RCU). Placement follows the configured
// SoftirqPolicy; the work runs at the target core's next timer tick.
func (c *Controller) DeferSoftirq(t Type, raisingCore int) {
	if SpecOf(t).Category != CatSoftirq {
		panic(fmt.Sprintf("interrupt: DeferSoftirq on non-softirq type %v", t))
	}
	core := raisingCore
	if c.cfg.SoftirqPolicy == SoftirqAnyCore {
		core = c.rrSoftirq % len(c.cores)
		c.rrSoftirq++
	}
	c.pendingSoft[core] = append(c.pendingSoft[core], t)
}

// QueueIRQWork schedules IRQ-work processing on a core; it runs piggybacked
// on that core's next timer tick (§5.3: IRQ work cannot happen on its own).
func (c *Controller) QueueIRQWork(core int) {
	c.pendingSoft[core] = append(c.pendingSoft[core], IRQWork)
}

// StartTimerTicks begins per-core local timer interrupts at cfg.TickHZ.
// Each tick runs the timer handler and then drains that core's deferred
// softirq/IRQ-work queue back-to-back in the same kernel entry.
func (c *Controller) StartTimerTicks() {
	period := sim.Duration(int64(sim.Second) / int64(c.cfg.TickHZ))
	for i := range c.cores {
		core := i
		// Stagger tick phases across cores like real APIC timers.
		phase := sim.Duration(int64(period) * int64(i) / int64(len(c.cores)))
		c.eng.Tick(phase, period, func(sim.Time) { c.timerTick(core) })
	}
}

func (c *Controller) timerTick(core int) {
	c.deliver(LocalTimer, core)
	pend := c.pendingSoft[core]
	c.pendingSoft[core] = c.pendingSoft[core][:0]
	for _, t := range pend {
		c.deliver(t, core)
	}
	// The scheduler softirq runs on a fraction of ticks even when idle.
	if c.rng.Bernoulli(0.10) {
		c.deliver(SoftSched, core)
	}
}

// PendingSoftirqs reports the queue depth on a core (for tests).
func (c *Controller) PendingSoftirqs(core int) int { return len(c.pendingSoft[core]) }

// NumCores returns the number of cores the controller manages.
func (c *Controller) NumCores() int { return len(c.cores) }
