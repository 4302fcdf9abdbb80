// Package cpu models CPU cores for the interrupt side-channel simulation.
//
// A Core tracks, on the shared virtual clock, how many cycles of *user work*
// the task pinned to it could execute: the "work integral"
// ∫ freq(t)·usable(t) dt, where usable(t) is 0 whenever the core is executing
// kernel code (interrupt handlers, softirqs, context switches) or another
// task. The attacker's observable — loop iterations per period — is exactly a
// difference of this integral divided by the per-iteration cycle cost, which
// is why the model reproduces the paper's side channel without simulating
// individual instructions.
package cpu

import (
	"fmt"

	"repro/internal/sim"
)

// Cause labels why a core was taken away from its user task. The interrupt
// package maps interrupt types onto causes; the scheduler uses CausePreempt.
type Cause uint8

// Steal causes, ordered roughly by the paper's taxonomy (§2.2).
const (
	CauseNone Cause = iota
	CauseDeviceIRQ
	CauseTimer
	CauseIPIResched
	CauseIPITLB
	CauseSoftirq
	CauseIRQWork
	CausePreempt
	CauseVMExit
	CauseOther
)

var causeNames = [...]string{
	CauseNone:       "none",
	CauseDeviceIRQ:  "device-irq",
	CauseTimer:      "timer",
	CauseIPIResched: "ipi-resched",
	CauseIPITLB:     "ipi-tlb",
	CauseSoftirq:    "softirq",
	CauseIRQWork:    "irq-work",
	CausePreempt:    "preempt",
	CauseVMExit:     "vm-exit",
	CauseOther:      "other",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// NumCauses is the number of distinct steal causes.
const NumCauses = len(causeNames)

// Steal is one interval during which the user task did not run.
type Steal struct {
	Start, End sim.Time
	Cause      Cause
}

// Duration returns the stolen span.
func (s Steal) Duration() sim.Duration { return s.End - s.Start }

// Core is a single CPU core. Create cores with NewCore; the zero value is
// unusable.
//
// A core is tracked unless SetTracked(false) says nothing will read its
// time. The interrupt controller books no kernel time on an untracked core
// (it still counts the deliveries), so reading that core's time panics.
// Tracking must be settled before the workload runs.
type Core struct {
	ID int

	eng     *sim.Engine
	tracked bool

	freqGHz float64 // cycles per nanosecond

	// Lazily advanced accounting.
	lastUpdate sim.Time
	work       float64      // user cycles completed so far
	stolenNS   sim.Duration // total ns stolen from the user task
	busyUntil  sim.Time     // kernel occupies the core until this instant

	// Steal log for eBPF-style attribution; enabled on demand because
	// experiments at scale do not need it.
	recordSteals bool
	steals       []Steal

	// Per-cause stolen time, always collected (cheap).
	stolenByCause [NumCauses]sim.Duration
}

// NewCore creates a core on the given engine at the given initial frequency.
func NewCore(eng *sim.Engine, id int, freqGHz float64) *Core {
	if freqGHz <= 0 {
		panic("cpu: frequency must be positive")
	}
	return &Core{ID: id, eng: eng, freqGHz: freqGHz, tracked: true}
}

// Reset returns the core to its just-built state at the given frequency,
// keeping the steal-log allocation. The engine and ID are unchanged; callers
// resetting a whole machine reset the engine separately.
func (c *Core) Reset(freqGHz float64) {
	if freqGHz <= 0 {
		panic("cpu: frequency must be positive")
	}
	c.freqGHz = freqGHz
	c.tracked = true
	c.lastUpdate = 0
	c.work = 0
	c.stolenNS = 0
	c.busyUntil = 0
	c.recordSteals = false
	c.steals = c.steals[:0]
	c.stolenByCause = [NumCauses]sim.Duration{}
}

// SetTracked says whether anything reads this core's time.
func (c *Core) SetTracked(on bool) { c.tracked = on }

// Tracked reports whether the core's kernel time is booked.
func (c *Core) Tracked() bool { return c.tracked }

// mustBeTracked guards the time readers: an untracked core's time was
// never booked, so only a bug can read it.
func (c *Core) mustBeTracked() {
	if !c.tracked {
		panic(fmt.Sprintf("cpu: core %d is untracked; its time is not kept", c.ID))
	}
}

// RecordSteals toggles steal logging. Logging a core tracks it.
func (c *Core) RecordSteals(on bool) {
	c.recordSteals = on
	if on {
		c.tracked = true
	}
}

// Steals returns the recorded steal log (shared slice; do not mutate).
func (c *Core) Steals() []Steal { return c.steals }

// advance brings the work integral forward to `now`. Time inside a booked
// kernel interval was already accounted for when the steal was registered,
// so lastUpdate may be ahead of now; that is a no-op.
func (c *Core) advance(now sim.Time) {
	if now <= c.lastUpdate {
		return
	}
	c.work += c.freqGHz * float64(now-c.lastUpdate)
	c.lastUpdate = now
}

// Freq returns the current frequency in GHz.
func (c *Core) Freq() float64 { return c.freqGHz }

// SetFreq changes the core frequency effective at the engine's current time.
func (c *Core) SetFreq(ghz float64) {
	if ghz <= 0 {
		panic("cpu: frequency must be positive")
	}
	c.advance(c.eng.Now())
	c.freqGHz = ghz
}

// WorkAt returns the user-work integral (in cycles) at the current virtual
// time. Events up to that time must already have been processed by the
// engine for the value to be exact.
func (c *Core) WorkAt(now sim.Time) float64 {
	c.mustBeTracked()
	c.advance(now)
	return c.work
}

// StolenAt returns total stolen nanoseconds as of `now`.
func (c *Core) StolenAt(now sim.Time) sim.Duration {
	c.mustBeTracked()
	c.advance(now)
	return c.stolenNS
}

// StolenByCause returns the cumulative stolen time attributed to cause.
func (c *Core) StolenByCause(cause Cause) sim.Duration {
	c.mustBeTracked()
	return c.stolenByCause[cause]
}

// BusyUntil reports when current kernel occupancy ends (may be in the past).
func (c *Core) BusyUntil() sim.Time {
	c.mustBeTracked()
	return c.busyUntil
}

// Steal occupies the core for kernel work of the given duration, starting
// now or after the current kernel occupancy ends, whichever is later. It
// returns the interval actually occupied. Back-to-back handlers therefore
// queue rather than overlap, like real interrupt handling with IRQs disabled
// during a handler.
func (c *Core) Steal(d sim.Duration, cause Cause) Steal {
	if d <= 0 {
		d = 1
	}
	now := c.eng.Now()
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end := start + d

	// Account user work up to the handler start, then book the stolen
	// interval so later advances skip it.
	c.advance(start)
	c.stolenNS += d
	c.stolenByCause[cause] += d
	c.lastUpdate = end
	c.busyUntil = end

	st := Steal{Start: start, End: end, Cause: cause}
	if c.recordSteals {
		c.steals = append(c.steals, st)
	}
	return st
}

// IterationsBetween converts a work-integral difference into loop-iteration
// counts for a loop whose body costs iterCycles.
func IterationsBetween(w0, w1, iterCycles float64) int {
	if iterCycles <= 0 {
		panic("cpu: iterCycles must be positive")
	}
	n := (w1 - w0) / iterCycles
	if n < 0 {
		return 0
	}
	return int(n)
}
