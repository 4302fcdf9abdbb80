package browser

import (
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/website"
)

// memChunk is the granularity at which pulse memory traffic and governor
// load are applied; fine enough to shape 5 ms trace samples, coarse enough
// to keep the event count low.
const memChunk = 5 * sim.Millisecond

// LoadPage schedules all machine activity for one visit to a website
// profile on machine m, clipped to [0, until]. The visit should already be
// Instantiate()d with per-visit jitter. Dilation stretches the profile's
// timeline (Tor Browser).
//
// Each pulse spawns independent Poisson event streams:
//
//	network packets → NIC IRQs (+NET_RX softirq at the IRQ's core)
//	render events   → GPU IRQs (+tasklets)
//	JS bursts       → scheduler CPU bursts (resched IPIs, DVFS load)
//	deferred work   → softirqs placed by kernel policy
//	memory traffic  → LLC eviction of attacker lines, TLB shootdowns
func LoadPage(m *kernel.Machine, visit website.Profile, dilation float64, until sim.Time) {
	if dilation <= 0 {
		dilation = 1
	}
	rng := m.RNG().Fork("pageload/" + visit.Domain)
	for i, pl := range visit.Pulses {
		schedulePulse(m, pl, dilation, until, rng.Fork(pulseName(i)))
	}
}

func pulseName(i int) string { return string(rune('a'+i%26)) + "pulse" }

func schedulePulse(m *kernel.Machine, pl website.Pulse, dilation float64, until sim.Time, rng *sim.Stream) {
	start := sim.Time(float64(pl.Start) * dilation)
	end := sim.Time(float64(pl.End()) * dilation)
	if end > until {
		end = until
	}
	if start >= end {
		return
	}
	// Dilation stretches the pulse but the same total bytes/work flow, so
	// rates scale down with it.
	netRate := pl.NetPacketsPerSec / dilation
	gfxRate := pl.GfxPerSec / dilation
	cpuRate := pl.CPUBurstsPerSec / dilation
	softRate := pl.SoftirqsPerSec / dilation
	memRate := pl.MemLinesPerSec / dilation

	poissonStream(m, start, end, netRate, rng.Fork("net"), func() {
		m.Ctl.RaiseIRQ(interrupt.NetRX)
	})
	poissonStream(m, start, end, gfxRate, rng.Fork("gfx"), func() {
		m.Ctl.RaiseIRQ(interrupt.Graphics)
	})
	burstRNG := rng.Fork("cpu")
	poissonStream(m, start, end, cpuRate, burstRNG, func() {
		d := sim.Duration(float64(pl.CPUBurstLen) * burstRNG.LogNormal(0, 0.3))
		m.Sched.VictimBurst(d, pl.Load)
	})
	softRNG := rng.Fork("soft")
	poissonStream(m, start, end, softRate, softRNG, func() {
		switch {
		case softRNG.Bernoulli(0.5):
			m.Ctl.DeferSoftirq(interrupt.SoftTimer, kernel.VictimCore)
		case softRNG.Bernoulli(0.6):
			m.Ctl.DeferSoftirq(interrupt.SoftTasklet, kernel.VictimCore)
		default:
			m.Ctl.DeferSoftirq(interrupt.SoftRCU, kernel.VictimCore)
		}
	})

	// Memory traffic and governor load apply in fixed chunks.
	linesPerChunk := memRate * memChunk.Seconds()
	memRNG := rng.Fork("mem")
	m.Eng.Series(start, memChunk, end, func() {
		m.Sched.VictimMemory(linesPerChunk * memRNG.LogNormal(0, 0.1))
		m.Gov.ReportLoad(pl.Load)
	})
}

// poissonStream schedules events at exponential inter-arrival times with
// the given mean rate (events/second of virtual time) over [start, end).
func poissonStream(m *kernel.Machine, start, end sim.Time, rate float64, rng *sim.Stream, fire func()) {
	if rate <= 0 {
		return
	}
	mean := sim.Duration(float64(sim.Second) / rate)
	var step func()
	step = func() {
		if m.Eng.Now() >= end {
			return
		}
		fire()
		m.Eng.After(rng.DurExp(mean), step)
	}
	m.Eng.Schedule(start+rng.DurExp(mean), step)
}
