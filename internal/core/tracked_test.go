package core

import (
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ebpf"
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/website"
)

// attackerView is everything one visit shows of the attacker core, plus
// the machine-wide counters that stay exact on untracked cores.
type attackerView struct {
	work      []float64      // WorkAt at every 5 ms boundary
	stolen    []sim.Duration // StolenAt at every 5 ms boundary
	byCause   []sim.Duration
	counts    []uint64 // Counts for every (type, core)
	processed uint64
	scheduled uint64
	records   []ebpf.Record // the attacker core's eBPF records
}

// viewVisit simulates one visit of scn and records its attackerView. With
// trackAll every core books its kernel time; otherwise the machine keeps
// its default, which books time only on the attacker core.
func viewVisit(t *testing.T, scn Scenario, trackAll bool) attackerView {
	t.Helper()
	m := &kernel.Machine{}
	profile := website.ProfileFor(website.ClosedWorldDomains()[0])
	if _, err := startVisit(m, scn, profile, 0, goldenScale.Seed); err != nil {
		t.Fatal(err)
	}
	if trackAll {
		for _, c := range m.Cores {
			c.SetTracked(true)
		}
	}
	tracer := ebpf.Attach(m.Ctl, kernel.AttackerCore, 1<<20)
	att := m.Attacker()
	var v attackerView
	for at := sim.Time(0); at <= scn.TraceDuration; at += 5 * sim.Millisecond {
		m.Eng.Run(at)
		v.work = append(v.work, att.WorkAt(at))
		v.stolen = append(v.stolen, att.StolenAt(at))
	}
	for cause := cpu.Cause(0); int(cause) < cpu.NumCauses; cause++ {
		v.byCause = append(v.byCause, att.StolenByCause(cause))
	}
	for ty := interrupt.Type(0); ty < interrupt.NumTypes; ty++ {
		for core := range m.Cores {
			v.counts = append(v.counts, m.Ctl.Counts(ty, core))
		}
	}
	v.processed, v.scheduled = m.Eng.Processed, m.Eng.Scheduled()
	v.records = tracer.Buf.Drain()
	return v
}

// TestUntrackedCoresEquivalence holds the machine's default, which books
// kernel time only on the attacker core, to the machine that books it on
// every core: over one page load of each golden-grid scenario (three
// OSes, VM isolation, pinned IRQs, all noise, the Tor and randomized
// timers) the attacker core's time, every interrupt counter, the event
// totals and the attacker core's eBPF records must be identical.
func TestUntrackedCoresEquivalence(t *testing.T) {
	for _, scn := range goldenGrid() {
		t.Run(scn.Name, func(t *testing.T) {
			full, lean := viewVisit(t, scn, true), viewVisit(t, scn, false)
			switch {
			case !slices.Equal(full.work, lean.work):
				t.Fatal("attacker WorkAt differs")
			case !slices.Equal(full.stolen, lean.stolen), !slices.Equal(full.byCause, lean.byCause):
				t.Fatal("attacker stolen time differs")
			case !slices.Equal(full.counts, lean.counts):
				t.Fatal("interrupt counts differ")
			case full.processed != lean.processed || full.scheduled != lean.scheduled:
				t.Fatalf("events: processed %d/%d, scheduled %d/%d",
					full.processed, lean.processed, full.scheduled, lean.scheduled)
			case !slices.Equal(full.records, lean.records):
				t.Fatal("attacker eBPF records differ")
			}
			if len(full.records) == 0 || full.work[len(full.work)-1] == 0 {
				t.Fatal("the visit did not run")
			}
		})
	}
}
