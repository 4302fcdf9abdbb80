package kutrace

import (
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/website"
)

func capturedMachine(t *testing.T) (*kernel.Machine, *Timeline) {
	t.Helper()
	m := kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: 3})
	for _, c := range m.Cores {
		c.RecordSteals(true)
	}
	visit := website.ProfileFor("amazon.com").Instantiate(m.RNG().Fork("v"))
	browser.LoadPage(m, visit, 1.0, 3*sim.Second)
	m.Eng.Run(3 * sim.Second)
	return m, Capture(m, 3*sim.Second)
}

func TestCaptureSorted(t *testing.T) {
	_, tl := capturedMachine(t)
	if len(tl.Spans) < 1000 {
		t.Fatalf("spans = %d, want a busy timeline", len(tl.Spans))
	}
	for i := 1; i < len(tl.Spans); i++ {
		if tl.Spans[i].Start < tl.Spans[i-1].Start {
			t.Fatal("spans not sorted")
		}
	}
	if tl.Cores != 4 {
		t.Fatalf("cores = %d", tl.Cores)
	}
}

func TestBreakdownConservation(t *testing.T) {
	m, tl := capturedMachine(t)
	for core := 0; core < tl.Cores; core++ {
		b := tl.BreakdownFor(core)
		if b.User+b.Kernel != sim.Duration(tl.Until) {
			t.Fatalf("core %d: user %v + kernel %v != %v", core, b.User, b.Kernel, tl.Until)
		}
		// Kernel time must match the core's stolen-time accounting up
		// to clipping: a handler in flight at the capture horizon is
		// clipped by Capture but pre-booked in StolenAt.
		got, want := b.Kernel, m.Cores[core].StolenAt(m.Eng.Now())
		if d := want - got; d < 0 || d > 200*sim.Microsecond {
			t.Fatalf("core %d: breakdown kernel %v vs stolen %v", core, got, want)
		}
		if b.String() == "" {
			t.Fatal("empty report")
		}
	}
	// Attacker core must show timer + softirq causes (non-movable).
	b := tl.BreakdownFor(kernel.AttackerCore)
	if b.ByCause[cpu.CauseTimer] == 0 || b.ByCause[cpu.CauseSoftirq] == 0 {
		t.Fatalf("missing causes: %v", b.ByCause)
	}
}

func TestRender(t *testing.T) {
	_, tl := capturedMachine(t)
	out := tl.Render(60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rows = %d", len(lines))
	}
	if !strings.Contains(out, "#") {
		t.Fatal("no kernel time rendered")
	}
	if tl.Render(0) != "" {
		t.Fatal("zero width")
	}
}
