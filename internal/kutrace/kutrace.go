// Package kutrace is a KUtrace-style whole-machine tracer (Sites,
// "Understanding Software Dynamics"), the tool the paper names for going
// deeper than eBPF (§5.2): instead of sampling specific tracepoints, it
// records *every* kernel/user transition on every core into one timeline,
// and produces CPU-time breakdowns per cause.
//
// In the simulation the ground truth is available from each core's steal
// log, so the tracer's job is the KUtrace-like part: merging per-core
// spans into one timeline, computing breakdowns, and rendering it.
package kutrace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Span is one interval of kernel execution on a core.
type Span struct {
	Core       int
	Start, End sim.Time
	Cause      cpu.Cause
}

// Duration returns the span length.
func (s Span) Duration() sim.Duration { return s.End - s.Start }

// Timeline is a whole-machine kernel-time record over [0, Until].
type Timeline struct {
	Cores int
	Until sim.Time
	Spans []Span // sorted by (Start, Core)
}

// Capture builds a timeline from every core's steal log. RecordSteals must
// have been enabled on the cores of interest before the workload ran;
// cores without recording contribute no spans.
func Capture(m *kernel.Machine, until sim.Time) *Timeline {
	tl := &Timeline{Cores: len(m.Cores), Until: until}
	for _, c := range m.Cores {
		for _, st := range c.Steals() {
			if st.Start >= until {
				continue
			}
			end := st.End
			if end > until {
				end = until
			}
			tl.Spans = append(tl.Spans, Span{Core: c.ID, Start: st.Start, End: end, Cause: st.Cause})
		}
	}
	sort.Slice(tl.Spans, func(i, j int) bool {
		if tl.Spans[i].Start != tl.Spans[j].Start {
			return tl.Spans[i].Start < tl.Spans[j].Start
		}
		return tl.Spans[i].Core < tl.Spans[j].Core
	})
	return tl
}

// Breakdown is per-cause kernel time for one core, plus derived user time.
type Breakdown struct {
	Core    int
	ByCause map[cpu.Cause]sim.Duration
	Kernel  sim.Duration
	User    sim.Duration
}

// BreakdownFor computes the core's CPU-time split over the timeline window.
func (tl *Timeline) BreakdownFor(core int) Breakdown {
	b := Breakdown{Core: core, ByCause: make(map[cpu.Cause]sim.Duration)}
	for _, s := range tl.Spans {
		if s.Core != core {
			continue
		}
		b.ByCause[s.Cause] += s.Duration()
		b.Kernel += s.Duration()
	}
	b.User = sim.Duration(tl.Until) - b.Kernel
	return b
}

// String renders the breakdown as a KUtrace-style report.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "core %d: user %.3f%% kernel %.3f%%\n",
		b.Core, 100*float64(b.User)/float64(b.User+b.Kernel),
		100*float64(b.Kernel)/float64(b.User+b.Kernel))
	causes := make([]cpu.Cause, 0, len(b.ByCause))
	for c := range b.ByCause {
		causes = append(causes, c)
	}
	sort.Slice(causes, func(i, j int) bool { return b.ByCause[causes[i]] > b.ByCause[causes[j]] })
	for _, c := range causes {
		fmt.Fprintf(&sb, "  %-14s %12v\n", c, b.ByCause[c])
	}
	return sb.String()
}

// Render draws each core's kernel occupancy as an ASCII strip of `width`
// columns over [0, Until]; '#' marks columns containing kernel time.
func (tl *Timeline) Render(width int) string {
	if width <= 0 || tl.Until <= 0 {
		return ""
	}
	rows := make([][]byte, tl.Cores)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, s := range tl.Spans {
		if s.Core >= tl.Cores {
			continue
		}
		lo := int(int64(s.Start) * int64(width) / int64(tl.Until))
		hi := int(int64(s.End) * int64(width) / int64(tl.Until))
		for c := lo; c <= hi && c < width; c++ {
			rows[s.Core][c] = '#'
		}
	}
	var sb strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&sb, "cpu%d |%s|\n", i, row)
	}
	return sb.String()
}
