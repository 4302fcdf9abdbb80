// Package ebpf reproduces the paper's kernel-instrumentation methodology
// (§5.2): programs attached to interrupt entry/exit tracepoints record
// per-handler timestamps into ring-buffer maps; a user-space attacker's
// observed execution gaps are then joined against the kernel-side log on
// the shared monotonic clock to attribute each gap to its root cause.
//
// In the simulation, the interrupt controller's Observe hook plays the role
// of the irq/softirq/ipi tracepoints, and the attacker core's steal log
// plays the role of the Rust CLOCK_MONOTONIC-polling attacker.
package ebpf

import (
	"repro/internal/cpu"
	"repro/internal/interrupt"
	"repro/internal/sim"
)

// Record is one ring-buffer entry: a completed handler execution.
type Record struct {
	Type       interrupt.Type
	Core       int
	Start, End sim.Time
}

// Duration returns the handler span.
func (r Record) Duration() sim.Duration { return r.End - r.Start }

// RingBuffer is a fixed-capacity event buffer like BPF_MAP_TYPE_RINGBUF:
// when full, the oldest records are overwritten and counted as dropped.
// The backing array grows on demand up to the capacity, so a buffer sized
// for the worst case costs only what it holds.
type RingBuffer struct {
	buf      []Record
	capacity int
	start    int // index of oldest; 0 until the buffer first fills
	n        int
	Dropped  uint64
}

// NewRingBuffer makes a buffer holding up to capacity records.
func NewRingBuffer(capacity int) *RingBuffer {
	if capacity <= 0 {
		panic("ebpf: ring buffer capacity must be positive")
	}
	return &RingBuffer{capacity: capacity}
}

// Push appends a record, evicting the oldest when full.
func (r *RingBuffer) Push(rec Record) {
	if r.n < r.capacity {
		// i <= len(buf): start stays 0 until the array reaches capacity.
		if i := (r.start + r.n) % r.capacity; i < len(r.buf) {
			r.buf[i] = rec
		} else {
			r.buf = append(r.buf, rec)
		}
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % r.capacity
	r.Dropped++
}

// Len returns the number of buffered records.
func (r *RingBuffer) Len() int { return r.n }

// Drain returns and clears all buffered records in arrival order.
func (r *RingBuffer) Drain() []Record {
	out := make([]Record, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%r.capacity]
	}
	r.start, r.n = 0, 0
	return out
}

// Tracer attaches eBPF-style programs to the interrupt tracepoints and
// collects records for one core (or all cores with CoreAny).
type Tracer struct {
	Buf *RingBuffer
	// CountsByType is the per-type delivery counter map
	// (BPF_MAP_TYPE_ARRAY analogue).
	CountsByType map[interrupt.Type]uint64

	blocked map[interrupt.Type]bool
}

// CoreAny traces every core.
const CoreAny = interrupt.AllCores

// Attach registers the tracer on the controller's tracepoints for one core
// (or every core with CoreAny), which tracks that core; attach before the
// workload runs. The paper notes Linux restricts which kernel entry points
// can be traced; our controller exposes all interrupt types, so coverage
// here is complete — the restriction is documented rather than simulated.
func Attach(ctl *interrupt.Controller, core int, bufCapacity int) *Tracer {
	t := &Tracer{
		Buf:          NewRingBuffer(bufCapacity),
		CountsByType: make(map[interrupt.Type]uint64),
	}
	ctl.Observe(core, func(e interrupt.Event) {
		if t.blocked[e.Type] {
			return
		}
		t.CountsByType[e.Type]++
		t.Buf.Push(Record{Type: e.Type, Core: e.Core, Start: e.Start, End: e.End})
	})
	return t
}

// Restrict removes tracepoints for the given types, modelling the kernels
// the paper's footnote 3 describes: "Linux restricts which kernel functions
// can be traced, with recent versions (5.11 and later) being slightly less
// restrictive". On a restricted kernel the tool "is unable to monitor all
// entry points", so some attacker gaps become unattributable.
func (t *Tracer) Restrict(types ...interrupt.Type) {
	if t.blocked == nil {
		t.blocked = make(map[interrupt.Type]bool)
	}
	for _, ty := range types {
		t.blocked[ty] = true
	}
}

// Gap is one user-space execution gap the attacker observed: a jump in
// CLOCK_MONOTONIC larger than its polling threshold.
type Gap struct {
	Start, End sim.Time
}

// Duration returns the gap span.
func (g Gap) Duration() sim.Duration { return g.End - g.Start }

// ObserveGaps converts a core's steal log into the gaps a user-space poller
// would see: adjacent steals merge into one gap (the attacker cannot run in
// between), and only gaps of at least minDur survive. The core must have
// RecordSteals(true) set before the workload runs.
func ObserveGaps(core *cpu.Core, minDur sim.Duration) []Gap {
	steals := core.Steals()
	var out []Gap
	for _, s := range steals {
		if n := len(out); n > 0 && s.Start <= out[n-1].End {
			if s.End > out[n-1].End {
				out[n-1].End = s.End
			}
			continue
		}
		out = append(out, Gap{Start: s.Start, End: s.End})
	}
	filtered := out[:0]
	for _, g := range out {
		if g.Duration() >= minDur {
			filtered = append(filtered, g)
		}
	}
	return filtered
}
