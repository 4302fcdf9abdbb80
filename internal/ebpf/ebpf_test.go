package ebpf

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/browser"
	"repro/internal/cpu"
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/website"
)

func TestRingBuffer(t *testing.T) {
	rb := NewRingBuffer(3)
	for i := 0; i < 5; i++ {
		rb.Push(Record{Start: sim.Time(i)})
	}
	if rb.Len() != 3 || rb.Dropped != 2 {
		t.Fatalf("len=%d dropped=%d", rb.Len(), rb.Dropped)
	}
	got := rb.Drain()
	if len(got) != 3 || got[0].Start != 2 || got[2].Start != 4 {
		t.Fatalf("drained %+v", got)
	}
	if rb.Len() != 0 {
		t.Fatal("drain should clear")
	}
}

func TestRingBufferValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRingBuffer(0)
}

// Property: ring buffer always returns the most recent records in order.
func TestRingBufferProperty(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		rb := NewRingBuffer(capacity)
		total := int(n) % 64
		for i := 0; i < total; i++ {
			rb.Push(Record{Start: sim.Time(i)})
		}
		got := rb.Drain()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Start != sim.Time(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// preallocRing is the ring buffer with its whole backing array allocated
// up front, the reference for RingBuffer's on-demand growth.
type preallocRing struct {
	buf      []Record
	start, n int
	dropped  uint64
}

func (r *preallocRing) push(rec Record) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

func (r *preallocRing) drain() []Record {
	out := make([]Record, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	r.start, r.n = 0, 0
	return out
}

// TestRingBufferGrownMatchesPreallocated runs random push and drain
// sequences, below and past capacity, through RingBuffer and the
// preallocated reference: every Drain and the Dropped count must agree.
func TestRingBufferGrownMatchesPreallocated(t *testing.T) {
	rng := sim.NewStream(4, "ring")
	for trial := 0; trial < 300; trial++ {
		capacity := rng.IntN(40) + 1
		rb := NewRingBuffer(capacity)
		ref := &preallocRing{buf: make([]Record, capacity)}
		next := 0
		for round := 0; round < 4; round++ {
			for i := rng.IntN(3 * capacity); i > 0; i-- {
				rec := Record{Start: sim.Time(next), Core: next % 4}
				next++
				rb.Push(rec)
				ref.push(rec)
			}
			got, want := rb.Drain(), ref.drain()
			if !slices.Equal(got, want) || rb.Dropped != ref.dropped {
				t.Fatalf("capacity %d, round %d: drained %v (dropped %d), want %v (dropped %d)",
					capacity, round, got, rb.Dropped, want, ref.dropped)
			}
		}
	}
}

func TestTracerFiltersCore(t *testing.T) {
	m := kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: 1})
	tr := Attach(m.Ctl, kernel.AttackerCore, 1<<16)
	all := Attach(m.Ctl, CoreAny, 1<<16)
	m.Eng.Run(sim.Second)
	for _, r := range tr.Buf.Drain() {
		if r.Core != kernel.AttackerCore {
			t.Fatalf("tracer leaked record for core %d", r.Core)
		}
	}
	if all.Buf.Len() == 0 {
		t.Fatal("CoreAny tracer saw nothing")
	}
	if tr.CountsByType[interrupt.LocalTimer] == 0 {
		t.Fatal("no timer ticks counted")
	}
}

func TestObserveGapsMergesAdjacent(t *testing.T) {
	eng := sim.NewEngine()
	c := cpu.NewCore(eng, 0, 1)
	c.RecordSteals(true)
	eng.Schedule(100, func() {
		c.Steal(50, cpu.CauseTimer)
		c.Steal(30, cpu.CauseSoftirq) // back-to-back: one observed gap
	})
	eng.Schedule(500, func() { c.Steal(40, cpu.CauseDeviceIRQ) })
	eng.Run(1000)
	gaps := ObserveGaps(c, 1)
	if len(gaps) != 2 {
		t.Fatalf("gaps = %d, want 2 (merged + separate)", len(gaps))
	}
	if gaps[0].Duration() != 80 {
		t.Fatalf("merged gap = %v, want 80", gaps[0].Duration())
	}
	// Threshold filters the 40ns gap.
	if got := ObserveGaps(c, 50); len(got) != 1 {
		t.Fatalf("threshold filter: %d gaps", len(got))
	}
}

func TestAttribution(t *testing.T) {
	gaps := []Gap{
		{Start: 100, End: 200},  // covered by two records
		{Start: 500, End: 600},  // covered by one
		{Start: 900, End: 1000}, // unexplained (preemption)
	}
	recs := []Record{
		{Type: interrupt.LocalTimer, Start: 100, End: 150},
		{Type: interrupt.SoftNetRX, Start: 150, End: 200},
		{Type: interrupt.IPIResched, Start: 510, End: 590},
		{Type: interrupt.USB, Start: 2000, End: 2050}, // outside all gaps
	}
	a := Attribute(gaps, recs)
	if a.TotalGaps != 3 || a.ExplainedGaps != 2 {
		t.Fatalf("explained %d/%d", a.ExplainedGaps, a.TotalGaps)
	}
	if len(a.Unexplained) != 1 || a.Unexplained[0].Start != 900 {
		t.Fatalf("unexplained = %+v", a.Unexplained)
	}
	// Figure 6 semantics: both records in gap 1 get the full gap length.
	if a.GapLengthsByType[interrupt.LocalTimer][0] != 100 {
		t.Fatal("timer gap length")
	}
	if a.GapLengthsByType[interrupt.SoftNetRX][0] != 100 {
		t.Fatal("softirq gap length should be the total gap length")
	}
	if got := a.ExplainedFraction(); got < 0.66 || got > 0.67 {
		t.Fatalf("fraction = %v", got)
	}
	if (Attribution{}).ExplainedFraction() != 0 {
		t.Fatal("empty fraction")
	}
}

func TestEndToEndAttributionOver99Percent(t *testing.T) {
	// The paper's headline §5.2 result: with IRQs kept off the attacker
	// core, >99% of attacker gaps ≥100ns are caused by interrupts.
	m := kernel.NewMachine(kernel.Config{
		OS: kernel.Linux, Seed: 11,
		Isolation: kernel.Isolation{RemoveIRQs: true, PinCores: true},
	})
	m.Attacker().RecordSteals(true)
	tracer := Attach(m.Ctl, kernel.AttackerCore, 1<<20)
	visit := website.ProfileFor("nytimes.com").Instantiate(m.RNG().Fork("v"))
	browser.LoadPage(m, visit, 1.0, 10*sim.Second)
	m.Eng.Run(10 * sim.Second)

	gaps := ObserveGaps(m.Attacker(), 100*sim.Nanosecond)
	if len(gaps) < 100 {
		t.Fatalf("only %d gaps observed", len(gaps))
	}
	a := Attribute(gaps, tracer.Buf.Drain())
	if frac := a.ExplainedFraction(); frac < 0.99 {
		t.Fatalf("explained fraction = %v, want >= 0.99", frac)
	}
}

func TestInterruptTimeline(t *testing.T) {
	recs := []Record{
		{Type: interrupt.SoftNetRX, Start: 0, End: 50},
		{Type: interrupt.SoftNetRX, Start: 90, End: 120}, // spans buckets
		{Type: interrupt.IPIResched, Start: 210, End: 220},
	}
	tl := InterruptTimeline(recs, 100, 300)
	soft := tl[interrupt.SoftNetRX]
	if len(soft) != 3 {
		t.Fatalf("series len = %d", len(soft))
	}
	if soft[0] != 0.6 { // 50 + 10 of the spanning record
		t.Fatalf("bucket0 = %v, want 0.6", soft[0])
	}
	if soft[1] != 0.2 {
		t.Fatalf("bucket1 = %v, want 0.2", soft[1])
	}
	if tl[interrupt.IPIResched][2] != 0.1 {
		t.Fatal("resched bucket")
	}
	if InterruptTimeline(nil, 100, 0) != nil {
		t.Fatal("empty timeline")
	}
}

func TestInterruptTimelineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InterruptTimeline(nil, 0, 100)
}

func TestRestrictedTracepointsLowerAttribution(t *testing.T) {
	// Footnote 3: on kernels that restrict tracing, some entry points are
	// invisible and attribution falls below 100%.
	run := func(restrict bool) float64 {
		m := kernel.NewMachine(kernel.Config{
			OS: kernel.Linux, Seed: 31,
			Isolation: kernel.Isolation{RemoveIRQs: true, PinCores: true},
		})
		m.Attacker().RecordSteals(true)
		tr := Attach(m.Ctl, kernel.AttackerCore, 1<<20)
		if restrict {
			// IPIs arrive in their own kernel entries (unlike softirqs,
			// which piggyback on traced timer ticks), so restricting
			// them leaves gaps with no covering record.
			tr.Restrict(interrupt.IPITLB, interrupt.IPIResched)
		}
		visit := website.ProfileFor("nytimes.com").Instantiate(m.RNG().Fork("v"))
		browser.LoadPage(m, visit, 1.0, 5*sim.Second)
		m.Eng.Run(5 * sim.Second)
		gaps := ObserveGaps(m.Attacker(), 100*sim.Nanosecond)
		return Attribute(gaps, tr.Buf.Drain()).ExplainedFraction()
	}
	full, restricted := run(false), run(true)
	if full < 0.99 {
		t.Fatalf("full tracing explained %v", full)
	}
	if restricted >= full {
		t.Fatalf("restricted tracing should lose attributions: %v vs %v", restricted, full)
	}
}
