package interrupt

import (
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/sim"
)

func newRig(nCores int, cfg Config) (*sim.Engine, []*cpu.Core, *Controller) {
	eng := sim.NewEngine()
	cores := make([]*cpu.Core, nCores)
	for i := range cores {
		cores[i] = cpu.NewCore(eng, i, 2.5)
	}
	ctl := NewController(eng, cores, sim.NewStream(7, "irq"), cfg)
	return eng, cores, ctl
}

func TestSpecsComplete(t *testing.T) {
	for ty := Type(0); ty < NumTypes; ty++ {
		s := SpecOf(ty)
		if s.Name == "" {
			t.Errorf("type %d has no name", ty)
		}
		if s.Median <= 0 || s.Min <= 0 || s.Max < s.Min {
			t.Errorf("type %v has invalid duration params: %+v", ty, s)
		}
		if s.Movable && s.Category != CatDevice {
			t.Errorf("type %v movable but not a device IRQ", ty)
		}
		if ty.String() != s.Name {
			t.Errorf("String mismatch for %d", ty)
		}
	}
	if Type(200).String() == "" {
		t.Error("out-of-range String should render")
	}
}

func TestSpecOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpecOf(NumTypes)
}

func TestRaiseIRQBalancedRoundRobin(t *testing.T) {
	eng, _, ctl := newRig(4, DefaultConfig())
	got := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		eng.After(sim.Millisecond, func() {})
		got = append(got, ctl.RaiseIRQ(SATA))
	}
	for i, core := range got {
		if core != i%4 {
			t.Fatalf("routing = %v, want round-robin", got)
		}
	}
	if ctl.TotalCount(SATA) != 8 {
		t.Fatalf("count = %d", ctl.TotalCount(SATA))
	}
}

func TestRaiseIRQPinned(t *testing.T) {
	_, cores, ctl := newRig(4, DefaultConfig())
	ctl.SetRouting(RoutePinned, 0)
	for i := 0; i < 10; i++ {
		if core := ctl.RaiseIRQ(NetRX); core != 0 {
			t.Fatalf("pinned routing sent IRQ to core %d", core)
		}
	}
	if cores[1].StolenAt(0) != 0 {
		t.Fatal("pinned-away core received steals")
	}
	if ctl.Counts(NetRX, 0) != 10 {
		t.Fatalf("core-0 net-rx count = %d", ctl.Counts(NetRX, 0))
	}
}

func TestSetRoutingPanicsOutOfRange(t *testing.T) {
	_, _, ctl := newRig(2, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctl.SetRouting(RoutePinned, 5)
}

func TestNetRXRaisesSoftirqSameCore(t *testing.T) {
	_, _, ctl := newRig(2, DefaultConfig())
	core := ctl.RaiseIRQ(NetRX)
	if ctl.Counts(SoftNetRX, core) != 1 {
		t.Fatal("NET_RX softirq did not follow the network IRQ")
	}
}

func TestEntryOverheadOncePerEntry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EntryOverhead = 1500
	eng, cores, ctl := newRig(1, cfg)
	var evs []Event
	ctl.Observe(0, func(e Event) { evs = append(evs, e) })
	ctl.RaiseIRQ(NetRX) // IRQ + piggybacked softirq
	eng.Run(sim.Second)
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[1].Start != evs[0].End {
		t.Fatal("softirq should run back-to-back after IRQ handler")
	}
	// Both handlers clamp at spec Min; only the first pays the overhead.
	// total stolen = dur0 + 1500 + dur1, with dur0 >= Min(NetRX).
	stolen := cores[0].StolenAt(eng.Now())
	if stolen <= 1500 {
		t.Fatalf("stolen = %v", stolen)
	}
	first := evs[0].Duration()
	second := evs[1].Duration()
	if first <= second-3000 { // second has no overhead; cheap sanity band
		t.Logf("first=%v second=%v", first, second)
	}
}

func TestVMAmplification(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VMFactor = 2.0
	cfg.VMExit = 5 * sim.Microsecond
	_, cores, ctlPlain := newRig(1, cfg)
	_, vmCores, ctlVM := newRig(1, cfg)
	ctlVM.SetVM(0, true)
	for i := 0; i < 200; i++ {
		ctlPlain.RaiseIRQ(NetRX)
		ctlVM.RaiseIRQ(NetRX)
	}
	plain := cores[0].StolenAt(1 << 40)
	vm := vmCores[0].StolenAt(1 << 40)
	if float64(vm) < 1.5*float64(plain) {
		t.Fatalf("VM stolen %v not amplified vs plain %v", vm, plain)
	}
}

func TestTLBShootdownBroadcast(t *testing.T) {
	_, _, ctl := newRig(4, DefaultConfig())
	ctl.TLBShootdown(2)
	for i := 0; i < 4; i++ {
		want := uint64(1)
		if i == 2 {
			want = 0
		}
		if got := ctl.Counts(IPITLB, i); got != want {
			t.Fatalf("core %d tlb count = %d, want %d", i, got, want)
		}
	}
}

func TestDeferSoftirqRunsAtNextTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickHZ = 1000
	eng, _, ctl := newRig(2, cfg)
	ctl.StartTimerTicks()
	ctl.DeferSoftirq(SoftTasklet, 0)
	if ctl.PendingSoftirqs(0)+ctl.PendingSoftirqs(1) != 1 {
		t.Fatal("softirq not queued")
	}
	eng.Run(5 * sim.Millisecond)
	if ctl.TotalCount(SoftTasklet) != 1 {
		t.Fatalf("tasklet count = %d, want 1 after ticks", ctl.TotalCount(SoftTasklet))
	}
	if ctl.PendingSoftirqs(0)+ctl.PendingSoftirqs(1) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSoftirqPolicyRaisingCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SoftirqPolicy = SoftirqRaisingCore
	cfg.TickHZ = 1000
	eng, _, ctl := newRig(4, cfg)
	ctl.StartTimerTicks()
	for i := 0; i < 20; i++ {
		ctl.DeferSoftirq(SoftTimer, 3)
	}
	eng.Run(5 * sim.Millisecond)
	if got := ctl.Counts(SoftTimer, 3); got != 20 {
		t.Fatalf("raising-core policy: core3 count = %d, want 20", got)
	}
}

func TestSoftirqPolicyAnyCoreSpreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickHZ = 1000
	eng, _, ctl := newRig(4, cfg)
	ctl.StartTimerTicks()
	for i := 0; i < 40; i++ {
		ctl.DeferSoftirq(SoftTimer, 0)
	}
	eng.Run(5 * sim.Millisecond)
	for i := 0; i < 4; i++ {
		if got := ctl.Counts(SoftTimer, i); got != 10 {
			t.Fatalf("any-core policy: core %d count = %d, want 10", i, got)
		}
	}
}

func TestIRQWorkPiggybacksOnTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickHZ = 250
	eng, _, ctl := newRig(1, cfg)
	var evs []Event
	ctl.Observe(AllCores, func(e Event) { evs = append(evs, e) })
	ctl.StartTimerTicks()
	ctl.QueueIRQWork(0)
	eng.Run(10 * sim.Millisecond)
	var sawWork bool
	for i, e := range evs {
		if e.Type == IRQWork {
			sawWork = true
			if i == 0 || evs[i-1].Type != LocalTimer || evs[i-1].End != e.Start {
				t.Fatal("IRQ work should run inside a timer-tick kernel entry")
			}
		}
	}
	if !sawWork {
		t.Fatal("IRQ work never ran")
	}
}

func TestTimerTicksSteadyRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickHZ = 250
	eng, _, ctl := newRig(4, cfg)
	ctl.StartTimerTicks()
	eng.Run(sim.Second)
	for i := 0; i < 4; i++ {
		got := ctl.Counts(LocalTimer, i)
		if got < 248 || got > 252 {
			t.Fatalf("core %d ticks = %d, want ~250", i, got)
		}
	}
}

func TestRaisePanicsOnWrongCategory(t *testing.T) {
	_, _, ctl := newRig(1, DefaultConfig())
	for name, fn := range map[string]func(){
		"RaiseIRQ-softirq": func() { ctl.RaiseIRQ(SoftNetRX) },
		"Defer-device":     func() { ctl.DeferSoftirq(NetRX, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewControllerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cores")
		}
	}()
	NewController(sim.NewEngine(), nil, sim.NewStream(1, "x"), Config{})
}

// Property: sampled handler durations always respect the spec clamp.
func TestSampleDurationClampProperty(t *testing.T) {
	_, _, ctl := newRig(1, DefaultConfig())
	f := func(tv uint8) bool {
		ty := Type(tv % uint8(NumTypes))
		s := SpecOf(ty)
		for i := 0; i < 50; i++ {
			d := ctl.sampleDuration(ty)
			if d < s.Min || d > s.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: kernel-side event log durations sum to the core's stolen time
// (no events lost, no double counting) when only IRQs are raised.
func TestEventLogMatchesStolenProperty(t *testing.T) {
	f := func(n uint8) bool {
		eng, cores, ctl := newRig(1, DefaultConfig())
		var total sim.Duration
		ctl.Observe(0, func(e Event) { total += e.Duration() })
		for i := 0; i < int(n%32); i++ {
			eng.After(sim.Duration(i)*sim.Millisecond, func() {})
			ctl.RaiseIRQ(USB)
		}
		eng.Run(sim.Second)
		return total == cores[0].StolenAt(eng.Now())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRPSFractionSpreadsNetSoftirqs(t *testing.T) {
	// With RPS, a share of NET_RX softirq work lands on cores other than
	// the IRQ's, via the deferred queues.
	cfg := DefaultConfig()
	cfg.RPSFraction = 0.5
	cfg.TickHZ = 1000
	eng, _, ctl := newRig(4, cfg)
	ctl.SetRouting(RoutePinned, 0)
	ctl.StartTimerTicks()
	for i := 0; i < 400; i++ {
		eng.Run(eng.Now() + sim.Millisecond)
		ctl.RaiseIRQ(NetRX)
	}
	eng.Run(eng.Now() + 10*sim.Millisecond)
	offCore := uint64(0)
	for core := 1; core < 4; core++ {
		offCore += ctl.Counts(SoftNetRX, core)
	}
	if offCore < 50 {
		t.Fatalf("RPS spread only %d NET_RX softirqs off the IRQ core", offCore)
	}
	// The IRQ top halves themselves must all stay pinned.
	for core := 1; core < 4; core++ {
		if ctl.Counts(NetRX, core) != 0 {
			t.Fatalf("pinned NIC IRQ leaked to core %d", core)
		}
	}
}

func TestRPSZeroKeepsSoftirqLocal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RPSFraction = 0
	_, _, ctl := newRig(4, cfg)
	ctl.SetRouting(RoutePinned, 0)
	for i := 0; i < 100; i++ {
		ctl.RaiseIRQ(NetRX)
	}
	if got := ctl.Counts(SoftNetRX, 0); got != 100 {
		t.Fatalf("same-core softirqs = %d, want 100", got)
	}
}

func TestIRQAffinity(t *testing.T) {
	_, _, ctl := newRig(4, DefaultConfig())
	ctl.SetIRQAffinity(Keyboard, 2)
	for i := 0; i < 10; i++ {
		if core := ctl.RaiseIRQ(Keyboard); core != 2 {
			t.Fatalf("keyboard IRQ on core %d", core)
		}
	}
	// -1 restores spreading.
	ctl.SetIRQAffinity(Keyboard, -1)
	cores := map[int]bool{}
	for i := 0; i < 16; i++ {
		cores[ctl.RaiseIRQ(Keyboard)] = true
	}
	if len(cores) < 2 {
		t.Fatal("affinity -1 should spread")
	}
	// Defaults: keyboard and USB pinned to core 0 like legacy lines.
	_, _, fresh := newRig(4, DefaultConfig())
	if fresh.RaiseIRQ(USB) != 0 {
		t.Fatal("USB default affinity should be core 0")
	}
	for name, fn := range map[string]func(){
		"non-device": func() { ctl.SetIRQAffinity(SoftNetRX, 0) },
		"bad core":   func() { ctl.SetIRQAffinity(SATA, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestOSTickRatesDiffer(t *testing.T) {
	// Windows ticks at 100 Hz, Linux at 250 Hz — an OS-personality knob
	// that shifts Table 1's absolute numbers.
	count := func(hz int) uint64 {
		cfg := DefaultConfig()
		cfg.TickHZ = hz
		eng, _, ctl := newRig(1, cfg)
		ctl.StartTimerTicks()
		eng.Run(sim.Second)
		return ctl.Counts(LocalTimer, 0)
	}
	linux, windows := count(250), count(100)
	if linux < 240 || windows > 110 {
		t.Fatalf("tick rates: linux %d, windows %d", linux, windows)
	}
}
