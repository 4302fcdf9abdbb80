package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/defense"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tornet"
	"repro/internal/trace"
	"repro/internal/website"
)

// Scale sets dataset sizes. The paper's full scale is 100 sites × 100
// traces (+5000 open world); tests and benches shrink this. Scale is part
// of the CellSpec wire payload, so its fields carry JSON tags and Validate
// must reject anything a hostile or corrupt spec could carry.
type Scale struct {
	// Sites is the number of closed-world sites (first N of Appendix A).
	Sites int `json:"sites"`
	// TracesPerSite is the number of visits recorded per site.
	TracesPerSite int `json:"traces_per_site"`
	// OpenWorld is the number of non-sensitive traces, each from a
	// unique site (0 = closed-world experiment).
	OpenWorld int `json:"open_world,omitempty"`
	// Folds for cross-validation (paper: 10).
	Folds int `json:"folds"`
	// Seed roots all randomness.
	Seed uint64 `json:"seed"`
	// Parallelism bounds concurrent trace simulations (0 = NumCPU).
	Parallelism int `json:"parallelism,omitempty"`
	// CellParallelism bounds how many independent experiment cells (table
	// rows, figure points) run concurrently (0 = all at once). Cells only
	// pipeline: actual compute is bounded by the process-wide slot pool
	// regardless, so this knob mainly limits peak memory.
	CellParallelism int `json:"cell_parallelism,omitempty"`
}

// Validate checks the scale is usable.
func (s Scale) Validate() error {
	if s.Sites < 2 {
		return fmt.Errorf("core: need at least 2 sites, got %d", s.Sites)
	}
	if s.Sites > 100 {
		return fmt.Errorf("core: closed world has only 100 sites, got %d", s.Sites)
	}
	if s.TracesPerSite < 1 {
		return fmt.Errorf("core: need at least 1 trace per site")
	}
	if s.OpenWorld < 0 {
		return fmt.Errorf("core: negative open-world count %d", s.OpenWorld)
	}
	if s.Folds < 2 {
		return fmt.Errorf("core: need at least 2 folds")
	}
	return nil
}

// NonSensitiveLabel returns the open-world class index for this scale.
func (s Scale) NonSensitiveLabel() int { return s.Sites }

// CollectOne simulates a single labeled trace for the scenario: it builds a
// fresh machine, arms any defenses, loads the page, and runs the attacker.
func CollectOne(scn Scenario, profile website.Profile, label, visit int, root uint64) (trace.Trace, error) {
	return collectOne(&kernel.Machine{}, scn, profile, label, visit, root, nil)
}

// collectOne is CollectOne on a caller-owned machine arena: the machine is
// Reset (booted) for this trace, so workers sweeping thousands of visits
// recycle the engine slab, cores, and controller instead of rebuilding the
// object graph per visit. Reset machines are bit-identical to fresh ones
// (kernel.TestResetEqualsFresh), so arena reuse cannot change trace bytes.
// dst, when non-nil, is the caller-owned storage (a trace.Store arena row)
// the attacker records into, making the whole trace allocation-free.
func collectOne(m *kernel.Machine, scn Scenario, profile website.Profile, label, visit int, root uint64, dst []float64) (trace.Trace, error) {
	cfg, err := startVisit(m, scn, profile, visit, root)
	if err != nil {
		return trace.Trace{}, err
	}
	cfg.Dst = dst
	var tr trace.Trace
	if scn.Attack == SweepCounting {
		tr, err = attack.CollectSweep(m, cfg)
	} else {
		tr, err = attack.CollectLoop(m, cfg)
	}
	if err != nil {
		return trace.Trace{}, err
	}
	tr.Domain = profile.Domain
	tr.Label = label
	// Event totals come from the engine's counters after the run — the
	// event loop itself carries no hooks (see sim.TestSteadyStateAllocFree).
	cTraces.Inc()
	cSimProcessed.Add(int64(m.Eng.Processed))
	cSimScheduled.Add(int64(m.Eng.Scheduled()))
	return tr, nil
}

// startVisit boots m for one visit of the scenario, arms its defenses and
// schedules the page load, and returns the attacker's configuration. The
// engine has not run yet.
func startVisit(m *kernel.Machine, scn Scenario, profile website.Profile, visit int, root uint64) (attack.Config, error) {
	if err := scn.normalize(); err != nil {
		return attack.Config{}, err
	}
	seed := traceSeed(root, scn.Name, profile.Domain, visit)
	m.Reset(kernel.Config{
		OS:              scn.OS,
		Seed:            seed,
		Isolation:       scn.Isolation,
		SoftirqPolicy:   scn.SoftirqPolicy,
		BackgroundNoise: scn.BackgroundNoise,
	})
	tm := scn.timer(seed)
	samples := scn.samples(tm)

	dilation := scn.Dilation
	activityWindow := sim.Duration(float64(scn.TraceDuration) * 1.2)
	if scn.InterruptNoise {
		defense.DefaultInterruptNoise().Start(m, activityWindow)
		dilation *= defense.PageLoadSlowdown
	}
	if scn.CacheNoise {
		defense.DefaultCacheSweepNoise().Start(m, activityWindow)
	}

	jitter := scn.VisitJitter
	if jitter <= 0 {
		jitter = scn.Browser.VisitJitter()
	}
	visitProfile := profile.InstantiateScaled(m.RNG().Fork(fmt.Sprintf("visit-%d", visit)), jitter)
	if scn.Browser == browser.TorBrowser {
		// Each visit rides a fresh Tor circuit: per-visit latency and
		// bandwidth distortion on top of ordinary visit jitter.
		circuit := tornet.NewCircuit(m.RNG().Fork("circuit"))
		visitProfile = circuit.Distort(visitProfile, m.RNG().Fork("tor-distort"))
	}
	browser.LoadPage(m, visitProfile, dilation, activityWindow)

	// Figure 2's pseudocode indexes a millisecond-granular array by
	// reported time (`int Trace[T*1000]; ... Trace[t_begin] = counter`);
	// that only differs from sequential storage when the reported clock
	// deviates substantially from real time, i.e. under the randomized
	// timer, where it scatters the samples across the array.
	cfg := attack.Config{
		Timer:   tm,
		Period:  scn.Period,
		Samples: samples,
		Variant: scn.Variant,
	}
	if _, ok := tm.(*clockface.Randomized); ok {
		cfg.SlotIndexed = true
		cfg.SlotUnit = sim.Millisecond
		cfg.Samples = int(scn.TraceDuration / cfg.SlotUnit)
	}
	return cfg, nil
}

// collectJob describes one trace simulation: which site profile to visit,
// the class label, the visit number, and the output slot.
type collectJob struct {
	profile website.Profile
	label   int
	visit   int
	slot    int
}

// rowSink receives finished traces straight into pre-reserved storage:
// Row(slot) hands a worker the arena row to record into and Finish(slot, tr)
// publishes the result. trace.Builder and trace.SpillBuilder implement it.
type rowSink interface {
	Row(i int) []float64
	Finish(i int, tr trace.Trace)
}

// runCollectJobs executes the jobs across par workers (0 = NumCPU), failing
// fast: the first error cancels all undispatched jobs, and in-flight workers
// exit after their current job. newRun is called once per worker so each
// worker can own private per-worker state (a machine arena); every job
// additionally holds a global compute slot, so concurrently running
// experiment cells share one CPU budget. Each job records into
// sink.Row(j.slot) and publishes via sink.Finish (zero per-trace
// allocation). It returns the total slot-held (compute) time in
// nanoseconds, and records a sampled "trace" span per traceSpanSample-th
// job under parent. The returned error wraps the failing job's scenario,
// domain, and visit so a bad simulation is traceable without rerunning the
// sweep.
func runCollectJobs(scenario string, jobs []collectJob, par int, parent *obs.Span, sink rowSink, newRun func() func(collectJob, []float64) (trace.Trace, error)) (int64, error) {
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > len(jobs) {
		par = len(jobs)
	}
	var (
		once     sync.Once
		firstErr error
		busyNS   atomic.Int64
	)
	cancel := make(chan struct{})
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(cancel)
		})
	}
	var wg sync.WaitGroup
	ch := make(chan collectJob)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newRun()
			for j := range ch {
				t0 := acquireSlot()
				var tsp *obs.Span
				if j.slot%traceSpanSample == 0 {
					tsp = obs.StartSpan(parent, "trace")
					tsp.SetAttr("domain", j.profile.Domain).SetAttr("visit", j.visit)
				}
				tr, err := run(j, sink.Row(j.slot))
				busyNS.Add(releaseSlot(t0))
				tsp.End()
				if err != nil {
					fail(fmt.Errorf("core: collect %q %s visit %d: %w",
						scenario, j.profile.Domain, j.visit, err))
					return
				}
				sink.Finish(j.slot, tr)
			}
		}()
	}
produce:
	for _, j := range jobs {
		select {
		case ch <- j:
		case <-cancel:
			break produce
		}
	}
	close(ch)
	wg.Wait()
	return busyNS.Load(), firstErr
}

// CollectDataset builds the full labeled dataset for a scenario at the
// given scale, simulating traces in parallel. Closed-world classes are the
// first Sites domains of Appendix A; open-world traces (if any) share the
// single non-sensitive class, each drawn from a unique generated site.
//
// Datasets are memoized in the runner's content-addressed cache, keyed by
// the scenario's observable behavior and the scale, so experiment grids
// that revisit the same (scenario, scale) point simulate it once. Callers
// share the cached store, which is sealed: it never changes, even when the
// cache later demotes its entry to disk.
func (r Runner) CollectDataset(scn Scenario, sc Scale) (*trace.Store, error) {
	st, _, err := r.collectDatasetInfo(nil, scn, sc)
	return st, err
}

// collectInfo carries the collection facts a manifest cell row needs
// beyond the dataset itself: whether the cache served it, and the
// slot-held (compute) time spent simulating it.
type collectInfo struct {
	cached bool
	busyNS int64
}

// collectDatasetInfo is the instrumented collection path: the "collect"
// span it records carries the facts the manifest's per-cell rows need —
// trace count, trimmed-sample count, whether the dataset came from the
// cache, and slot-held compute time — and the same facts are returned so
// cell runners can build manifest rows without re-deriving them from
// spans.
func (r Runner) collectDatasetInfo(parent *obs.Span, scn Scenario, sc Scale) (*trace.Store, collectInfo, error) {
	var info collectInfo
	if err := sc.Validate(); err != nil {
		return nil, info, err
	}
	if err := scn.normalize(); err != nil {
		return nil, info, err
	}
	sp := obs.StartSpan(parent, "collect")
	sp.SetAttr("scenario", scn.Name)
	ran := false
	var busy int64
	key := datasetCacheKey(scn, sc)
	st, err := r.Cache.getOrCollect(key, func() (*trace.Store, error) {
		ran = true
		st, b, err := collectDataset(scn, sc, sp, r.Cache.planSpill(key, datasetJobCount(sc), scn.traceCapacity()))
		busy = b
		return st, err
	})
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, info, err
	}
	info.cached = !ran
	info.busyNS = busy
	sp.SetAttr("cached", !ran).SetAttr("traces", st.Len()).
		SetAttr("trimmed_samples", st.TrimmedSamples()).SetAttr("busy_ns", busy)
	sp.End()
	return st, info, nil
}

// datasetJobCount returns how many traces CollectDataset will simulate for
// the scale, without building the job list.
func datasetJobCount(sc Scale) int { return sc.Sites*sc.TracesPerSite + sc.OpenWorld }

// datasetJobs builds the deterministic job list: closed-world classes are
// the first Sites domains of Appendix A, then OpenWorld traces each from a
// unique generated site sharing the non-sensitive class.
func datasetJobs(sc Scale) []collectJob {
	domains := website.ClosedWorldDomains()[:sc.Sites]
	jobs := make([]collectJob, 0, datasetJobCount(sc))
	for i, d := range domains {
		p := website.ProfileFor(d)
		for v := 0; v < sc.TracesPerSite; v++ {
			jobs = append(jobs, collectJob{profile: p, label: i, visit: v, slot: len(jobs)})
		}
	}
	for k := 0; k < sc.OpenWorld; k++ {
		jobs = append(jobs, collectJob{
			profile: website.OpenWorldProfile(k),
			label:   sc.NonSensitiveLabel(),
			visit:   0,
			slot:    len(jobs),
		})
	}
	return jobs
}

// collectDataset is the uncached collection path: workers record straight
// into a columnar trace.Store arena (one contiguous value block, no
// per-trace slices). With a spill plan the arena is a bounded window
// flushed to an mmap-backed shard file chunk by chunk, so resident value
// memory never exceeds the window no matter the dataset size; the job
// stream, seeds, and trace bytes are identical either way. It reports the
// total slot-held compute time alongside the dataset; parent (may be nil)
// is the span sampled per-trace spans attach to.
func collectDataset(scn Scenario, sc Scale, parent *obs.Span, plan *spillPlan) (*trace.Store, int64, error) {
	if err := sc.Validate(); err != nil {
		return nil, 0, err
	}
	if err := scn.normalize(); err != nil {
		return nil, 0, err
	}
	jobs := datasetJobs(sc)
	stride := scn.traceCapacity()
	classes := sc.Sites
	if sc.OpenWorld > 0 {
		classes++
	}
	newRun := func() func(collectJob, []float64) (trace.Trace, error) {
		arena := &kernel.Machine{}
		return func(j collectJob, dst []float64) (trace.Trace, error) {
			return collectOne(arena, scn, j.profile, j.label, j.visit, sc.Seed, dst)
		}
	}

	var (
		st   *trace.Store
		busy int64
	)
	if plan != nil {
		sb, err := trace.NewSpillBuilder(plan.path, len(jobs), stride, plan.windowRows)
		if err != nil {
			return nil, 0, fmt.Errorf("core: collect %q: spill: %w", scn.Name, err)
		}
		defer sb.Abort()
		window := sb.WindowRows()
		for lo := 0; lo < len(jobs); lo += window {
			hi := min(lo+window, len(jobs))
			if err := sb.Advance(lo, hi); err != nil {
				return nil, busy, fmt.Errorf("core: collect %q: spill: %w", scn.Name, err)
			}
			b, err := runCollectJobs(scn.Name, jobs[lo:hi], sc.Parallelism, parent, sb, newRun)
			busy += b
			if err != nil {
				return nil, busy, err
			}
		}
		cDSSpills.Inc()
		obs.Eventf("dscache_spill", "core: collected %q to shard file %s (%d traces, window %d)",
			scn.Name, plan.path, len(jobs), window)
		st, err = sb.Seal(classes)
		if err != nil {
			return nil, busy, fmt.Errorf("core: collect %q: %w; refusing to trim dataset to zero length", scn.Name, err)
		}
	} else {
		b := trace.NewBuilder(len(jobs), stride)
		busyNS, err := runCollectJobs(scn.Name, jobs, sc.Parallelism, parent, b, newRun)
		busy = busyNS
		if err != nil {
			return nil, busy, err
		}
		// Seal trims traces to the shortest length at read time (jittered
		// timers can differ by a sample or two) and refuses a degenerate
		// zero-sample trace rather than truncating the dataset to nothing.
		st, err = b.Seal(classes)
		if err != nil {
			return nil, busy, fmt.Errorf("core: collect %q: %w; refusing to trim dataset to zero length", scn.Name, err)
		}
	}

	trimmed := st.TrimmedSamples()
	cTrimmed.Add(int64(trimmed))
	// Heavy trimming means the shortest trace diverged from the rest and
	// the whole dataset was cut down to it — worth a warning, since it
	// quietly discards signal from every other trace.
	if total := st.Len()*st.TraceLen() + trimmed; trimmed*100 > total {
		obs.Warnf("collect %q: trimmed %d of %d samples (%.1f%%) equalizing trace lengths",
			scn.Name, trimmed, total, 100*float64(trimmed)/float64(total))
	}
	return st, busy, nil
}
