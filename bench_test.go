package biggerfish

// Benchmark harness: one benchmark per paper table and figure (see
// DESIGN.md's per-experiment index), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark regenerates its artifact at a
// reduced scale and reports the headline metric via b.ReportMetric, so
// `go test -bench=. -benchmem` both exercises and summarizes the
// reproduction. cmd/experiments runs the same code at larger scales and
// prints the full rows.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/cache"
	"repro/internal/clockface"
	"repro/internal/core"
	"repro/internal/ebpf"
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/website"
)

// benchScale keeps bench runtime manageable: 8 sites × 6 traces, 3 folds.
var benchScale = core.Scale{Sites: 8, TracesPerSite: 6, Folds: 3, Seed: 99}

// benchRunner runs every benchmark's cells with the default classifier
// and cmd/experiments' default dataset cache, so repeated iterations
// re-evaluate cached datasets as a grid run does.
var benchRunner = core.Runner{Cache: core.NewDatasetCache(8, 0, "")}

func reportAccuracy(b *testing.B, name string, r core.Result) {
	b.ReportMetric(r.Top1.Mean, name+"-top1-%")
}

// BenchmarkTable1 regenerates Table 1: closed- and open-world accuracy per
// browser×OS for loop- vs sweep-counting. The bench covers two
// representative rows (Chrome/Linux and Tor/Linux); cmd/experiments runs
// all eight.
func BenchmarkTable1(b *testing.B) {
	sc := benchScale
	sc.OpenWorld = 12
	for i := 0; i < b.N; i++ {
		for _, cfg := range []core.Table1Config{
			{Browser: browser.Chrome, OS: kernel.Linux},
			{Browser: browser.TorBrowser, OS: kernel.Linux},
		} {
			scn := core.Scenario{
				Name: "bench-t1", OS: cfg.OS, Browser: cfg.Browser,
				Attack: core.LoopCounting,
			}
			res, err := benchRunner.RunExperiment(scn, sc)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.Browser == browser.Chrome {
				reportAccuracy(b, "chrome-loop", res)
			} else {
				reportAccuracy(b, "tor-loop", res)
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2: attack accuracy under no noise,
// cache-sweep noise, and interrupt noise.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchRunner.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Attack == core.LoopCounting && r.Noise == "interrupt" {
				reportAccuracy(b, "loop-inoise", r.Result)
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3's isolation-mechanism ladder.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchRunner.Table3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		reportAccuracy(b, "vm-step", rows[len(rows)-1].Result)
	}
}

// BenchmarkTable4 regenerates Table 4's timer-defense comparison.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchRunner.Table4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		reportAccuracy(b, "randomized", rows[2].Result)
	}
}

// BenchmarkBackgroundNoise regenerates §4.2's robustness experiment: the
// attack with Slack+Spotify running loses only a few points.
func BenchmarkBackgroundNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchRunner.BackgroundNoise(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Quiet.Top1.Mean-res.Noisy.Top1.Mean, "drop-points")
	}
}

// BenchmarkFigure3 regenerates the example loop-counting traces.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces, err := core.Figure3(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(traces) != 3 {
			b.Fatal("missing traces")
		}
	}
}

// BenchmarkFigure4 regenerates the loop/sweep correlation comparison.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := benchRunner.Figure4(6, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].Correlation, "nytimes-r")
	}
}

// BenchmarkFigure5 regenerates the interrupt-time timelines.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := core.Figure5(3, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, v := range series[0].SoftirqPct {
			if v > peak {
				peak = v
			}
		}
		b.ReportMetric(peak, "nytimes-peak-%")
	}
}

// BenchmarkFigure6 regenerates the per-type gap-length distributions.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure6(10, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Attribution.ExplainedFraction(), "explained-%")
	}
}

// BenchmarkFigure7 regenerates the timer transfer-function examples.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := core.Figure7(uint64(i)); len(got) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure8 regenerates the attacker-loop duration distributions.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure8(200, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGapAttribution measures the §5.2 end-to-end eBPF methodology
// (the ">99% of gaps ≥100 ns are interrupts" claim).
func BenchmarkGapAttribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := kernel.NewMachine(kernel.Config{
			OS: kernel.Linux, Seed: uint64(i),
			Isolation: kernel.Isolation{RemoveIRQs: true, PinCores: true},
		})
		m.Attacker().RecordSteals(true)
		tracer := ebpf.Attach(m.Ctl, kernel.AttackerCore, 1<<20)
		visit := website.ProfileFor("nytimes.com").Instantiate(m.RNG().Fork("v"))
		browser.LoadPage(m, visit, 1.0, 5*sim.Second)
		m.Eng.Run(5 * sim.Second)
		gaps := ebpf.ObserveGaps(m.Attacker(), 100)
		a := ebpf.Attribute(gaps, tracer.Buf.Drain())
		b.ReportMetric(100*a.ExplainedFraction(), "explained-%")
	}
}

// BenchmarkAblationCacheModels compares the detailed set-associative LLC
// against the fast occupancy model (DESIGN.md ablation 1–2).
func BenchmarkAblationCacheModels(b *testing.B) {
	geo := cache.Geometry{SizeBytes: 256 * 1024, Ways: 16, LineBytes: 64}
	b.Run("detailed", func(b *testing.B) {
		c, err := cache.NewLLC(geo)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			for v := 0; v < 64; v++ {
				c.Access(1<<32+uint64(i*64+v), cache.OwnerVictim)
			}
			c.Sweep(0)
		}
	})
	b.Run("occupancy", func(b *testing.B) {
		m := cache.NewOccupancyModel(geo)
		for i := 0; i < b.N; i++ {
			m.VictimAccesses(64)
			m.SweepMisses()
		}
	})
}

// BenchmarkAblationClassifiers compares the fast baselines against the
// paper's CNN+LSTM on the same dataset (DESIGN.md ablation 3).
func BenchmarkAblationClassifiers(b *testing.B) {
	scn := core.Scenario{
		Name: "bench-clf", OS: kernel.Linux,
		Browser: browser.Chrome, Attack: core.LoopCounting,
	}
	sc := core.Scale{Sites: 5, TracesPerSite: 8, Folds: 2, Seed: 7}
	ds, err := benchRunner.CollectDataset(scn, sc)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		mk   core.ClassifierMaker
	}{
		{"centroid", func(uint64) ml.Classifier {
			return &ml.NearestCentroid{Prep: ml.DefaultPreprocessor}
		}},
		{"knn", func(uint64) ml.Classifier {
			return &ml.KNN{K: 3, Prep: ml.DefaultPreprocessor}
		}},
		{"logreg", func(seed uint64) ml.Classifier {
			return &ml.LogReg{Prep: ml.DefaultPreprocessor, Epochs: 15, Seed: seed}
		}},
		{"spectral", func(uint64) ml.Classifier {
			return &ml.SpectralCentroid{Prep: ml.SpectralPreprocessor{TargetLen: 512}}
		}},
		{"cnn-lstm", func(seed uint64) ml.Classifier {
			return &ml.CNNLSTM{
				Prep:    ml.Preprocessor{TargetLen: 300, Smooth: 3},
				Filters: 6, Hidden: 8, Dropout: 0.2, Epochs: 10, LR: 0.003, Seed: seed,
			}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Evaluate(ds, sc, c.mk, c.name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Top1.Mean, "top1-%")
			}
		})
	}
}

// BenchmarkAblationSoftirqPolicy compares kernel softirq-placement policies
// (DESIGN.md ablation 4): if deferred softirqs stayed on the raising core,
// removing device IRQs would block far more of the leak.
func BenchmarkAblationSoftirqPolicy(b *testing.B) {
	for _, pol := range []struct {
		name   string
		policy interrupt.SoftirqPolicy
	}{
		{"any-core", interrupt.SoftirqAnyCore},
		{"raising-core", interrupt.SoftirqRaisingCore},
	} {
		b.Run(pol.name, func(b *testing.B) {
			p := pol.policy
			scn := core.Scenario{
				Name: "bench-softirq-" + pol.name, OS: kernel.Linux,
				Browser: browser.Chrome, Attack: core.LoopCounting,
				Isolation:     kernel.Isolation{RemoveIRQs: true, PinCores: true},
				SoftirqPolicy: &p,
			}
			for i := 0; i < b.N; i++ {
				res, err := benchRunner.RunExperiment(scn, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Top1.Mean, "top1-%")
			}
		})
	}
}

// benchTrainData builds a synthetic multi-class dataset of sinusoids for
// training-throughput benchmarks (no simulation cost, pure ML work).
func benchTrainData(n, length, classes int) ([]*ml.Tensor, []int) {
	rng := sim.NewStream(31, "bench-train-data")
	var X []*ml.Tensor
	var y []int
	for i := 0; i < n; i++ {
		c := i % classes
		v := make([]float64, length)
		for t := range v {
			v[t] = math.Sin(float64(t)*(0.03+0.02*float64(c))) + rng.Normal(0, 0.2)
		}
		X = append(X, ml.FromSeries(v))
		y = append(y, c)
	}
	return X, y
}

// BenchmarkTrainPaperNet measures PaperNet training wall-clock, serial vs
// data-parallel. Both legs train bit-identical models (the engine's shard
// structure is independent of worker count); the reported top1-% metric
// must therefore match between legs.
func BenchmarkTrainPaperNet(b *testing.B) {
	const classes = 5
	X, y := benchTrainData(60, 300, classes)
	for _, mode := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				model, err := ml.PaperNet(7, 300, classes, 16, 16, 0.2)
				if err != nil {
					b.Fatal(err)
				}
				err = model.Fit(X, y, nil, nil, ml.FitConfig{
					Epochs: 4, BatchSize: 16, LR: 0.003, Seed: 11,
					Parallelism: mode.par,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = model.AccuracyParallel(X, y, mode.par)
			}
			b.ReportMetric(100*acc, "top1-%")
		})
	}
}

// BenchmarkPredictBatch measures inference throughput on the paper CNN:
// the float64 reference forward pass (sample-parallel) against the frozen
// float32 CompiledModel (fused kernels, intra-op parallel GEMM). SetBytes
// counts raw trace bytes scored, so the MB/s column is end-to-end scoring
// bandwidth; the samples/sec metric is the headline number in
// EXPERIMENTS.md. The compiled leg must report 0 allocs/op.
func BenchmarkPredictBatch(b *testing.B) {
	const classes, length, batch = 5, 300, 64
	X, y := benchTrainData(batch, length, classes)
	model, err := ml.PaperNet(7, length, classes, 16, 16, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	err = model.Fit(X, y, nil, nil, ml.FitConfig{
		Epochs: 2, BatchSize: 16, LR: 0.003, Seed: 11, Parallelism: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	bytesPerOp := int64(batch * length * 8)
	rate := func(b *testing.B) float64 {
		return float64(batch) * float64(b.N) / b.Elapsed().Seconds()
	}
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(bytesPerOp)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model.PredictBatch(X, 0)
		}
		b.ReportMetric(rate(b), "samples/sec")
	})
	b.Run("compiled", func(b *testing.B) {
		cm, err := ml.Compile(model)
		if err != nil {
			b.Fatal(err)
		}
		out := make([][]float64, batch)
		for i := range out {
			out[i] = make([]float64, classes)
		}
		cm.PredictBatchInto(X, 0, out) // warm the scratch arena
		b.ResetTimer()
		b.SetBytes(bytesPerOp)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.PredictBatchInto(X, 0, out)
		}
		b.ReportMetric(rate(b), "samples/sec")
	})
	b.Run("int8", func(b *testing.B) {
		cm, err := ml.Compile(model)
		if err != nil {
			b.Fatal(err)
		}
		qm, err := ml.Quantize(cm, X[:32])
		if err != nil {
			b.Fatal(err)
		}
		out := make([][]float64, batch)
		for i := range out {
			out[i] = make([]float64, classes)
		}
		qm.PredictBatchInto(X, 0, out) // warm the scratch arena
		b.ResetTimer()
		b.SetBytes(bytesPerOp)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qm.PredictBatchInto(X, 0, out)
		}
		b.ReportMetric(rate(b), "samples/sec")
	})
}

// BenchmarkGEMM measures the matmul kernels behind Conv1D and the
// recurrent layers at sizes spanning the cache-block boundaries.
func BenchmarkGEMM(b *testing.B) {
	rng := sim.NewStream(32, "bench-gemm")
	for _, n := range []int{64, 128, 256} {
		a := make([]float64, n*n)
		bb := make([]float64, n*n)
		c := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Uniform(-1, 1)
			bb[i] = rng.Uniform(-1, 1)
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.Run(fmt.Sprintf("NN-%d", n), func(b *testing.B) {
			// 1 byte per FLOP, so the MB/s column doubles as MFLOP/s.
			b.SetBytes(int64(flops))
			for i := 0; i < b.N; i++ {
				ml.GemmNN(n, n, n, a, n, bb, n, c, n, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run(fmt.Sprintf("NT-%d", n), func(b *testing.B) {
			b.SetBytes(int64(flops))
			for i := 0; i < b.N; i++ {
				ml.GemmNT(n, n, n, a, n, bb, n, c, n, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkTraceCollection measures raw simulation throughput for one
// 15-second Chrome trace (the unit of work behind every table).
func BenchmarkTraceCollection(b *testing.B) {
	scn := core.Scenario{
		Name: "bench-collect", OS: kernel.Linux,
		Browser: browser.Chrome, Attack: core.LoopCounting,
	}
	profile := website.ProfileFor("amazon.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CollectOne(scn, profile, 0, i, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackerInnerLoop measures the attacker boundary-stepping cost
// against the jittered Chrome timer (tight inner loop of collection).
func BenchmarkAttackerInnerLoop(b *testing.B) {
	m := kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: 1})
	cfg := attack.Config{
		Timer:   clockface.Chrome(1),
		Period:  5 * sim.Millisecond,
		Samples: 100,
		Variant: attack.JS,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.CollectLoop(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSlotIndexing isolates the Figure-2-faithful
// Trace[t_begin] storage: under the randomized timer, slot indexing
// scrambles sample placement and is a large part of the §6.1 defense;
// sequential storage (an attacker smart enough to ignore reported time)
// recovers some accuracy.
func BenchmarkAblationSlotIndexing(b *testing.B) {
	sc := core.Scale{Sites: 8, TracesPerSite: 6, Folds: 3, Seed: 17}
	for _, mode := range []struct {
		name string
		slot bool
	}{{"slot-indexed-ms", true}, {"sequential", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Bypass the harness's automatic slot detection by
				// collecting manually per trace.
				ds, err := collectRandomizedTimer(sc, mode.slot)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Evaluate(ds, sc, nil, mode.name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Top1.Mean, "top1-%")
			}
		})
	}
}

// collectRandomizedTimer builds a randomized-timer dataset with explicit
// control over the storage mode.
func collectRandomizedTimer(sc core.Scale, slotIndexed bool) (*trace.Store, error) {
	var trs []trace.Trace
	for label, domain := range website.ClosedWorldDomains()[:sc.Sites] {
		profile := website.ProfileFor(domain)
		for v := 0; v < sc.TracesPerSite; v++ {
			m := kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: uint64(label*1000 + v)})
			visit := profile.Instantiate(m.RNG().Fork("v"))
			browser.LoadPage(m, visit, 1.0, 18*sim.Second)
			tm := clockface.NewRandomized(sim.NewStream(uint64(label*1000+v), "t"))
			cfg := attack.Config{
				Timer: tm, Period: 5 * sim.Millisecond, Samples: 1000,
				Variant: attack.Python, SlotIndexed: slotIndexed,
			}
			if slotIndexed {
				// Figure 2's per-millisecond array: 15k slots over 15 s.
				cfg.SlotUnit = sim.Millisecond
				cfg.Samples = 15000
			}
			tr, err := attack.CollectLoop(m, cfg)
			if err != nil {
				return nil, err
			}
			tr.Domain, tr.Label = domain, label
			trs = append(trs, tr)
		}
	}
	// Seal trims every trace to the shortest length.
	stride := 0
	for _, tr := range trs {
		stride = max(stride, len(tr.Values))
	}
	b := trace.NewBuilder(len(trs), stride)
	for i, tr := range trs {
		b.Finish(i, tr)
	}
	return b.Seal(sc.Sites)
}
