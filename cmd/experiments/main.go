// Command experiments regenerates every table and figure from the paper at
// a selectable scale and prints the rows the paper reports. With -out it
// also writes CSV files suitable for plotting.
//
// Usage:
//
//	experiments [-scale small|medium|full] [-only t1,t2,f3,...] [-out dir]
//	            [-md report.md] [-seed N] [-clf centroid|knn|logreg|cnn]
//	            [-obs] [-progress 2s] [-manifest run.json] [-httpaddr :0]
//	            [-outdir dir] [-cpuprofile f] [-memprofile f]
//	            [-coordinator :port [-celldeadline 5m]]
//	            [-worker host:port [-workername w1] [-lanes N]]
//
// The paper's full scale (100 sites × 100 traces + 5000 open world) takes
// hours; "small" runs in about a minute and preserves every qualitative
// shape. EXPERIMENTS.md records the calibrated comparisons.
//
// -obs turns on the observability layer (internal/obs): pipeline metrics,
// span tracing, and warnings. -progress, -manifest, and -httpaddr each
// imply -obs. Relative manifest/metrics/profile paths resolve under
// -outdir when set, so one directory collects every run artifact; the
// manifest is written on failure too, recording how far the run got.
//
// -coordinator runs the same tables and figures but shards every
// experiment cell over worker replicas (internal/dist) instead of running
// them in-process; start replicas with -worker pointing at the
// coordinator's address. The coordinator's manifest merges the workers'
// per-cell rows and metrics, and EXPERIMENTS.md's "Distributed runs"
// section walks through a multi-worker setup.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/stats"
)

func main() {
	os.Exit(run())
}

// run holds main's body so profile-writing defers survive the error paths
// (os.Exit would skip them).
func run() int {
	scale := flag.String("scale", "small", "experiment scale: small, medium, or full")
	only := flag.String("only", "", "comma-separated subset: t1,t2,t3,t4,bg,f3,f4,f5,f6,f7,f8")
	outDir := flag.String("out", "", "directory for CSV output (optional)")
	mdPath := flag.String("md", "", "write a paper-vs-measured markdown report to this file")
	seed := flag.Uint64("seed", 1, "root random seed")
	cells := flag.Int("cells", 0, "max experiment cells in flight (0 = unbounded; compute stays CPU-bounded)")
	dsCacheCap := flag.Int("dscache", 8, "datasets retained by the in-process collection cache (0 disables)")
	dsBudget := flag.Int64("dsbudget", 0, "resident-byte budget for cached datasets (0 = unlimited); overflow spills to -dsspill or evicts")
	dsSpill := flag.String("dsspill", "", "directory for mmap-backed dataset shard spill files (enables the disk cache tier)")
	clf := flag.String("clf", "", "classifier for all experiments: centroid (default), knn, logreg, cnn")
	infer := flag.String("infer", "compiled", "inference engine for trained models: compiled (frozen f32 fast path), int8 (quantized tier, falls back to compiled per model), or reference (f64 training graph)")
	inferPar := flag.Int("inferpar", 0, "intra-op workers for compiled inference GEMMs (0 = GOMAXPROCS); output is identical for every value")
	obsOn := flag.Bool("obs", false, "enable the observability layer (metrics + span tracing)")
	progress := flag.Duration("progress", 0, "live progress-line interval on stderr (implies -obs)")
	manifestPath := flag.String("manifest", "", "write a run-manifest JSON to this file (implies -obs)")
	httpAddr := flag.String("httpaddr", "", "serve /debug/vars and /debug/pprof on this address (implies -obs)")
	obsDir := flag.String("outdir", "", "directory observability artifacts land in: manifest, metrics.json, profiles")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	coordAddr := flag.String("coordinator", "", "shard all experiment cells over worker replicas: listen for them on this address (implies -obs)")
	workerAddr := flag.String("worker", "", "run as a worker replica pulling cells from the coordinator at this address")
	workerName := flag.String("workername", "", "telemetry source name for -worker (default host:pid)")
	lanes := flag.Int("lanes", 1, "concurrent cells per worker replica (-worker)")
	cellDeadline := flag.Duration("celldeadline", 0, "coordinator: per-assignment cell deadline before the cell is requeued elsewhere (0 disables)")
	flag.Parse()
	if *workerAddr != "" && *coordAddr != "" {
		fmt.Fprintln(os.Stderr, "experiments: -worker and -coordinator are mutually exclusive")
		return 2
	}
	core.SetDatasetCacheCapacity(*dsCacheCap)
	core.SetDatasetCacheBudget(*dsBudget)
	core.SetDatasetCacheSpillDir(*dsSpill)

	if err := core.ConfigureClassifier(*clf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if err := core.ConfigureInference(*infer, *inferPar); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *progress > 0 || *manifestPath != "" || *httpAddr != "" || *coordAddr != "" {
		*obsOn = true
	}
	if *obsOn {
		obs.Enable()
	}

	// Observability artifacts share -outdir; relative paths resolve into it.
	resolve := func(p string) string {
		if p == "" || *obsDir == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(*obsDir, p)
	}
	if *obsDir != "" {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	prof, err := obs.StartProfile(resolve(*cpuProfile), resolve(*memProfile))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	if *httpAddr != "" {
		addr, closeDebug, err := obs.ServeDebug(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "obs: debug server on http://%s/debug/vars\n", addr)
		defer closeDebug()
	}

	// Worker replica mode: pull cells from a coordinator until told to
	// drain. Everything configured above — classifier, inference tier,
	// dataset cache, profiles, debug server — applies to the cells this
	// replica runs; scale and step selection come from the coordinator.
	if *workerAddr != "" {
		obs.Enable()
		rep := obs.StartReporter(os.Stderr, *progress, core.ProgressLine)
		err := dist.RunWorker(*workerAddr, dist.WorkerOptions{Name: *workerName, Lanes: *lanes})
		rep.Stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	sc, figRuns, err := scaleFor(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc.CellParallelism = *cells
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// Coordinator mode: every experiment cell is dispatched to worker
	// replicas instead of running here; the dispatcher blocks until the
	// first worker joins, so starting workers late is fine.
	var coord *dist.Coordinator
	progressLine := core.ProgressLine
	if *coordAddr != "" {
		coord, err = dist.NewCoordinator(*coordAddr, dist.Config{Deadline: *cellDeadline})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		core.SetCellDispatcher(coord)
		defer core.SetCellDispatcher(nil)
		fmt.Fprintf(os.Stderr, "dist: coordinator listening on %s\n", coord.Addr())
		progressLine = func() string { return core.ProgressLine() + " | " + coord.StatusLine() }
	}

	start := time.Now()
	rep := obs.StartReporter(os.Stderr, *progress, progressLine)
	// writeObs flushes the run's observability artifacts. It runs on the
	// failure path too: a manifest of a crashed run records how far it got
	// and which cell failed.
	writeObs := func(runErr error) {
		rep.Stop()
		// Drain the coordinator before snapshotting anything: Shutdown
		// sends bye, and workers answer with a final telemetry frame
		// carrying their complete manifest-row set.
		if coord != nil {
			if err := coord.Shutdown(10 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if !*obsOn {
			return
		}
		if *obsDir != "" {
			if err := obs.WriteMetricsFile(filepath.Join(*obsDir, "metrics.json")); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if *manifestPath == "" {
			return
		}
		m := obs.NewManifest("experiments-" + *scale)
		m.Config["scale"] = *scale
		m.Config["seed"] = fmt.Sprint(*seed)
		m.Config["only"] = *only
		m.Config["classifier"] = *clf
		if *clf == "" {
			m.Config["classifier"] = "centroid"
		}
		m.Config["infer"] = *infer
		m.Config["inferpar"] = fmt.Sprint(*inferPar)
		m.Config["cells"] = fmt.Sprint(*cells)
		m.Config["dscache"] = fmt.Sprint(*dsCacheCap)
		m.Config["dsbudget"] = fmt.Sprint(*dsBudget)
		m.Config["dsspill"] = *dsSpill
		if runErr != nil {
			m.Config["error"] = runErr.Error()
		}
		m.Sections = core.ManifestSections(time.Since(start))
		m.Finish(obs.Default, obs.DefaultTracer, start)
		if coord != nil {
			// The coordinator ran no cells itself: merge the workers'
			// per-cell rows and metrics into the run manifest so the merged
			// document matches a single-process run's, plus provenance for
			// which replica ran what.
			agg := coord.Aggregator()
			m.Config["dist.coordinator"] = coord.Addr()
			m.Config["dist.sources"] = strings.Join(agg.Sources(), ",")
			m.Sections["dist"] = coord.Stats()
			m.Metrics = obs.MergeSnapshots(m.Metrics, agg.Merged())
			m.Cells = append(m.Cells, agg.MergedCells()...)
			sort.Slice(m.Cells, func(i, j int) bool {
				if m.Cells[i].Scenario != m.Cells[j].Scenario {
					return m.Cells[i].Scenario < m.Cells[j].Scenario
				}
				return m.Cells[i].Source < m.Cells[j].Source
			})
		}
		path := resolve(*manifestPath)
		if err := m.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Fprintf(os.Stderr, "obs: manifest written to %s\n", path)
	}

	r := runner{sc: sc, figRuns: figRuns, outDir: *outDir, seed: *seed, md: &strings.Builder{}}
	fmt.Fprintf(r.md, "# Reproduction report (scale %s, seed %d)\n", *scale, *seed)
	steps := []struct {
		key string
		fn  func() error
	}{
		{"t1", r.table1}, {"t2", r.table2}, {"t3", r.table3}, {"t4", r.table4},
		{"bg", r.backgroundNoise},
		{"f3", r.figure3}, {"f4", r.figure4}, {"f5", r.figure5},
		{"f6", r.figure6}, {"f7", r.figure7}, {"f8", r.figure8},
	}
	for _, st := range steps {
		if !sel(st.key) {
			continue
		}
		if err := st.fn(); err != nil {
			err = fmt.Errorf("%s: %w", st.key, err)
			fmt.Fprintln(os.Stderr, err)
			writeObs(err)
			return 1
		}
	}
	writeObs(nil)
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(r.md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// scaleFor maps the scale name to dataset sizes and figure run counts.
func scaleFor(name string, seed uint64) (core.Scale, int, error) {
	switch name {
	case "small":
		return core.Scale{Sites: 10, TracesPerSite: 8, OpenWorld: 20, Folds: 4, Seed: seed}, 5, nil
	case "medium":
		return core.Scale{Sites: 30, TracesPerSite: 15, OpenWorld: 100, Folds: 5, Seed: seed}, 20, nil
	case "full":
		return core.Scale{Sites: 100, TracesPerSite: 100, OpenWorld: 5000, Folds: 10, Seed: seed}, 100, nil
	default:
		return core.Scale{}, 0, fmt.Errorf("unknown scale %q (want small, medium, or full)", name)
	}
}

type runner struct {
	sc      core.Scale
	figRuns int
	outDir  string
	seed    uint64
	md      *strings.Builder
}

func (r runner) csv(name string, header []string, rows [][]string) {
	if r.outDir == "" {
		return
	}
	var b strings.Builder
	b.WriteString(strings.Join(header, ",") + "\n")
	for _, row := range rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	path := filepath.Join(r.outDir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
	}
}

func f(v float64) string { return fmt.Sprintf("%.3f", v) }

func (r runner) table1() error {
	fmt.Println("== Table 1: loop-counting vs cache attack across browser × OS ==")
	rows, err := core.Table1(r.sc)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, row := range rows {
		fmt.Println("  " + row.String())
		csv = append(csv, []string{
			row.Config.Browser.String(), row.Config.OS.String(),
			f(row.ClosedLoop.Top1.Mean), f(row.ClosedSweep.Top1.Mean),
			f(row.OpenLoop.Combined.Mean), f(row.OpenSweep.Combined.Mean),
		})
	}
	r.csv("table1.csv", []string{"browser", "os", "closed_loop", "closed_sweep", "open_loop_combined", "open_sweep_combined"}, csv)
	fmt.Fprint(r.md, "\n## Table 1 — closed-world top-1 (%), loop vs cache attack\n\n")
	fmt.Fprintln(r.md, "| browser | os | loop (paper) | loop (ours) | cache (paper) | cache (ours) |")
	fmt.Fprintln(r.md, "|---|---|---|---|---|---|")
	for i, row := range rows {
		ref := core.PaperTable1[i]
		fmt.Fprintf(r.md, "| %s | %s | %.1f | %.1f | %.1f | %.1f |\n",
			ref.Browser, ref.OS, ref.ClosedLoop, row.ClosedLoop.Top1.Mean,
			ref.ClosedCache, row.ClosedSweep.Top1.Mean)
	}
	fmt.Println()
	return nil
}

func (r runner) table2() error {
	fmt.Println("== Table 2: attacks under noise countermeasures ==")
	rows, err := core.Table2(r.sc)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, row := range rows {
		fmt.Println("  " + row.String())
		csv = append(csv, []string{row.Attack.String(), row.Noise, f(row.Result.Top1.Mean)})
	}
	r.csv("table2.csv", []string{"attack", "noise", "top1"}, csv)
	fmt.Fprint(r.md, "\n## Table 2 — accuracy (%) under noise countermeasures\n\n")
	fmt.Fprintln(r.md, "| attack | noise | paper | ours |")
	fmt.Fprintln(r.md, "|---|---|---|---|")
	for _, row := range rows {
		fmt.Fprintf(r.md, "| %s | %s | %.1f | %.1f |\n",
			row.Attack, row.Noise, core.PaperTable2[row.Attack][row.Noise], row.Result.Top1.Mean)
	}
	fmt.Println()
	return nil
}

func (r runner) table3() error {
	fmt.Println("== Table 3: isolation mechanisms (Python attacker) ==")
	rows, err := core.Table3(r.sc)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, row := range rows {
		fmt.Println("  " + row.String())
		csv = append(csv, []string{row.Mechanism, f(row.Result.Top1.Mean), f(row.Result.Top5.Mean)})
	}
	r.csv("table3.csv", []string{"mechanism", "top1", "top5"}, csv)
	fmt.Fprint(r.md, "\n## Table 3 — isolation mechanisms, top-1 (%)\n\n")
	fmt.Fprintln(r.md, "| mechanism | paper | ours |")
	fmt.Fprintln(r.md, "|---|---|---|")
	for i, row := range rows {
		fmt.Fprintf(r.md, "| %s | %.1f | %.1f |\n",
			row.Mechanism, core.PaperTable3[i].Top1, row.Result.Top1.Mean)
	}
	fmt.Println()
	return nil
}

func (r runner) table4() error {
	fmt.Println("== Table 4: timer defenses (Python attacker) ==")
	rows, err := core.Table4(r.sc)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, row := range rows {
		fmt.Println("  " + row.String())
		csv = append(csv, []string{row.Timer, f(row.DeltaMS), f(row.PeriodMS),
			f(row.Result.Top1.Mean), f(row.Result.Top5.Mean)})
	}
	r.csv("table4.csv", []string{"timer", "delta_ms", "period_ms", "top1", "top5"}, csv)
	fmt.Fprint(r.md, "\n## Table 4 — timer defenses, top-1 (%)\n\n")
	fmt.Fprintln(r.md, "| timer | P (ms) | paper | ours |")
	fmt.Fprintln(r.md, "|---|---|---|---|")
	for i, row := range rows {
		fmt.Fprintf(r.md, "| %s | %g | %.1f | %.1f |\n",
			row.Timer, row.PeriodMS, core.PaperTable4[i].Top1, row.Result.Top1.Mean)
	}
	fmt.Println()
	return nil
}

func (r runner) backgroundNoise() error {
	fmt.Println("== §4.2 robustness: background noise (Slack + Spotify) ==")
	res, err := core.BackgroundNoise(r.sc)
	if err != nil {
		return err
	}
	fmt.Println("  " + res.String())
	fmt.Fprintf(r.md, "\n## §4.2 — background-noise robustness\n\npaper 96.6 → 93.4; ours %.1f → %.1f\n",
		res.Quiet.Top1.Mean, res.Noisy.Top1.Mean)
	fmt.Println()
	return nil
}

func (r runner) figure3() error {
	fmt.Println("== Figure 3: example loop-counting traces ==")
	traces, err := core.Figure3(r.seed)
	if err != nil {
		return err
	}
	var csv [][]string
	rows := map[string][]float64{}
	for _, site := range core.FigureSites {
		tr := traces[site]
		fmt.Printf("  %-14s min %.0f max %.0f mean %.0f iterations/period\n",
			site, stats.Min(tr.Values), stats.Max(tr.Values), stats.Mean(tr.Values))
		rows[site] = tr.Values
		for i, v := range tr.Values {
			csv = append(csv, []string{site, f(float64(i) * tr.Period.Seconds()), f(v)})
		}
	}
	fmt.Println()
	fmt.Print(render.HeatMap(rows, core.FigureSites, 72, "0s ──────────────── darker = more interrupt time ─────────────── 15s"))
	r.csv("figure3.csv", []string{"site", "time_s", "iterations"}, csv)
	fmt.Println()
	return nil
}

func (r runner) figure4() error {
	fmt.Println("== Figure 4: loop vs sweep averaged traces (correlation) ==")
	series, err := core.Figure4(r.figRuns, r.seed)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, s := range series {
		fmt.Printf("  %-14s r = %.2f (paper: nytimes 0.87, amazon 0.79, weather 0.94)\n", s.Site, s.Correlation)
		fmt.Print(render.Overlay(s.Loop, s.Sweep, 72, 8))
		for i := range s.Loop {
			csv = append(csv, []string{s.Site, fmt.Sprint(i), f(s.Loop[i]), f(s.Sweep[i])})
		}
	}
	r.csv("figure4.csv", []string{"site", "sample", "loop_norm", "sweep_norm"}, csv)
	fmt.Fprint(r.md, "\n## Figure 4 — loop/sweep trace correlation r\n\n")
	fmt.Fprintln(r.md, "| site | paper | ours |")
	fmt.Fprintln(r.md, "|---|---|---|")
	for _, sr := range series {
		fmt.Fprintf(r.md, "| %s | %.2f | %.2f |\n", sr.Site, core.PaperFigure4Correlations[sr.Site], sr.Correlation)
	}
	fmt.Println()
	return nil
}

func (r runner) figure5() error {
	fmt.Println("== Figure 5: % time in interrupt handlers (non-movable only) ==")
	series, err := core.Figure5(r.figRuns, r.seed)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, s := range series {
		fmt.Printf("  %-14s peak softirq %.2f%%, peak resched %.2f%%\n",
			s.Site, stats.Max(s.SoftirqPct), stats.Max(s.ReschedPct))
		for i := range s.SoftirqPct {
			csv = append(csv, []string{s.Site, f(float64(i) * 0.1), f(s.SoftirqPct[i]), f(s.ReschedPct[i])})
		}
	}
	r.csv("figure5.csv", []string{"site", "time_s", "softirq_pct", "resched_pct"}, csv)
	fmt.Println()
	return nil
}

func (r runner) figure6() error {
	fmt.Println("== Figure 6: gap-length distributions per interrupt type ==")
	res, err := core.Figure6(r.figRuns*2, r.seed)
	if err != nil {
		return err
	}
	fmt.Printf("  gaps explained by interrupts: %.2f%% (paper: >99%%)\n",
		100*res.Attribution.ExplainedFraction())
	var csv [][]string
	for _, ty := range res.Types {
		h := res.Histograms[ty]
		mode := h.Mode()
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		if total > 0 {
			fmt.Printf("  %-16s n=%-6d mode ≈ %.1f µs\n", ty, total, mode)
		}
		for i := range h.Counts {
			csv = append(csv, []string{ty.String(), f(h.BinCenter(i)), fmt.Sprint(h.Counts[i])})
		}
	}
	r.csv("figure6.csv", []string{"type", "gap_us", "count"}, csv)
	fmt.Fprintf(r.md, "\n## Figure 6 / §5.2 — gaps explained by interrupts: paper >%.0f%%, ours %.2f%%\n",
		100*core.PaperGapAttribution, 100*res.Attribution.ExplainedFraction())
	fmt.Println()
	return nil
}

func (r runner) figure7() error {
	fmt.Println("== Figure 7: timer transfer functions ==")
	series := core.Figure7(r.seed)
	var csv [][]string
	for _, s := range series {
		fmt.Printf("  %-11s %d samples\n", s.Timer, len(s.RealMS))
		for i := range s.RealMS {
			csv = append(csv, []string{s.Timer, f(s.RealMS[i]), f(s.ValueMS[i])})
		}
	}
	r.csv("figure7.csv", []string{"timer", "real_ms", "reported_ms"}, csv)
	fmt.Println()
	return nil
}

func (r runner) figure8() error {
	fmt.Println("== Figure 8: durations of one 5 ms attacker loop ==")
	series, err := core.Figure8(200*r.figRuns/5, r.seed)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, s := range series {
		fmt.Printf("  %-11s mean %.2f ms, p5 %.2f, p95 %.2f\n", s.Timer,
			stats.Mean(s.Durations), stats.Percentile(s.Durations, 5), stats.Percentile(s.Durations, 95))
		for _, d := range s.Durations {
			csv = append(csv, []string{s.Timer, f(d)})
		}
	}
	r.csv("figure8.csv", []string{"timer", "duration_ms"}, csv)
	fmt.Println()
	return nil
}
