// Command biggerfish is the attack toolchain CLI: collect trace datasets,
// train and evaluate classifiers, and dump individual traces — the
// reproduction's analogue of the paper's open-sourced trace-collection and
// model-training tools.
//
// Subcommands:
//
//	collect  simulate a labeled dataset and write it to a TRSF shard file
//	eval     cross-validate a classifier on a collected dataset
//	trace    print one site's trace as CSV
//	compare  cross-validate every classifier family on one dataset
//	proc     print a /proc/interrupts statistics trace (§7.1 attack family)
//	sites    list the closed-world domains
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/ml"
	"repro/internal/procattack"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/website"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "proc":
		err = cmdProc(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "sites":
		for _, d := range website.ClosedWorldDomains() {
			fmt.Println(d)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "biggerfish:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: biggerfish <collect|eval|compare|trace|proc|sites> [flags]
run "biggerfish <subcommand> -h" for flags`)
}

// parseBrowser maps a CLI name to a browser preset.
func parseBrowser(name string) (browser.Browser, error) {
	switch strings.ToLower(name) {
	case "chrome":
		return browser.Chrome, nil
	case "firefox":
		return browser.Firefox, nil
	case "safari":
		return browser.Safari, nil
	case "tor":
		return browser.TorBrowser, nil
	default:
		return 0, fmt.Errorf("unknown browser %q (chrome, firefox, safari, tor)", name)
	}
}

// parseOS maps a CLI name to an OS personality.
func parseOS(name string) (kernel.OS, error) {
	switch strings.ToLower(name) {
	case "linux":
		return kernel.Linux, nil
	case "windows":
		return kernel.Windows, nil
	case "macos":
		return kernel.MacOS, nil
	default:
		return 0, fmt.Errorf("unknown OS %q (linux, windows, macos)", name)
	}
}

// buildScenario assembles a Scenario from shared CLI flags.
func buildScenario(name, browserName, osName, attackName, variantName string, isolation string) (core.Scenario, error) {
	b, err := parseBrowser(browserName)
	if err != nil {
		return core.Scenario{}, err
	}
	o, err := parseOS(osName)
	if err != nil {
		return core.Scenario{}, err
	}
	scn := core.Scenario{Name: name, OS: o, Browser: b}
	switch strings.ToLower(attackName) {
	case "loop":
		scn.Attack = core.LoopCounting
	case "sweep":
		scn.Attack = core.SweepCounting
	default:
		return core.Scenario{}, fmt.Errorf("unknown attack %q (loop, sweep)", attackName)
	}
	switch strings.ToLower(variantName) {
	case "js":
		scn.Variant = attack.JS
	case "python":
		scn.Variant = attack.Python
		scn.Timer = func(uint64) clockface.Timer { return clockface.Python() }
	case "rust":
		scn.Variant = attack.Rust
		scn.Timer = func(uint64) clockface.Timer { return clockface.Rust() }
	default:
		return core.Scenario{}, fmt.Errorf("unknown variant %q (js, python, rust)", variantName)
	}
	for _, mech := range strings.Split(isolation, ",") {
		switch strings.TrimSpace(mech) {
		case "":
		case "fixedfreq":
			scn.Isolation.FixedFreqGHz = 2.4
		case "pin":
			scn.Isolation.PinCores = true
		case "noirq":
			scn.Isolation.RemoveIRQs = true
		case "vm":
			scn.Isolation.SeparateVMs = true
		default:
			return core.Scenario{}, fmt.Errorf("unknown isolation %q (fixedfreq, pin, noirq, vm)", mech)
		}
	}
	return scn, nil
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	sites := fs.Int("sites", 20, "number of closed-world sites")
	traces := fs.Int("traces", 10, "traces per site")
	openWorld := fs.Int("open", 0, "number of open-world (non-sensitive) traces")
	browserName := fs.String("browser", "chrome", "browser: chrome, firefox, safari, tor")
	osName := fs.String("os", "linux", "os: linux, windows, macos")
	attackName := fs.String("attack", "loop", "attack: loop, sweep")
	variantName := fs.String("variant", "js", "attacker variant: js, python, rust")
	isolation := fs.String("isolation", "", "comma-separated: fixedfreq,pin,noirq,vm")
	noise := fs.String("noise", "", "countermeasure: interrupt, cache")
	seed := fs.Uint64("seed", 1, "root seed")
	out := fs.String("out", "dataset.trsf", "output TRSF shard file")
	specPath := fs.String("spec", "", "JSON scenario spec file (overrides the scenario flags)")
	_ = fs.Parse(args)

	var scn core.Scenario
	var err error
	if *specPath != "" {
		f, ferr := os.Open(*specPath)
		if ferr != nil {
			return ferr
		}
		spec, perr := core.ParseScenarioSpec(f)
		f.Close()
		if perr != nil {
			return perr
		}
		scn, err = spec.ToScenario()
	} else {
		scn, err = buildScenario("cli-collect", *browserName, *osName, *attackName, *variantName, *isolation)
	}
	if err != nil {
		return err
	}
	switch *noise {
	case "":
	case "interrupt":
		scn.InterruptNoise = true
	case "cache":
		scn.CacheNoise = true
	default:
		return fmt.Errorf("unknown noise %q (interrupt, cache)", *noise)
	}
	sc := core.Scale{Sites: *sites, TracesPerSite: *traces, OpenWorld: *openWorld, Folds: 2, Seed: *seed}
	st, err := core.Runner{}.CollectDataset(scn, sc)
	if err != nil {
		return err
	}
	if err := st.WriteShardFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d traces (%d classes, %d samples each) to %s\n",
		st.Len(), st.NumClasses(), st.TraceLen(), *out)
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	in := fs.String("in", "dataset.trsf", "TRSF shard file from `collect`")
	folds := fs.Int("folds", 5, "cross-validation folds")
	clf := fs.String("classifier", "centroid", "classifier: centroid, aligned, knn, logreg, spectral, cnn-lstm")
	seed := fs.Uint64("seed", 1, "evaluation seed")
	confusions := fs.Int("confusions", 0, "also print the top-N confused site pairs")
	_ = fs.Parse(args)

	st, err := trace.OpenShardFile(*in)
	if err != nil {
		return err
	}
	mk, err := classifierMaker(*clf)
	if err != nil {
		return err
	}
	// Reconstruct a Scale consistent with the stored dataset: open-world
	// datasets carry the extra non-sensitive class.
	sites := st.NumClasses()
	openWorld := 0
	for i := 0; i < st.Len(); i++ {
		if st.Label(i) == st.NumClasses()-1 && strings.HasPrefix(st.Domain(i), "open-world-") {
			openWorld++
		}
	}
	if openWorld > 0 {
		sites--
	}
	sc := core.Scale{Sites: sites, TracesPerSite: 1, OpenWorld: openWorld, Folds: *folds, Seed: *seed}
	res, err := core.Evaluate(st, sc, mk, *in+"/"+*clf)
	if err != nil {
		return err
	}
	fmt.Println(res)
	if *confusions > 0 {
		labels := make([]string, 0, sites)
		seen := map[int]bool{}
		for i := 0; i < st.Len(); i++ {
			if l := st.Label(i); !seen[l] && l < sites {
				seen[l] = true
				for len(labels) <= l {
					labels = append(labels, "")
				}
				labels[l] = st.Domain(i)
			}
		}
		for _, p := range core.TopConfusions(res.Confusion, labels, *confusions) {
			fmt.Printf("  confused %-22s → %-22s ×%d\n", p.True, p.Predicted, p.Count)
		}
	}
	return nil
}

// classifierMaker builds the requested classifier family.
func classifierMaker(name string) (core.ClassifierMaker, error) {
	switch strings.ToLower(name) {
	case "centroid":
		return func(uint64) ml.Classifier {
			return &ml.NearestCentroid{Prep: ml.DefaultPreprocessor}
		}, nil
	case "knn":
		return func(uint64) ml.Classifier {
			return &ml.KNN{K: 5, Prep: ml.DefaultPreprocessor}
		}, nil
	case "logreg":
		return func(seed uint64) ml.Classifier {
			return &ml.LogReg{Prep: ml.DefaultPreprocessor, Epochs: 30, Seed: seed}
		}, nil
	case "aligned":
		return func(uint64) ml.Classifier {
			return &ml.AlignedCentroid{Prep: ml.DefaultPreprocessor, MaxShift: 15}
		}, nil
	case "spectral":
		return func(uint64) ml.Classifier {
			return &ml.SpectralCentroid{Prep: ml.SpectralPreprocessor{TargetLen: 512}}
		}, nil
	case "cnn-lstm":
		return func(seed uint64) ml.Classifier {
			return &ml.CNNLSTM{
				Prep:    ml.Preprocessor{TargetLen: 300, Smooth: 3},
				Filters: 8, Hidden: 16, Dropout: 0.3, Epochs: 20, LR: 0.003, Seed: seed,
			}
		}, nil
	default:
		return nil, fmt.Errorf("unknown classifier %q", name)
	}
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	site := fs.String("site", "nytimes.com", "website to load")
	browserName := fs.String("browser", "chrome", "browser")
	osName := fs.String("os", "linux", "os")
	attackName := fs.String("attack", "loop", "attack: loop, sweep")
	variantName := fs.String("variant", "js", "attacker variant")
	seed := fs.Uint64("seed", 1, "seed")
	_ = fs.Parse(args)

	scn, err := buildScenario("cli-trace", *browserName, *osName, *attackName, *variantName, "")
	if err != nil {
		return err
	}
	tr, err := core.CollectOne(scn, website.ProfileFor(*site), 0, 0, *seed)
	if err != nil {
		return err
	}
	fmt.Println("time_s,counter")
	for i, v := range tr.Values {
		fmt.Printf("%.3f,%g\n", float64(i)*sim.Duration(tr.Period).Seconds(), v)
	}
	return nil
}

func cmdProc(args []string) error {
	fs := flag.NewFlagSet("proc", flag.ExitOnError)
	site := fs.String("site", "nytimes.com", "website to load")
	periodMS := fs.Float64("period", 50, "poll period in ms")
	samples := fs.Int("samples", 200, "number of polls")
	restricted := fs.Bool("restricted", false, "apply the pseudo-file mitigation")
	seed := fs.Uint64("seed", 1, "seed")
	_ = fs.Parse(args)

	m := kernel.NewMachine(kernel.Config{OS: kernel.Linux, Seed: *seed})
	visit := website.ProfileFor(*site).Instantiate(m.RNG().Fork("visit"))
	browser.LoadPage(m, visit, 1.0, sim.Duration(float64(*samples)**periodMS*float64(sim.Millisecond))+sim.Second)

	access := procattack.WorldReadable
	if *restricted {
		access = procattack.Restricted
	}
	tr, err := procattack.Collect(m, access, procattack.Config{
		Period:  sim.Duration(*periodMS * float64(sim.Millisecond)),
		Samples: *samples,
	})
	if err != nil {
		return err
	}
	fmt.Println("time_s,interrupt_delta")
	for i, v := range tr.Values {
		fmt.Printf("%.3f,%g\n", float64(i)**periodMS/1000, v)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("in", "dataset.trsf", "TRSF shard file from `collect`")
	folds := fs.Int("folds", 5, "cross-validation folds")
	seed := fs.Uint64("seed", 1, "evaluation seed")
	withCNN := fs.Bool("cnn", false, "include the (slow) CNN-LSTM")
	_ = fs.Parse(args)

	st, err := trace.OpenShardFile(*in)
	if err != nil {
		return err
	}
	sc := core.Scale{Sites: st.NumClasses(), TracesPerSite: 1, Folds: *folds, Seed: *seed}
	names := []string{"centroid", "aligned", "knn", "logreg", "spectral"}
	if *withCNN {
		names = append(names, "cnn-lstm")
	}
	for _, name := range names {
		mk, err := classifierMaker(name)
		if err != nil {
			return err
		}
		res, err := core.Evaluate(st, sc, mk, name)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s top1 %s top5 %s\n", name, res.Top1, res.Top5)
	}
	return nil
}
