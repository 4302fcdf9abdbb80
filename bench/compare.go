package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// minRuns is the fewest runs per side compare accepts for a workload.
const minRuns = 5

// compareMain implements "bench compare A.json... -- B.json...": for each
// workload and metric it prints both sides' median and quartiles and, for
// end-to-end metrics, a verdict on B against A under the metric's bound.
func compareMain(args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json... -- B.json...")
		return 2
	}
	s, err := loadSpec("BENCHMARK.json")
	if err == nil {
		err = compare(os.Stdout, s, args[:sep], args[sep+1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return 0
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a benchmark record (write one with -o)", filepath.Base(p))
		}
		out = append(out, r)
	}
	return out, nil
}

// verdict judges B's median against A's for a metric with a bound:
// unresolved when either side's interquartile range exceeds the bound as
// a share of its median, worse or better when the medians differ by more
// than the bound, the same otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if higherBetter {
		change = -change
	}
	for _, xs := range [][]float64{a, b} {
		q1, q3 := quartiles(xs)
		if ratio(q3-q1, median(xs)) > bound {
			return "unresolved", change
		}
	}
	switch {
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}

func compare(w io.Writer, s *spec, pathsA, pathsB []string) error {
	a, err := readRecords(pathsA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathsB)
	if err != nil {
		return err
	}
	first := a[0]
	for _, r := range append(a[1:], b...) {
		if r.CPU != first.CPU || r.NumCPU != first.NumCPU || r.GoVersion != first.GoVersion {
			return fmt.Errorf("refusing to compare runs from different hosts or toolchains: %q/%d/%s vs %q/%d/%s",
				first.CPU, first.NumCPU, first.GoVersion, r.CPU, r.NumCPU, r.GoVersion)
		}
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	workloadSet := map[string]bool{}
	for side, recs := range [][]record{a, b} {
		for _, r := range recs {
			workloadSet[r.Workload] = true
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				values[side][k] = append(values[side][k], m.Value)
			}
		}
	}
	var names []string
	for n := range workloadSet {
		names = append(names, n)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1–q3\tB median\tB q1–q3\tchange\tverdict\t")
	for _, wl := range names {
		// Per-layer metrics have no bound and so get no verdict.
		for _, m := range append(s.EndToEnd, s.PerLayer...) {
			va, vb := values[0][key{wl, m.Name}], values[1][key{wl, m.Name}]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) < minRuns || len(vb) < minRuns {
				return fmt.Errorf("%s %s: %d and %d runs, want at least %d per side", wl, m.Name, len(va), len(vb), minRuns)
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			v, change := "-", ratio(median(vb)-median(va), median(va))
			if m.Bound > 0 {
				v, change = verdict(va, vb, m.Better == "higher", m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g–%.4g\t%.4g\t%.4g–%.4g\t%+.1f%%\t%s\t\n",
				wl, m.Name, m.Unit, median(va), a1, a3, median(vb), b1, b3, 100*change, v)
		}
	}
	return tw.Flush()
}
