package main

import (
	"testing"
	"time"
)

// TestWorkloadsReportEveryMetric runs every workload for a one-second
// window, untraced and traced, with seed 1, so the pinned outputs are
// checked too. It takes about a minute on a 2-vCPU host.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads end to end")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rec, err := run(options{root: "..", workload: w, seed: 1, seconds: time.Second, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %q",
					w, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(rec.Metrics), len(want))
			}
		}
	}
}
