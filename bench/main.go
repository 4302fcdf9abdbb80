// Command bench is the repository benchmark. It builds cmd/experiments,
// cmd/serve and cmd/biggerfish from the checkout, drives them as
// subprocesses through one workload, checks their outputs, and prints
// every metric with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root (bench/run.sh builds this command):
//
//	bench --workload grid-cold|grid-dist|cv-warm|serve-open --seed N
//	      [--seconds 15] [--trace 0|1] [-o record.json]
//	bench compare A.json... -- B.json...
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics read from the commands' run manifests and /debug/vars.
// README.md describes the workloads, the metrics and how to compare runs.
// The benchmark reads /proc and rusage, so it runs on Linux only.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLimit bounds one workload run after the build, so a wedged command
// cannot outlive the benchmark.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -o writes: the result plus the provenance compare needs.
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	CPU       string   `json:"cpu"`
	NumCPU    int      `json:"nproc"`
	GoVersion string   `json:"go"`
	Failures  []string `json:"failures,omitempty"`
	result
}

// options select one workload run.
type options struct {
	root     string // repository root
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

var workloads = map[string]func(*env) (*outcome, error){
	"grid-cold":  gridCold,
	"grid-dist":  gridDist,
	"cv-warm":    cvWarm,
	"serve-open": serveOpen,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: grid-cold, grid-dist, cv-warm or serve-open")
	seed := flag.Uint64("seed", 1, "seed for the commands' -seed, the request corpus and the arrival schedule")
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	out := flag.String("o", "", "also write the result and its provenance to this file")
	flag.Parse()
	if workloads[*workload] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench --workload grid-cold|grid-dist|cv-warm|serve-open --seed N [--seconds S] [--trace 0|1] [-o file]")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rec, err := run(options{root: root, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "bench: check failed:", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %16.6f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// run builds the commands and runs one workload in a fresh work directory.
func run(o options) (*record, error) {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	o.root = root
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"go.mod", "cmd/experiments", "cmd/serve", "cmd/biggerfish"} {
		if _, err := os.Stat(filepath.Join(o.root, p)); err != nil {
			return nil, fmt.Errorf("%s is not the repository root: %w", o.root, err)
		}
	}
	build := filepath.Join(o.root, ".bench_build")
	bin := filepath.Join(build, "bin")
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/experiments", "./cmd/serve", "./cmd/biggerfish")
	cmd.Dir = o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	work, err := os.MkdirTemp(build, "work-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	pins, err := loadPins(filepath.Join(o.root, "bench", "testdata", "pins.json"))
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	e := &env{ctx: ctx, options: o, bin: bin, work: work, pins: pins, seen: map[string]string{}}
	defer e.stopAll()
	out, err := workloads[o.workload](e)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run exceeded %v", runLimit)
	}
	if err != nil {
		return nil, err
	}

	rec := &record{
		Workload: o.workload, Seed: o.seed, Seconds: int(o.seconds / time.Second), Trace: o.trace,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Failures: e.fails,
	}
	rec.Attempted, rec.Failed, rec.Correct = out.attempted, out.failed, len(e.fails) == 0
	// BENCHMARK.json names the metrics and their units. A workload measures
	// every end-to-end metric; a per-layer one it does not exercise reads 0.
	values, defs := out.e2e, spec.EndToEnd
	if o.trace {
		values, defs = out.layers, spec.PerLayer
	}
	rec.Metrics = map[string]metric{}
	for _, d := range defs {
		v := values[d.Name]
		if !o.trace && v <= 0 {
			return nil, fmt.Errorf("%s measured no %s", o.workload, d.Name)
		}
		rec.Metrics[d.Name] = metric{v, d.Unit}
	}
	for name := range values {
		if _, ok := rec.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s measured %s, which BENCHMARK.json does not list", o.workload, name)
		}
	}
	return rec, nil
}

// cpuModel names the host CPU, so compare can refuse mixed hosts.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
