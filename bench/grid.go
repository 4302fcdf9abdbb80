package main

import (
	"errors"
	"fmt"
	"regexp"
	"time"
)

// Cell subsets of cmd/experiments at -scale small. gridOnly is every
// figure plus the background-noise table: nearly all of its CPU time is
// simulation, it runs in about 4 s on a 2-vCPU host so a measuring window
// holds several repetitions, and it covers the interrupt, eBPF and
// cache-sweep paths. distOnly is the part of it that cmd/experiments
// dispatches as cells: the table's two experiment cells and Figure 4's six
// mean-trace cells. The probes are the set-up: Figure 7 simulates
// nothing, so its invocation time is process start-up; Figure 4 is the
// smallest dispatched batch, so a distributed run of it is cluster
// start-up.
const (
	gridOnly      = "bg,f3,f4,f5,f6,f7,f8"
	distOnly      = "bg,f4"
	gridProbeOnly = "f7"
	distProbeOnly = "f4"
)

var reCoordinator = regexp.MustCompile(`coordinator listening on (\S+)`)

// gridCold is the offline flow from an empty dataset cache: every
// operation is a fresh cmd/experiments process.
func gridCold(e *env) (*outcome, error) {
	var setup []float64
	for i := 0; i < 5; i++ {
		out := e.path("probe-%d", i)
		stdout, u, err := e.run("experiments", e.experimentsArgs(gridProbeOnly, out)...)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := e.checkOutput("grid-cold/probe", stdout, out); err != nil {
			e.fail("set-up: %v", err)
		}
		setup = append(setup, u.wall.Seconds())
	}
	var plain, traced opSamples
	layers := layerSamples{}
	attempted, failed := e.timed(func(i int) error {
		out, obsDir := e.path("op-%d", i), e.path("op-%d-obs", i)
		tr := e.trace && i%2 == 0
		args := e.experimentsArgs(gridOnly, out)
		if tr {
			args = append(args, "-manifest", "run.json", "-outdir", obsDir)
		}
		stdout, u, err := e.run("experiments", args...)
		if err != nil {
			return err
		}
		if !tr {
			plain.add(u)
			return e.checkOutput("grid-cold/op", stdout, out)
		}
		traced.add(u)
		if err := e.checkOutput("grid-cold/op", stdout, out); err != nil {
			return err
		}
		var t tally
		if err := e.addManifest(&t, "grid-cold", obsDir, u.wall, 0); err != nil {
			return err
		}
		layers.add(t.metrics())
		return nil
	})
	return e.finish(attempted, failed, &plain, &traced, layers, setup), nil
}

// gridDist runs the dispatched cells through a coordinator and two
// single-lane worker processes. It shares grid-cold's collect layer but
// adds dispatch and the wire.
func gridDist(e *env) (*outcome, error) {
	var setup []float64
	for i := 0; i < 5; i++ {
		out := e.path("probe-%d", i)
		stdout, u, err := e.distOp(distProbeOnly, out)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := e.checkOutput("grid-dist/probe", stdout, out); err != nil {
			e.fail("set-up: %v", err)
		}
		setup = append(setup, u.wall.Seconds())
	}
	// The same cells run in one local process are the reference every
	// distributed run must reproduce byte for byte.
	out := e.path("local")
	stdout, _, err := e.run("experiments", e.experimentsArgs(distOnly, out)...)
	if err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	if err := e.checkOutput("grid-dist/op", stdout, out); err != nil {
		e.fail("local reference: %v", err)
	}
	var plain, traced opSamples
	layers := layerSamples{}
	attempted, failed := e.timed(func(i int) error {
		out, obsDir := e.path("op-%d", i), e.path("op-%d-obs", i)
		tr := e.trace && i%2 == 0
		var extra []string
		if tr {
			extra = []string{"-manifest", "run.json", "-outdir", obsDir}
		}
		stdout, u, err := e.distOp(distOnly, out, extra...)
		if err != nil {
			return err
		}
		if !tr {
			plain.add(u)
			return e.checkOutput("grid-dist/op", stdout, out)
		}
		traced.add(u)
		if err := e.checkOutput("grid-dist/op", stdout, out); err != nil {
			return err
		}
		var t tally
		if err := e.addManifest(&t, "grid-dist", obsDir, u.wall, distWorkers); err != nil {
			return err
		}
		layers.add(t.metrics())
		return nil
	})
	return e.finish(attempted, failed, &plain, &traced, layers, setup), nil
}

// distWorkers is the number of single-lane worker processes, so that
// together they use the host's two vCPUs.
const distWorkers = 2

// distOp runs a coordinator and its workers to completion. It returns the
// coordinator's standard output and the cost of all the processes: wall
// time from the coordinator's start until the last has exited, CPU time
// and peak memory summed.
func (e *env) distOp(only, out string, extra ...string) ([]byte, usage, error) {
	args := e.experimentsArgs(only, out, append([]string{"-coordinator", "127.0.0.1:0"}, extra...)...)
	co, addr, err := e.start(reCoordinator, "experiments", args...)
	if err != nil {
		return nil, usage{}, err
	}
	procs := []*proc{co}
	for w := 0; w < distWorkers && err == nil; w++ {
		var p *proc
		p, _, err = e.start(nil, "experiments", "-worker", addr, "-lanes", "1")
		if err == nil {
			procs = append(procs, p)
		}
	}
	if err != nil {
		co.cmd.Process.Kill() // the workers then lose their coordinator and exit
	}
	var total usage
	for _, p := range procs {
		u, werr := p.wait()
		err = errors.Join(err, werr)
		total.cpu += u.cpu
		total.rssMB += u.rssMB
	}
	total.wall = time.Since(co.start)
	return co.stdout.Bytes(), total, err
}

// addManifest reads the run manifest a traced invocation wrote under
// obsDir, checks its cell accuracies under key, and adds it to t.
func (e *env) addManifest(t *tally, key, obsDir string, wall time.Duration, lanes int) error {
	m, err := readManifest(obsDir + "/run.json")
	if err != nil {
		return err
	}
	if err := e.checkCells(key, m); err != nil {
		return err
	}
	t.add(m, wall, lanes)
	return nil
}

// finish turns a command workload's samples into its outcome.
func (e *env) finish(attempted, failed int, plain, traced *opSamples, layers layerSamples, setup []float64) *outcome {
	o := &outcome{attempted: attempted, failed: failed}
	if e.trace {
		o.layers = layers.medians()
		o.layers["obs.overhead_pct"] = overheadPct(traced, plain)
		o.layers["proc.cpu_ms_per_op"] = median(traced.cpu)
	} else {
		o.e2e = plain.e2e(setup)
	}
	return o
}
