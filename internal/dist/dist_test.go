package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// testGrid is a representative slice of the table grids: two browsers ×
// two attacks, a Python/randomized-timer cell, and an open-world cell,
// all at a tiny scale with short traces so the test stays fast.
func testGrid() []core.CellSpec {
	sc := core.Scale{Sites: 3, TracesPerSite: 2, Folds: 2, Seed: 7}
	var specs []core.CellSpec
	for _, b := range []string{"chrome", "firefox"} {
		for _, a := range []string{"loop", "sweep"} {
			specs = append(specs, core.CellSpec{
				Scenario: core.ScenarioSpec{
					Name: fmt.Sprintf("grid/%s/%s", b, a), OS: "linux",
					Browser: b, Attack: a, TraceDurationS: 2,
				},
				Scale: sc,
			})
		}
	}
	specs = append(specs, core.CellSpec{
		Scenario: core.ScenarioSpec{
			Name: "grid/python-randomized", OS: "linux", Browser: "chrome",
			Attack: "loop", Variant: "python", Timer: "randomized",
			PeriodMS: 5, TraceDurationS: 2,
		},
		Scale: sc,
	})
	open := sc
	open.OpenWorld = 2
	specs = append(specs, core.CellSpec{
		Scenario: core.ScenarioSpec{
			Name: "grid/open-world", OS: "linux", Browser: "chrome",
			Attack: "loop", TraceDurationS: 2,
		},
		Scale: open,
	})
	return specs
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// normalizeRow zeroes a manifest row's host- and timing-dependent fields,
// leaving the result-defining ones for comparison.
func normalizeRow(c obs.CellSummary) obs.CellSummary {
	c.Source = ""
	c.WallMS = 0
	c.CPUMS = 0
	c.Cached = false
	return c
}

// StartInProcWorkers launches n workers inside this process — the
// multi-worker test mode. Workers are named name+index ("w1", "w2", ...
// when opt.Name is empty). The returned wait function blocks until every
// worker exits and reports the first error.
func StartInProcWorkers(addr string, n int, opt WorkerOptions) (wait func() error) {
	base := opt.Name
	if base == "" {
		base = "w"
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := opt
		o.Name = fmt.Sprintf("%s%d", base, i+1)
		wg.Add(1)
		go func(i int, o WorkerOptions) {
			defer wg.Done()
			errs[i] = RunWorker(addr, o)
		}(i, o)
	}
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// TestDistManifestEquivalence is the acceptance gate: a coordinator with
// two in-process workers must produce bit-identical per-cell results and
// the same manifest cell-row set (modulo host/timing fields) as a
// single-process run of the same grid.
func TestDistManifestEquivalence(t *testing.T) {
	grid := testGrid()
	local, err := core.Runner{}.RunCells(grid, 0)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	co, err := NewCoordinator("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wait := StartInProcWorkers(co.Addr(), 2, WorkerOptions{
		Run: core.Runner{}.RunCell,
	})
	distributed, err := co.RunCells(grid, 0)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if err := co.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("worker: %v", err)
	}

	if len(distributed) != len(local) {
		t.Fatalf("got %d results, want %d", len(distributed), len(local))
	}
	for i := range local {
		lj, dj := mustJSON(t, local[i].Result), mustJSON(t, distributed[i].Result)
		if lj != dj {
			t.Errorf("cell %q result differs:\nlocal %s\ndist  %s", grid[i].Scenario.Name, lj, dj)
		}
	}

	// Manifest rows: the aggregator's merged cell table must carry the
	// same set as the local run's summaries.
	sources := co.Aggregator().Sources()
	if len(sources) != 2 {
		t.Fatalf("aggregator sources = %v, want 2 workers", sources)
	}
	var localRows []obs.CellSummary
	for _, r := range local {
		if r.Summary == nil {
			t.Fatal("local result without summary")
		}
		localRows = append(localRows, normalizeRow(*r.Summary))
	}
	sort.Slice(localRows, func(i, j int) bool { return localRows[i].Scenario < localRows[j].Scenario })
	merged := co.Aggregator().MergedCells()
	if len(merged) != len(localRows) {
		t.Fatalf("merged manifest has %d rows, want %d (%v)", len(merged), len(localRows), merged)
	}
	for i := range merged {
		if merged[i].Source == "" {
			t.Errorf("merged row %q missing source", merged[i].Scenario)
		}
		mj, lj := mustJSON(t, normalizeRow(merged[i])), mustJSON(t, localRows[i])
		if mj != lj {
			t.Errorf("manifest row differs:\nlocal  %s\nmerged %s", lj, mj)
		}
	}
	if s := co.Stats(); s.Completed != int64(len(grid)) || s.WorkersSeen != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// stubSpec is a valid, never-executed spec for stub-run dispatch tests.
func stubSpec(name string) core.CellSpec {
	return core.CellSpec{
		Scenario: core.ScenarioSpec{Name: name, OS: "linux", Browser: "chrome", Attack: "loop"},
		Scale:    core.Scale{Sites: 2, TracesPerSite: 1, Folds: 2, Seed: 1},
	}
}

// stubRun returns a canned result without touching the simulator.
func stubRun(delay time.Duration) func(core.CellSpec) (core.CellResult, error) {
	return func(spec core.CellSpec) (core.CellResult, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return core.CellResult{Summary: &obs.CellSummary{Scenario: spec.Scenario.Name}}, nil
	}
}

// evilWorker joins, advertises a lane, accepts one assignment, and drops
// the connection — a worker dying mid-cell.
func evilWorker(t *testing.T, addr string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("evil dial: %v", err)
		return
	}
	defer c.Close()
	var buf []byte
	buf = AppendHello(buf, "evil")
	buf = AppendReady(buf)
	if _, err := c.Write(buf); err != nil {
		t.Errorf("evil hello: %v", err)
		return
	}
	p, err := wire.NewReader(c, maxFrame).Next()
	if err != nil {
		return // coordinator shut down first; fine
	}
	if m, err := DecodeMsg(p); err != nil || m.Kind != msgCell {
		t.Errorf("evil expected cell, got %+v (%v)", m, err)
	}
	// Die holding the cell.
}

func TestWorkerDeathRetry(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	co, err := NewCoordinator("127.0.0.1:0", Config{
		MaxAttempts: 3, RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	evilDone := make(chan struct{})
	go func() {
		defer close(evilDone)
		evilWorker(t, co.Addr())
	}()
	// Let the evil worker's lane register first so it receives the first
	// assignment.
	waitFor(t, time.Second, func() bool { return co.Stats().Workers == 1 })
	wait := StartInProcWorkers(co.Addr(), 1, WorkerOptions{
		Name: "good", Run: stubRun(0),
	})
	specs := []core.CellSpec{stubSpec("kill/a"), stubSpec("kill/b"), stubSpec("kill/c")}
	results, err := co.RunCells(specs, 0)
	if err != nil {
		t.Fatalf("run with dying worker: %v", err)
	}
	for i, r := range results {
		if r.Summary == nil || r.Summary.Scenario != specs[i].Scenario.Name {
			t.Errorf("result %d = %+v", i, r)
		}
	}
	s := co.Stats()
	if s.Retries < 1 {
		t.Errorf("stats = %+v, want at least one retry", s)
	}
	if s.Completed != int64(len(specs)) {
		t.Errorf("completed = %d, want %d", s.Completed, len(specs))
	}
	if err := co.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("worker: %v", err)
	}
	<-evilDone

	kinds := map[string]bool{}
	for _, e := range obs.DefaultEvents.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"worker_join", "worker_leave", "dist_retry"} {
		if !kinds[want] {
			t.Errorf("flight recorder missing %q event (have %v)", want, kinds)
		}
	}
}

func TestDeadlineShed(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	release := make(chan struct{})
	hung := make(chan struct{}, 1)
	co, err := NewCoordinator("127.0.0.1:0", Config{
		Deadline: 100 * time.Millisecond, MaxAttempts: 4,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// The slow worker hangs on its first cell until released.
	waitSlow := StartInProcWorkers(co.Addr(), 1, WorkerOptions{
		Name: "slow",
		Run: func(spec core.CellSpec) (core.CellResult, error) {
			select {
			case hung <- struct{}{}:
				<-release
			default:
			}
			return stubRun(0)(spec)
		},
	})
	waitFor(t, time.Second, func() bool { return co.Stats().Workers == 1 })
	done := make(chan struct{})
	var results []core.CellResult
	var runErr error
	go func() {
		defer close(done)
		results, runErr = co.RunCells([]core.CellSpec{stubSpec("shed/a")}, 0)
	}()
	<-hung // the cell is wedged on the slow worker
	waitFast := StartInProcWorkers(co.Addr(), 1, WorkerOptions{
		Name: "fast", Run: stubRun(0),
	})
	<-done
	if runErr != nil {
		t.Fatalf("run with hung worker: %v", runErr)
	}
	if len(results) != 1 || results[0].Summary == nil {
		t.Fatalf("results = %+v", results)
	}
	if s := co.Stats(); s.DeadlineSheds < 1 {
		t.Errorf("stats = %+v, want a deadline shed", s)
	}
	close(release) // the slow worker answers late; coordinator drops it
	if err := co.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := waitSlow(); err != nil {
		t.Fatalf("slow worker: %v", err)
	}
	if err := waitFast(); err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	kinds := map[string]bool{}
	for _, e := range obs.DefaultEvents.Events() {
		kinds[e.Kind] = true
	}
	if !kinds["dist_deadline_shed"] {
		t.Errorf("flight recorder missing dist_deadline_shed (have %v)", kinds)
	}
}

// TestWorkerRejectsMalformedCell covers the worker-side validation gate: a
// cell that fails ParseCellSpec/Validate is answered with an error, which
// fails the batch without killing the worker.
func TestWorkerRejectsMalformedCell(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0", Config{MaxAttempts: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wait := StartInProcWorkers(co.Addr(), 1, WorkerOptions{
		Run: stubRun(0),
	})
	bad := stubSpec("bad/timer")
	bad.Scenario.Timer = "quantized" // missing Δ argument
	if _, err := co.RunCells([]core.CellSpec{bad}, 0); err == nil {
		t.Fatal("malformed cell did not fail the batch")
	}
	// The worker survives and serves the next batch.
	good, err := co.RunCells([]core.CellSpec{stubSpec("good/after")}, 0)
	if err != nil {
		t.Fatalf("batch after rejection: %v", err)
	}
	if len(good) != 1 || good[0].Summary == nil {
		t.Fatalf("results = %+v", good)
	}
	if err := co.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// TestRunCellsBeforeWorkers verifies pull dispatch: a batch submitted with
// no workers connected queues until lanes appear.
func TestRunCellsBeforeWorkers(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	done := make(chan struct{})
	var results []core.CellResult
	var runErr error
	go func() {
		defer close(done)
		results, runErr = co.RunCells([]core.CellSpec{stubSpec("late/a"), stubSpec("late/b")}, 0)
	}()
	time.Sleep(50 * time.Millisecond) // batch queued, nobody to run it
	wait := StartInProcWorkers(co.Addr(), 1, WorkerOptions{
		Lanes: 2, Run: stubRun(time.Millisecond),
	})
	<-done
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	if err := co.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := wait(); err != nil {
		t.Fatalf("worker: %v", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
