package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/website"
)

// sharedRun adapts a plain job function to runCollectJobs' per-worker
// factory shape for tests that need no per-worker state (nor an arena dst).
func sharedRun(run func(collectJob) (trace.Trace, error)) func() func(collectJob, []float64) (trace.Trace, error) {
	return func() func(collectJob, []float64) (trace.Trace, error) {
		return func(j collectJob, _ []float64) (trace.Trace, error) { return run(j) }
	}
}

func makeCollectJobs(n int) []collectJob {
	jobs := make([]collectJob, n)
	for i := range jobs {
		jobs[i] = collectJob{
			profile: website.ProfileFor(website.ClosedWorldDomains()[i%4]),
			label:   i % 4,
			visit:   i / 4,
			slot:    i,
		}
	}
	return jobs
}

func TestRunCollectJobsSuccess(t *testing.T) {
	jobs := makeCollectJobs(20)
	b := trace.NewBuilder(len(jobs), 1)
	_, err := runCollectJobs("ok", jobs, 4, nil, b, sharedRun(func(j collectJob) (trace.Trace, error) {
		return trace.Trace{Label: j.label, Domain: j.profile.Domain, Values: []float64{float64(j.slot)}}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Seal(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.Len(); i++ {
		if v := st.Values(i); len(v) != 1 || v[0] != float64(i) || st.Label(i) != jobs[i].label {
			t.Fatalf("slot %d holds wrong trace: %v label %d", i, v, st.Label(i))
		}
	}
}

func TestRunCollectJobsFailFast(t *testing.T) {
	jobs := makeCollectJobs(200)
	boom := errors.New("simulated machine wedged")
	var calls atomic.Int64
	_, err := runCollectJobs("broken-scn", jobs, 4, nil, trace.NewBuilder(len(jobs), 1), sharedRun(func(j collectJob) (trace.Trace, error) {
		calls.Add(1)
		if j.slot == 0 {
			return trace.Trace{}, boom
		}
		// Slow the healthy jobs slightly so cancellation observably
		// outruns the queue.
		time.Sleep(time.Millisecond)
		return trace.Trace{Label: j.label, Values: []float64{1}}, nil
	}))
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error does not wrap the cause: %v", err)
	}
	for _, want := range []string{"broken-scn", jobs[0].profile.Domain, "visit 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing context %q", err, want)
		}
	}
	if n := calls.Load(); n >= int64(len(jobs)) {
		t.Errorf("fail-fast ran all %d jobs; expected cancellation to skip most", n)
	}
}

func TestRunCollectJobsFirstErrorWins(t *testing.T) {
	// Every job fails; the reported error must be one of the jobs' errors,
	// fully wrapped, and the run must terminate.
	jobs := makeCollectJobs(50)
	_, err := runCollectJobs("all-fail", jobs, 8, nil, trace.NewBuilder(len(jobs), 1), sharedRun(func(j collectJob) (trace.Trace, error) {
		return trace.Trace{}, errors.New("nope")
	}))
	if err == nil || !strings.Contains(err.Error(), "all-fail") {
		t.Fatalf("want wrapped error, got %v", err)
	}
}
