package dist

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Benchmark pacing. The legs use a stub cell runner that sleeps cellPace
// instead of simulating traces: the point of BENCH_dist.json is the
// dispatcher's scaling behaviour (queueing, lane pairing, wire round
// trips), and a paced stub measures exactly that even on a single-CPU
// host where real cells could not physically run 4× faster. A real cell
// at small scale takes hundreds of milliseconds, so 25 ms understates —
// not inflates — how thoroughly cell cost dominates dispatch overhead.
const (
	benchCells = 16
	cellPace   = 25 * time.Millisecond
)

func benchGrid() []core.CellSpec {
	specs := make([]core.CellSpec, benchCells)
	for i := range specs {
		specs[i] = stubSpec(fmt.Sprintf("bench/cell-%02d", i))
	}
	return specs
}

// BenchmarkDistGridPaced dispatches a 16-cell grid over 1, 2, and 4 paced
// workers. Ideal scaling halves wall clock per doubling (400 ms → 200 ms
// → 100 ms); the gap to ideal is pure dispatcher overhead.
func BenchmarkDistGridPaced(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("paced25ms/workers=%d", workers), func(b *testing.B) {
			co, err := NewCoordinator("127.0.0.1:0", Config{})
			if err != nil {
				b.Fatalf("coordinator: %v", err)
			}
			wait := StartInProcWorkers(co.Addr(), workers, WorkerOptions{
				Name: "bench", Run: stubRun(cellPace),
			})
			waitForB(b, 5*time.Second, func() bool {
				return co.Stats().Workers == int64(workers)
			})
			specs := benchGrid()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := co.RunCells(specs, 0)
				if err != nil {
					b.Fatalf("run: %v", err)
				}
				if len(rs) != benchCells {
					b.Fatalf("got %d results", len(rs))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(benchCells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			if err := co.Shutdown(5 * time.Second); err != nil {
				b.Fatalf("shutdown: %v", err)
			}
			if err := wait(); err != nil {
				b.Fatalf("workers: %v", err)
			}
		})
	}
}

// BenchmarkDistWorkerChurn runs the grid while one "worker" joins, takes a
// cell, and dies holding it — the retry path under churn. Completion and
// the retry count are part of the measured work.
func BenchmarkDistWorkerChurn(b *testing.B) {
	b.Run("paced25ms/workers=2+kill", func(b *testing.B) {
		var retries int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			co, err := NewCoordinator("127.0.0.1:0", Config{
				MaxAttempts: 5, RetryBackoff: 5 * time.Millisecond,
			})
			if err != nil {
				b.Fatalf("coordinator: %v", err)
			}
			evilDone := make(chan struct{})
			go func() {
				defer close(evilDone)
				evilWorkerB(b, co.Addr())
			}()
			waitForB(b, 5*time.Second, func() bool {
				return co.Stats().Workers == 1
			})
			wait := StartInProcWorkers(co.Addr(), 2, WorkerOptions{
				Name: "bench", Run: stubRun(cellPace),
			})
			specs := benchGrid()
			b.StartTimer()
			rs, err := co.RunCells(specs, 0)
			if err != nil {
				b.Fatalf("run: %v", err)
			}
			b.StopTimer()
			if len(rs) != benchCells {
				b.Fatalf("got %d results", len(rs))
			}
			retries += co.Stats().Retries
			if err := co.Shutdown(5 * time.Second); err != nil {
				b.Fatalf("shutdown: %v", err)
			}
			if err := wait(); err != nil {
				b.Fatalf("workers: %v", err)
			}
			<-evilDone
			b.StartTimer()
		}
		b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
	})
}

// evilWorkerB mirrors dist_test.go's evilWorker for benchmarks: join,
// advertise a lane, accept one assignment, die holding it.
func evilWorkerB(b *testing.B, addr string) {
	c, err := dialRetry(addr, 2*time.Second)
	if err != nil {
		b.Errorf("evil dial: %v", err)
		return
	}
	defer c.Close()
	var buf []byte
	buf = AppendHello(buf, "evil")
	buf = AppendReady(buf)
	if _, err := c.Write(buf); err != nil {
		b.Errorf("evil hello: %v", err)
		return
	}
	if _, err := wire.NewReader(c, maxFrame).Next(); err != nil {
		return // coordinator shut down first; fine
	}
}

func waitForB(b *testing.B, timeout time.Duration, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
