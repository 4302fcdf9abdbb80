package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
)

// benchModel is one frozen model measured by the serving benchmarks, at
// both inference tiers.
type benchModel struct {
	f32  *ml.CompiledModel
	int8 *ml.QuantizedModel
}

func (m *benchModel) tier(name string) ml.Frozen {
	if name == "int8" {
		return m.int8
	}
	return m.f32
}

// benchState shares the frozen models and trace corpus across every
// serving benchmark:
//
//   - logreg100: the paper's logistic-regression head at the full
//     100-site closed world (one dense 300→100 layer). Batch-1 scoring
//     re-streams the whole weight panel per request, so this is the
//     regime where coalescing pays hardest.
//   - papernet: the small CNN+LSTM at 7 classes, where per-trace kernel
//     time dominates and micro-batching has far less headroom.
//
// The traces are three times the model input length, so every request
// exercises the full downsample+smooth+zscore prep.
type benchState struct {
	logreg100 benchModel
	papernet  benchModel
	prep      ml.Preprocessor
	inLen     int
	traces    [][]float64
}

var (
	benchOnce sync.Once
	bench     benchState
	benchErr  error
)

func freezeBench(model *ml.Sequential, calib []*ml.Tensor) (benchModel, error) {
	cm, err := ml.Compile(model)
	if err != nil {
		return benchModel{}, err
	}
	qm, err := ml.Quantize(cm, calib)
	if err != nil {
		return benchModel{}, err
	}
	return benchModel{f32: cm, int8: qm}, nil
}

func serveBenchState(b *testing.B) *benchState {
	benchOnce.Do(func() {
		rng := sim.NewStream(11, "serve-bench")
		traces := make([][]float64, 64)
		for i := range traces {
			xs := make([]float64, 900)
			for j := range xs {
				xs[j] = rng.Uniform(0, 50)
			}
			traces[i] = xs
		}
		prep := ml.DefaultPreprocessor
		calib := make([]*ml.Tensor, 8)
		for i := range calib {
			calib[i] = ml.FromSeries(prep.Apply(traces[i]))
		}

		cnn, err := ml.PaperNet(7, 300, 5, 16, 16, 0.2)
		if err != nil {
			benchErr = err
			return
		}
		papernet, err := freezeBench(cnn, calib)
		if err != nil {
			benchErr = err
			return
		}
		head := &ml.Sequential{Layers: []ml.Layer{ml.NewDense(rng, 300, 100)}}
		logreg100, err := freezeBench(head, calib)
		if err != nil {
			benchErr = err
			return
		}
		bench = benchState{logreg100: logreg100, papernet: papernet,
			prep: prep, inLen: 300, traces: traces}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &bench
}

func (s *benchState) model(name string) *benchModel {
	if name == "papernet" {
		return &s.papernet
	}
	return &s.logreg100
}

// runLeg drives b.N requests through classify from conc closed-loop
// clients, each sending its next request the moment the last one answers,
// and reports req/s plus exact client-observed p50/p99 (nearest rank over
// every request's latency). A failed request fails the benchmark: the
// servers here queue 2×conc, so conc closed-loop clients are never
// refused.
func runLeg(b *testing.B, classify func([]float64) (Result, error), traces [][]float64, conc int) {
	b.Helper()
	// Warm pools, arenas, and scheduler state outside the timer.
	closedLoop(b, classify, traces, conc, 4*conc)
	b.ResetTimer()
	start := time.Now()
	lat := closedLoop(b, classify, traces, conc, b.N)
	elapsed := time.Since(start)
	b.StopTimer()
	sort.Float64s(lat)
	rank := func(q float64) float64 { return lat[int(math.Ceil(q*float64(len(lat))))-1] }
	b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "req/s")
	b.ReportMetric(rank(0.50), "p50-µs")
	b.ReportMetric(rank(0.99), "p99-µs")
}

// closedLoop sends n requests from conc goroutines and returns each
// request's latency in µs.
func closedLoop(b *testing.B, classify func([]float64) (Result, error), traces [][]float64, conc, n int) []float64 {
	lat := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				_, err := classify(traces[i%len(traces)])
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
				if err != nil {
					b.Errorf("request %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.Failed() {
		b.FailNow()
	}
	return lat
}

// BenchmarkServeThroughput measures sustained classifications/sec for the
// admission-controlled micro-batching server against the unbatched server
// (MaxBatch 1: same queue, one-wide scoring) and the naive
// one-request-one-PredictBatch path (naiveClassifier), per model and
// tier. The coalesced and naive legs run back-to-back on the same frozen
// model and trace corpus.
func BenchmarkServeThroughput(b *testing.B) {
	st := serveBenchState(b)
	conc := 256
	for _, model := range []string{"logreg100", "papernet"} {
		bm := st.model(model)
		for _, tier := range []string{"int8", "f32"} {
			frozen := bm.tier(tier)
			b.Run(fmt.Sprintf("%s/coalesced/%s", model, tier), func(b *testing.B) {
				obs.Default.Reset()
				s, err := New(Config{Model: frozen, Prep: st.prep, InputLen: st.inLen,
					QueueDepth: 2 * conc})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Stop()
				runLeg(b, s.Classify, st.traces, conc)
			})
			b.Run(fmt.Sprintf("%s/unbatched/%s", model, tier), func(b *testing.B) {
				obs.Default.Reset()
				s, err := New(Config{Model: frozen, Prep: st.prep, InputLen: st.inLen,
					MaxBatch: 1, QueueDepth: 2 * conc})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Stop()
				runLeg(b, s.Classify, st.traces, conc)
			})
			b.Run(fmt.Sprintf("%s/naive/%s", model, tier), func(b *testing.B) {
				obs.Default.Reset()
				runLeg(b, naiveClassifier(frozen, st.prep, st.inLen), st.traces, conc)
			})
		}
	}
}

// BenchmarkServeLatency measures request latency at low offered load,
// where batches rarely fill: conc=1 is the pure unloaded round-trip,
// conc=32 a lightly contended one.
func BenchmarkServeLatency(b *testing.B) {
	st := serveBenchState(b)
	frozen := st.logreg100.int8
	for _, conc := range []int{1, 32} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			obs.Default.Reset()
			s, err := New(Config{Model: frozen, Prep: st.prep, InputLen: st.inLen,
				QueueDepth: 2 * conc})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			runLeg(b, s.Classify, st.traces, conc)
		})
	}
}
