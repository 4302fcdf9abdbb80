package ml

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// digestOf is an FNV-64a hash over the exact bit patterns of a sequence of
// float64 slices, each prefixed by its length.
func digestOf(blobs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, blob := range blobs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(blob)))
		h.Write(b[:])
		for _, v := range blob {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// fitTrace records a Fit's per-epoch train loss and validation accuracy, so
// a digest pins the loss accumulation order along with the weights.
type fitTrace []float64

func (f *fitTrace) verbose(_ int, loss, valAcc float64) { *f = append(*f, loss, valAcc) }

// weightsDigest hashes a model's exported weights followed by its fit trace.
func weightsDigest(m *Sequential, ft fitTrace) uint64 {
	return digestOf(append(m.ExportWeights().Blobs, ft)...)
}

// mixedLengthSeries builds a 3-class dataset whose series lengths cycle
// through 9, 12 and 15 steps, so minibatch shards mix shapes.
func mixedLengthSeries(n int) ([]*Tensor, []int) {
	rng := sim.NewStream(41, "mixed-len")
	var X []*Tensor
	var y []int
	for i := 0; i < n; i++ {
		c := i % 3
		v := make([]float64, 9+3*((i/3)%3))
		for t := range v {
			v[t] = math.Cos(float64(t)*(0.3+0.25*float64(c))) + rng.Normal(0, 0.3)
		}
		X = append(X, FromSeries(v))
		y = append(y, c)
	}
	return X, y
}

// goldenDigests are the digests of the fits below. The per-sample and the
// batch-major training engines both produced exactly these values; any
// change to the training code must reproduce them bit for bit.
var goldenDigests = map[string]uint64{
	"papernet":         0x62843e9e1122788b,
	"papernet/predict": 0x713718900a350d18,
	"logreg":           0x8766474520f7c5bc,
	"lstm/mixed-len":   0x8bde262b4c9cd273,
}

// TestTrainedWeightsGolden pins the trained weights (and per-epoch losses)
// of one fit per layer family, at several worker counts, plus the
// reference-tier PredictBatch outputs of the trained PaperNet.
func TestTrainedWeightsGolden(t *testing.T) {
	got := map[string][]uint64{}
	note := func(name string, d uint64) { got[name] = append(got[name], d) }

	// (a) trainEquiv's PaperNet, dropout 0.3, at Parallelism 1 and 4.
	X, y := equivDataset(40, 160)
	for _, par := range []int{1, 4} {
		model, err := PaperNet(5, 160, 4, 4, 6, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		var ft fitTrace
		cfg := FitConfig{Epochs: 3, BatchSize: 16, LR: 0.003, Seed: 9, Parallelism: par, Verbose: ft.verbose}
		if err := model.Fit(X, y, nil, nil, cfg); err != nil {
			t.Fatal(err)
		}
		note("papernet", weightsDigest(model, ft))
		note("papernet/predict", digestOf(model.PredictBatch(X, par)...))
	}

	// (b) The LogReg classifier end to end (pack, fit).
	trs := make([]trace.Trace, len(X))
	for i, x := range X {
		trs[i] = trace.Trace{Domain: "golden", Label: y[i], Values: x.Data}
	}
	ds := storeOf(t, 4, trs)
	for _, par := range []int{1, 3} {
		lr := &LogReg{Prep: Preprocessor{TargetLen: 40, Smooth: 3}, Epochs: 6, Seed: 13, Parallelism: par}
		if err := lr.Fit(ds.All()); err != nil {
			t.Fatal(err)
		}
		note("logreg", weightsDigest(lr.model, nil))
	}

	// (c) LSTM+Dense on mixed-length series, with mixed-length validation.
	mX, my := mixedLengthSeries(45)
	for _, par := range []int{1, 3} {
		rng := sim.NewStream(19, "golden-lstm")
		model := &Sequential{Layers: []Layer{
			NewLSTM(rng.Fork("l"), 1, 5),
			NewDense(rng.Fork("d"), 5, 3),
		}}
		var ft fitTrace
		cfg := FitConfig{Epochs: 4, BatchSize: 24, LR: 0.01, Seed: 23, Parallelism: par, Verbose: ft.verbose}
		if err := model.Fit(mX[:36], my[:36], mX[36:], my[36:], cfg); err != nil {
			t.Fatal(err)
		}
		note("lstm/mixed-len", weightsDigest(model, ft))
	}

	for name, want := range goldenDigests {
		ds := got[name]
		if len(ds) == 0 {
			t.Errorf("%s: no digest recorded", name)
		}
		for i, d := range ds {
			if d != want {
				t.Errorf("%s run %d: digest %#016x, want %#016x", name, i, d, want)
			}
		}
	}
}
