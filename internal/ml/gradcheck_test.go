package ml

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// gradCheck is the package's gradient oracle: it verifies the training
// engine's analytic gradients for every parameter of the model against
// central finite differences of the summed batch loss, to relative
// tolerance tol. eps 1e-5 keeps the truncation error near 1e-10 while
// staying far above float64 roundoff on losses of order one.
func gradCheck(t *testing.T, name string, model *Sequential, X []*Tensor, y []int, tol float64) {
	t.Helper()
	eng := newTrainEngine(model, 1)
	defer eng.close()
	batch := make([]int, len(X))
	for i := range batch {
		batch[i] = i
	}
	params := model.Params()
	for _, p := range params {
		p.zeroGrad()
	}
	eng.trainBatch(X, y, batch, 0)
	analytic := make([][]float64, len(params))
	for pi, p := range params {
		analytic[pi] = append([]float64(nil), p.G...)
		p.zeroGrad()
	}
	lossAt := func() float64 {
		l := eng.trainBatch(X, y, batch, 0)
		for _, p := range params {
			p.zeroGrad()
		}
		return l
	}
	const eps = 1e-5
	for pi, p := range params {
		for i := range p.W {
			w0 := p.W[i]
			p.W[i] = w0 + eps
			lp := lossAt()
			p.W[i] = w0 - eps
			lm := lossAt()
			p.W[i] = w0
			fd := (lp - lm) / (2 * eps)
			g := analytic[pi][i]
			rel := math.Abs(fd-g) / math.Max(1, math.Abs(fd)+math.Abs(g))
			if rel > tol {
				t.Errorf("%s: param %d elem %d: analytic %v vs finite-diff %v (rel %v)",
					name, pi, i, g, fd, rel)
			}
		}
	}
}

// gradData builds a tiny uniform-shape dataset of the given series length.
func gradData(n, length, classes int) ([]*Tensor, []int) {
	rng := sim.NewStream(123, "gradcheck")
	var X []*Tensor
	var y []int
	for i := 0; i < n; i++ {
		v := make([]float64, length)
		for t := range v {
			v[t] = rng.Uniform(-1, 1)
		}
		X = append(X, FromSeries(v))
		y = append(y, i%classes)
	}
	return X, y
}

func TestGradCheckDense(t *testing.T) {
	rng := sim.NewStream(31, "gc-dense")
	model := &Sequential{Layers: []Layer{NewDense(rng, 6, 3)}}
	X, y := gradData(5, 6, 3)
	gradCheck(t, "dense", model, X, y, 1e-6)
}

func TestGradCheckConv1D(t *testing.T) {
	rng := sim.NewStream(32, "gc-conv")
	// Conv output (5×3) feeds the loss as 15 flattened logits.
	model := &Sequential{Layers: []Layer{NewConv1D(rng, 1, 3, 4, 2)}}
	X, y := gradData(5, 12, 15)
	gradCheck(t, "conv1d", model, X, y, 1e-6)
}

func TestGradCheckConvPoolDense(t *testing.T) {
	rng := sim.NewStream(33, "gc-pool")
	model := &Sequential{Layers: []Layer{
		NewConv1D(rng.Fork("c"), 1, 4, 4, 2),
		&ReLU{},
		&MaxPool1D{Size: 2},
		NewDense(rng.Fork("d"), 3*4, 3),
	}}
	X, y := gradData(6, 16, 3)
	gradCheck(t, "conv+relu+pool+dense", model, X, y, 1e-6)
}

func TestGradCheckLSTM(t *testing.T) {
	rng := sim.NewStream(34, "gc-lstm")
	model := &Sequential{Layers: []Layer{
		NewLSTM(rng.Fork("l"), 1, 5),
		NewDropout(rng.Fork("dr"), 0.25),
		NewDense(rng.Fork("d"), 5, 3),
	}}
	X, y := gradData(6, 7, 3)
	gradCheck(t, "lstm+dropout+dense", model, X, y, 1e-6)
}

func TestGradCheckMixedLengths(t *testing.T) {
	rng := sim.NewStream(36, "gc-mixed")
	model := &Sequential{Layers: []Layer{
		NewLSTM(rng.Fork("l"), 1, 4),
		NewDense(rng.Fork("d"), 4, 3),
	}}
	X, y := mixedLengthSeries(16) // 8 shards of 2; lengths change every 3 samples
	gradCheck(t, "lstm+dense/mixed-len", model, X, y, 1e-6)
}

// The cases below check a single sample each, at the looser tolerances
// they were written with.

func TestDenseGradients(t *testing.T) {
	rng := sim.NewStream(1, "t")
	model := &Sequential{Layers: []Layer{NewDense(rng, 6, 4)}}
	x := FromSeries([]float64{0.5, -1, 2, 0.3, -0.7, 1.1})
	gradCheck(t, "dense/one", model, []*Tensor{x}, []int{2}, 1e-4)
}

func TestConvReluPoolGradients(t *testing.T) {
	rng := sim.NewStream(2, "t")
	model := &Sequential{Layers: []Layer{
		NewConv1D(rng.Fork("c"), 1, 3, 3, 2),
		&ReLU{},
		&MaxPool1D{Size: 2},
		NewDense(rng.Fork("d"), 9, 3), // conv: (13-3)/2+1 = 6 rows ×3ch, pool/2 → 3×3
	}}
	xs := make([]float64, 13)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * 1.5
	}
	gradCheck(t, "conv+relu+pool+dense/one", model, []*Tensor{FromSeries(xs)}, []int{1}, 1e-4)
}

func TestLSTMGradients(t *testing.T) {
	rng := sim.NewStream(3, "t")
	model := &Sequential{Layers: []Layer{
		NewLSTM(rng.Fork("l"), 2, 4),
		NewDense(rng.Fork("d"), 4, 3),
	}}
	x := NewTensor(5, 2)
	for i := range x.Data {
		x.Data[i] = math.Cos(float64(i) * 0.7)
	}
	gradCheck(t, "lstm+dense/one", model, []*Tensor{x}, []int{0}, 1e-4)
}

func TestFullPaperNetGradients(t *testing.T) {
	model, err := PaperNet(4, 120, 3, 2, 3, 0) // dropout 0 for determinism
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = math.Sin(float64(i) * 0.3)
	}
	gradCheck(t, "papernet/one", model, []*Tensor{FromSeries(xs)}, []int{2}, 1e-3)
}
