package ml

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestSoftmaxCrossEntropy(t *testing.T) {
	p := Softmax([]float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3.0) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 0})
	if p[0] < 0.999 || math.IsNaN(p[0]) {
		t.Fatalf("softmax stability: %v", p)
	}
	// Two samples, added to a running loss of 1: uniform logits, then a
	// confident wrong answer.
	logits := &batchT{N: 2, Rows: 1, Cols: 2, Data: []float64{0, 0, 0, 5}}
	grad := ensureB(nil, 2, 1, 2)
	loss := softmaxCE(logits, []int{0, 0}, make([]float64, 4), grad, 1)
	if want := 1 + math.Log(2) + math.Log(1+math.Exp(5)); math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
	if math.Abs(grad.Data[0]+0.5) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data[:2])
	}
	q := math.Exp(5) / (1 + math.Exp(5))
	if math.Abs(grad.Data[2]+q) > 1e-12 || math.Abs(grad.Data[3]-q) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data[2:])
	}
}

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	x.Set(1, 2, 5)
	if x.At(1, 2) != 5 || x.Row(1)[2] != 5 {
		t.Fatal("At/Set/Row")
	}
	c := x.Clone()
	c.Set(0, 0, 9)
	if x.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape should panic")
		}
	}()
	NewTensor(0, 1)
}

func TestDropout(t *testing.T) {
	d := NewDropout(sim.NewStream(5, "drop"), 0.5)
	x := FromSeries(make([]float64, 1000))
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.forward(batchOfOne(x), true, 0)
	zeros := 0
	var sum float64
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		}
		sum += v
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout zeroed %d/1000", zeros)
	}
	// Inverted dropout preserves expectation.
	if sum < 800 || sum > 1200 {
		t.Fatalf("dropout sum = %v, want ~1000", sum)
	}
	// Inference is identity.
	inf := d.forward(batchOfOne(x), false, 0)
	for _, v := range inf.Data {
		if v != 1 {
			t.Fatal("inference dropout must be identity")
		}
	}
	g := d.backward(batchOfOne(FromSeries(make([]float64, 1000))))
	if len(g.Data) != 1000 {
		t.Fatal("backward shape")
	}
}

func TestDropoutValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1 should panic")
		}
	}()
	NewDropout(sim.NewStream(1, "x"), 1.0)
}

func TestMaxPoolForwardShape(t *testing.T) {
	m := &MaxPool1D{Size: 4}
	x := NewTensor(10, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out := (&Sequential{Layers: []Layer{m}}).Forward(x)
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatalf("pool out shape %dx%d", out.Rows, out.Cols)
	}
	// Last window absorbs the remainder rows (argmax within [4,10)).
	if out.At(1, 1) != x.At(9, 1) {
		t.Fatalf("trailing pool window: got %v", out.At(1, 1))
	}
	// Degenerate input shorter than pool size.
	small := (&Sequential{Layers: []Layer{m}}).Forward(NewTensor(2, 1))
	if small.Rows != 1 {
		t.Fatal("degenerate pooling should give one row")
	}
}

func TestAdamConvergesOnToyProblem(t *testing.T) {
	// Linearly separable 3-class toy data.
	rng := sim.NewStream(6, "toy")
	var X []*Tensor
	var y []int
	for i := 0; i < 150; i++ {
		c := i % 3
		v := []float64{rng.Normal(float64(c)*2, 0.3), rng.Normal(-float64(c), 0.3)}
		X = append(X, FromSeries(v))
		y = append(y, c)
	}
	model := &Sequential{Layers: []Layer{NewDense(rng.Fork("d"), 2, 3)}}
	if err := model.Fit(X, y, nil, nil, FitConfig{Epochs: 40, BatchSize: 8, LR: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(X, y); acc < 0.95 {
		t.Fatalf("toy accuracy = %v, want >= 0.95", acc)
	}
}

func TestFitEarlyStopping(t *testing.T) {
	rng := sim.NewStream(7, "es")
	var X []*Tensor
	var y []int
	for i := 0; i < 60; i++ {
		c := i % 2
		X = append(X, FromSeries([]float64{float64(c) + rng.Normal(0, 0.1)}))
		y = append(y, c)
	}
	model := &Sequential{Layers: []Layer{NewDense(rng.Fork("d"), 1, 2)}}
	epochs := 0
	err := model.Fit(X[:40], y[:40], X[40:], y[40:], FitConfig{
		Epochs: 100, BatchSize: 8, LR: 0.1, Patience: 2, Seed: 1,
		Verbose: func(e int, _, _ float64) { epochs = e + 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs >= 100 {
		t.Fatalf("early stopping never triggered (%d epochs)", epochs)
	}
}

func TestFitValidation(t *testing.T) {
	model := &Sequential{Layers: []Layer{NewDense(sim.NewStream(1, "v"), 1, 2)}}
	if err := model.Fit(nil, nil, nil, nil, FitConfig{}); err == nil {
		t.Fatal("empty fit accepted")
	}
	if err := model.Fit([]*Tensor{FromSeries([]float64{1})}, []int{0, 1}, nil, nil, FitConfig{}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestPaperNetValidation(t *testing.T) {
	if _, err := PaperNet(1, 5, 3, 2, 2, 0); err == nil {
		t.Fatal("too-short input accepted")
	}
	if _, err := PaperNet(1, 100, 3, 0, 2, 0); err == nil {
		t.Fatal("zero filters accepted")
	}
	if _, err := PaperNet(1, 300, 10, 4, 8, 0.5); err != nil {
		t.Fatalf("valid PaperNet rejected: %v", err)
	}
}

func TestLayerPanics(t *testing.T) {
	rng := sim.NewStream(8, "p")
	forward := func(l Layer, x *Tensor) { (&Sequential{Layers: []Layer{l}}).Forward(x) }
	for name, fn := range map[string]func(){
		"conv-params":  func() { NewConv1D(rng, 1, 1, 0, 1) },
		"dense-shape":  func() { forward(NewDense(rng, 3, 2), FromSeries([]float64{1, 2})) },
		"conv-channel": func() { forward(NewConv1D(rng, 2, 1, 2, 1), FromSeries([]float64{1, 2, 3})) },
		"lstm-channel": func() { forward(NewLSTM(rng, 2, 2), FromSeries([]float64{1})) },
		"pool-size":    func() { forward(&MaxPool1D{}, FromSeries([]float64{1})) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
