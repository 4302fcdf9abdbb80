package ml

import (
	"testing"

	"repro/internal/sim"
)

func TestGRUForwardShape(t *testing.T) {
	rng := sim.NewStream(22, "gru")
	g := NewGRU(rng, 3, 5)
	x := NewTensor(10, 3)
	out := (&Sequential{Layers: []Layer{g}}).Forward(x)
	if out.Rows != 1 || out.Cols != 5 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	if len(g.Params()) != 4 {
		t.Fatal("params")
	}
}

func TestGRUChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Sequential{Layers: []Layer{NewGRU(sim.NewStream(1, "g"), 2, 2)}}).Forward(FromSeries([]float64{1, 2}))
}

func TestGRUTrainsOnSequenceTask(t *testing.T) {
	// Classify sequences by whether their second half is larger than the
	// first half — requires memory across time.
	rng := sim.NewStream(23, "grutask")
	var X []*Tensor
	var y []int
	for i := 0; i < 120; i++ {
		c := i % 2
		vals := make([]float64, 12)
		for j := range vals {
			base := 0.0
			if (j >= 6) == (c == 1) {
				base = 1.5
			}
			vals[j] = base + rng.Normal(0, 0.2)
		}
		X = append(X, FromSeries(vals))
		y = append(y, c)
	}
	model := &Sequential{Layers: []Layer{
		NewGRU(rng.Fork("g"), 1, 6),
		NewDense(rng.Fork("d"), 6, 2),
	}}
	if err := model.Fit(X, y, nil, nil, FitConfig{Epochs: 30, BatchSize: 8, LR: 0.02, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(X, y); acc < 0.9 {
		t.Fatalf("GRU sequence accuracy = %v, want >= 0.9", acc)
	}
}
