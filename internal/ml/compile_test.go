package ml

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// testInputs builds n deterministic series tensors of the given length.
func testInputs(seed uint64, n, length int) []*Tensor {
	rng := sim.NewStream(seed, "compile-test")
	X := make([]*Tensor, n)
	for i := range X {
		xs := make([]float64, length)
		for j := range xs {
			xs[j] = rng.Uniform(-2, 2)
		}
		X[i] = FromSeries(xs)
	}
	return X
}

func argmax(p []float64) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}

// testModels returns named models covering every compilable layer kind:
// the paper CNN-LSTM (Conv1D, ReLU, MaxPool1D, LSTM, Dropout, Dense head),
// a Dense-only logreg-shaped model, and a model that does not end in Dense
// (head-less compile path).
func testModels(t *testing.T, inLen int) map[string]*Sequential {
	t.Helper()
	paper, err := PaperNet(7, inLen, 4, 8, 6, 0.3)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	rng := sim.NewStream(9, "compile-models")
	dense := &Sequential{Layers: []Layer{NewDense(rng.Fork("lr"), inLen, 4)}}
	headless := &Sequential{Layers: []Layer{
		NewConv1D(rng.Fork("hc"), 1, 4, 8, 3),
		&ReLU{},
		&MaxPool1D{Size: 5},
	}}
	return map[string]*Sequential{
		"paper": paper, "dense": dense, "headless": headless,
	}
}

// TestCompiledMatchesReference checks the tentpole equivalence bar: on every
// model kind the compiled float32 path must agree with the float64 reference
// on argmax for every sample, with probabilities close to f32 rounding.
func TestCompiledMatchesReference(t *testing.T) {
	const inLen = 128
	X := testInputs(31, 24, inLen)
	for name, model := range testModels(t, inLen) {
		cm, err := Compile(model)
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		ref := model.PredictBatch(X, 1)
		got := cm.PredictBatch(X, 1)
		for i := range X {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("%s sample %d: class count %d != %d", name, i, len(got[i]), len(ref[i]))
			}
			if argmax(got[i]) != argmax(ref[i]) {
				t.Fatalf("%s sample %d: compiled argmax %d != reference %d\ncompiled %v\nreference %v",
					name, i, argmax(got[i]), argmax(ref[i]), got[i], ref[i])
			}
			for c := range got[i] {
				if d := math.Abs(got[i][c] - ref[i][c]); d > 1e-4 {
					t.Fatalf("%s sample %d class %d: |%g - %g| = %g > 1e-4",
						name, i, c, got[i][c], ref[i][c], d)
				}
			}
		}
	}
}

// TestCompiledParallelBitIdentical checks that PredictBatch output is
// bit-for-bit identical at every inference worker count.
func TestCompiledParallelBitIdentical(t *testing.T) {
	const inLen = 128
	X := testInputs(32, 16, inLen)
	for name, model := range testModels(t, inLen) {
		cm, err := Compile(model)
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		base := cm.PredictBatch(X, 1)
		for _, par := range []int{2, 3, runtime.NumCPU()} {
			got := cm.PredictBatch(X, par)
			for i := range base {
				for c := range base[i] {
					if got[i][c] != base[i][c] {
						t.Fatalf("%s par=%d sample %d class %d: %b != %b",
							name, par, i, c, got[i][c], base[i][c])
					}
				}
			}
		}
	}
}

// TestCompiledPredictZeroAlloc checks the steady-state contract: with a warm
// scratch arena and caller-provided output rows, PredictBatchInto performs
// zero heap allocations per call.
func TestCompiledPredictZeroAlloc(t *testing.T) {
	const inLen = 128
	X := testInputs(33, 8, inLen)
	model, err := PaperNet(7, inLen, 4, 8, 6, 0.3)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	cm, err := Compile(model)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = make([]float64, 4)
	}
	par := runtime.NumCPU()
	cm.PredictBatchInto(X, par, out) // warm scratch + worker pool
	if n := testing.AllocsPerRun(10, func() {
		cm.PredictBatchInto(X, par, out)
	}); n != 0 {
		t.Fatalf("PredictBatchInto allocates %v per call, want 0", n)
	}
}

// TestCompiledDropoutElided checks that Dropout vanishes at compile time:
// a model with rate-0.9 dropout must still match its own inference-mode
// reference (Forward with train=false is already a no-op for Dropout).
func TestCompiledDropoutElided(t *testing.T) {
	rng := sim.NewStream(11, "drop")
	model := &Sequential{Layers: []Layer{
		NewDense(rng.Fork("d1"), 16, 8),
		&ReLU{},
		NewDropout(rng.Fork("drop"), 0.9),
		NewDense(rng.Fork("d2"), 8, 3),
	}}
	cm, err := Compile(model)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	X := testInputs(34, 6, 16)
	ref := model.PredictBatch(X, 1)
	got := cm.PredictBatch(X, 0)
	for i := range X {
		for c := range ref[i] {
			if d := math.Abs(got[i][c] - ref[i][c]); d > 1e-5 {
				t.Fatalf("sample %d class %d: |%g - %g| = %g", i, c, got[i][c], ref[i][c], d)
			}
		}
	}
}

// TestCompiledPoolEdgeSemantics locks the MaxPool1D remainder handling to
// the reference layer: odd lengths, rows < size, and rows == size all flow
// through the same "last window absorbs the remainder" rule.
func TestCompiledPoolEdgeSemantics(t *testing.T) {
	rng := sim.NewStream(12, "pooledge")
	// inLen 9 gives a conv output shorter than the pool window (rows < size),
	// 10 hits rows == size, 21 and 50 leave remainders the last window must
	// absorb, and 24 divides evenly.
	for _, inLen := range []int{9, 10, 21, 24, 50} {
		convOut := inLen - 3 // (inLen-4)/1 + 1
		outT := convOut / 7
		if outT == 0 {
			outT = 1
		}
		model := &Sequential{Layers: []Layer{
			NewConv1D(rng.Fork("c"), 1, 3, 4, 1),
			&MaxPool1D{Size: 7},
			NewDense(rng.Fork("d"), outT*3, 2),
		}}
		X := testInputs(35, 4, inLen)
		ref := model.PredictBatch(X, 1)
		cm, err := Compile(model)
		if err != nil {
			t.Fatalf("inLen=%d: Compile: %v", inLen, err)
		}
		got := cm.PredictBatch(X, 1)
		for i := range X {
			for c := range ref[i] {
				if d := math.Abs(got[i][c] - ref[i][c]); d > 1e-5 {
					t.Fatalf("inLen=%d sample %d class %d: |%g - %g| = %g",
						inLen, i, c, got[i][c], ref[i][c], d)
				}
			}
		}
	}
}

// foreignLayer is a Layer Compile has never heard of.
type foreignLayer struct{}

func (foreignLayer) forward(x *batchT, train bool, base uint64) *batchT { return x }
func (foreignLayer) backward(grad *batchT) *batchT                      { return grad }
func (l foreignLayer) replica() Layer                                   { return l }
func (foreignLayer) Params() []*Param                                   { return nil }

// TestCompileUnsupportedLayer checks that Compile rejects unknown layers
// and that the classifier-level cache degrades to the reference path
// instead of failing.
func TestCompileUnsupportedLayer(t *testing.T) {
	rng := sim.NewStream(13, "opaque")
	model := &Sequential{Layers: []Layer{
		NewDense(rng.Fork("d"), 8, 4),
		foreignLayer{},
	}}
	if _, err := Compile(model); err == nil {
		t.Fatal("Compile accepted an unsupported layer")
	}
	var cc compiledCache
	if cm := cc.get(model); cm != nil {
		t.Fatal("compiledCache.get returned a model for an uncompilable net")
	}
	if !cc.failed {
		t.Fatal("compiledCache did not remember the compile failure")
	}
	// The dispatch helper must fall back to the reference path.
	X := [][]float64{make([]float64, 8)}
	probs := predictPrepped(model, &cc, Preprocessor{}, 8, X, TierCompiled, 1)
	if len(probs) != 1 || len(probs[0]) != 4 {
		t.Fatalf("fallback predictPrepped returned %v", probs)
	}
}

// TestCompiledTrainedParity trains the scaled paper net briefly and then
// requires exact argmax agreement on fresh data — the same bar the golden
// equivalence test applies at the pipeline level.
func TestCompiledTrainedParity(t *testing.T) {
	const inLen, classes = 128, 3
	rng := sim.NewStream(14, "trainpar")
	n := 30
	X := make([]*Tensor, n)
	y := make([]int, n)
	for i := range X {
		cls := i % classes
		xs := make([]float64, inLen)
		for j := range xs {
			xs[j] = math.Sin(float64(j)*0.2*float64(cls+1)) + rng.Uniform(-0.1, 0.1)
		}
		X[i] = FromSeries(xs)
		y[i] = cls
	}
	model, err := PaperNet(15, inLen, classes, 6, 5, 0.2)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	if err := model.Fit(X, y, nil, nil, FitConfig{
		Epochs: 3, BatchSize: 8, LR: 0.05, Seed: 16, Parallelism: 1,
	}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cm, err := Compile(model)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	fresh := testInputs(36, 20, inLen)
	ref := model.PredictBatch(fresh, 1)
	got := cm.PredictBatch(fresh, runtime.NumCPU())
	for i := range fresh {
		if argmax(got[i]) != argmax(ref[i]) {
			t.Fatalf("trained model sample %d: compiled argmax %d != reference %d\n%v\n%v",
				i, argmax(got[i]), argmax(ref[i]), got[i], ref[i])
		}
	}
}
