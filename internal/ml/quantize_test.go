package ml

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
)

// quantizeForTest compiles and quantizes a model with the given calibration
// inputs, failing the test on error.
func quantizeForTest(t *testing.T, model *Sequential, calib []*Tensor) (*CompiledModel, *QuantizedModel) {
	t.Helper()
	cm, err := Compile(model)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	qm, err := Quantize(cm, calib)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	return cm, qm
}

// TestQuantizedMatchesCompiledArgmax checks the quantized tier against the
// compiled f32 path on every model kind: argmax must agree on nearly all
// samples even for untrained weights (where logit gaps are smallest), and
// probabilities must stay close. Quantizable stage counts are also pinned
// so a silently-unquantized body cannot pass on accuracy alone.
func TestQuantizedMatchesCompiledArgmax(t *testing.T) {
	const inLen = 128
	X := testInputs(41, 24, inLen)
	wantQ := map[string]int{"paper": 3, "dense": 0, "headless": 1}
	for name, model := range testModels(t, inLen) {
		cm, qm := quantizeForTest(t, model, X[:8])
		if qm.QuantizedStages() != wantQ[name] {
			t.Fatalf("%s: %d quantized stages, want %d", name, qm.QuantizedStages(), wantQ[name])
		}
		ref := cm.PredictBatch(X, 1)
		got := qm.PredictBatch(X, 1)
		agree := 0
		for i := range X {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("%s sample %d: class count %d != %d", name, i, len(got[i]), len(ref[i]))
			}
			if argmax(got[i]) == argmax(ref[i]) {
				agree++
			}
			for c := range got[i] {
				if d := math.Abs(got[i][c] - ref[i][c]); d > 0.05 {
					t.Fatalf("%s sample %d class %d: |%g - %g| = %g > 0.05",
						name, i, c, got[i][c], ref[i][c], d)
				}
			}
		}
		rate := float64(agree) / float64(len(X))
		t.Logf("%s: argmax agreement %d/%d (%.3f)", name, agree, len(X), rate)
		if rate < 0.9 {
			t.Fatalf("%s: agreement %.3f < 0.9", name, rate)
		}
	}
}

// TestQuantizedTrainedArgmaxParity trains the scaled paper net on separable
// synthetic classes and requires argmax agreement with the compiled path on
// fresh data — the unit-level version of the golden ≥99% pipeline gate.
func TestQuantizedTrainedArgmaxParity(t *testing.T) {
	const inLen, classes = 128, 3
	rng := sim.NewStream(42, "quant-train")
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
	model, err := PaperNet(43, inLen, classes, 6, 5, 0.2)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	if err := model.Fit(X, y, nil, nil, FitConfig{
		Epochs: 3, BatchSize: 8, LR: 0.05, Seed: 44, Parallelism: 1,
	}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cm, qm := quantizeForTest(t, model, X[:16])
	// Fresh draws from the training distribution: the pipeline-level gate
	// measures agreement on data the model actually scores, where trained
	// logit gaps are wide; far-off-distribution noise shrinks them to f32
	// rounding and tests nothing but tie-breaking.
	fresh := make([]*Tensor, 21)
	for i := range fresh {
		cls := i % classes
		xs := make([]float64, inLen)
		for j := range xs {
			xs[j] = math.Sin(float64(j)*0.2*float64(cls+1)) + rng.Uniform(-0.1, 0.1)
		}
		fresh[i] = FromSeries(xs)
	}
	ref := cm.PredictBatch(fresh, 1)
	got := qm.PredictBatch(fresh, runtime.NumCPU())
	for i := range fresh {
		if argmax(got[i]) != argmax(ref[i]) {
			t.Fatalf("trained model sample %d: int8 argmax %d != compiled %d\n%v\n%v",
				i, argmax(got[i]), argmax(ref[i]), got[i], ref[i])
		}
	}
}

// TestQuantizedPredictZeroAlloc extends the compiled steady-state contract
// to the int8 tier: warm scratch + pre-sized output rows = zero heap
// allocations per PredictBatchInto call.
func TestQuantizedPredictZeroAlloc(t *testing.T) {
	const inLen = 128
	X := testInputs(46, 8, inLen)
	model, err := PaperNet(7, inLen, 4, 8, 6, 0.3)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	_, qm := quantizeForTest(t, model, X)
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = make([]float64, 4)
	}
	par := runtime.NumCPU()
	qm.PredictBatchInto(X, par, out) // warm scratch + worker pool
	if n := testing.AllocsPerRun(10, func() {
		qm.PredictBatchInto(X, par, out)
	}); n != 0 {
		t.Fatalf("quantized PredictBatchInto allocates %v per call, want 0", n)
	}
}

// TestQuantizedBitIdenticalAcrossGate runs the same quantized model with
// the AVX2 kernels on and off: the scalar twins' bit-identity contract must
// survive composition into a whole forward pass.
func TestQuantizedBitIdenticalAcrossGate(t *testing.T) {
	const inLen = 128
	X := testInputs(47, 12, inLen)
	model, err := PaperNet(7, inLen, 4, 8, 6, 0.3)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	_, qm := quantizeForTest(t, model, X[:4])
	var legs [][][]float64
	ok := withInt8(func() {
		legs = append(legs, qm.PredictBatch(X, 1))
	})
	if !ok {
		t.Skip("host CPU has no AVX2; generic path is the only path")
	}
	for i := range X {
		for c := range legs[0][i] {
			if math.Float64bits(legs[0][i][c]) != math.Float64bits(legs[1][i][c]) {
				t.Fatalf("sample %d class %d: generic %v != avx2 %v",
					i, c, legs[0][i][c], legs[1][i][c])
			}
		}
	}
}

// TestQuantizeErrors covers every refusal path: each must return an error
// (never panic) so the classifier cache can fall back a tier.
func TestQuantizeErrors(t *testing.T) {
	const inLen = 128
	X := testInputs(48, 4, inLen)
	model, err := PaperNet(7, inLen, 4, 8, 6, 0.3)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	cm, err := Compile(model)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	if _, err := Quantize(nil, X); err == nil {
		t.Fatal("Quantize accepted a nil model")
	}
	if _, err := Quantize(cm, nil); err == nil {
		t.Fatal("Quantize accepted an empty calibration set")
	}

	// All-zero calibration: the first conv sees absmax 0, which has no
	// usable activation scale.
	zeros := []*Tensor{FromSeries(make([]float64, inLen))}
	if _, err := Quantize(cm, zeros); err == nil {
		t.Fatal("Quantize accepted a degenerate (all-zero) calibration set")
	}

	// Non-finite weights must be rejected, not quantized into garbage.
	rng := sim.NewStream(49, "quant-err")
	nanModel := &Sequential{Layers: []Layer{
		NewDense(rng.Fork("d1"), 16, 8),
		&ReLU{},
		NewDense(rng.Fork("d2"), 8, 3),
	}}
	nanModel.Layers[0].(*Dense).w.W[0] = math.NaN()
	nanCM, err := Compile(nanModel)
	if err != nil {
		t.Fatalf("Compile(nanModel): %v", err)
	}
	if _, err := Quantize(nanCM, testInputs(50, 2, 16)); err == nil {
		t.Fatal("Quantize accepted non-finite weights")
	}

	// A body reduction longer than q8MaxK would overflow the i32
	// accumulator budget; Quantize must refuse.
	big := q8MaxK + 8
	bigModel := &Sequential{Layers: []Layer{
		NewDense(rng.Fork("big"), big, 4),
		&ReLU{},
		NewDense(rng.Fork("head"), 4, 2),
	}}
	bigCM, err := Compile(bigModel)
	if err != nil {
		t.Fatalf("Compile(bigModel): %v", err)
	}
	if _, err := Quantize(bigCM, testInputs(51, 1, big)); err == nil {
		t.Fatal("Quantize accepted a reduction beyond the accumulator budget")
	}
}

// TestCompiledCacheTiersAndEviction covers the per-classifier artifact
// cache: hit/miss accounting against the obs registry, int8 reuse of the
// compiled build, and eviction when the model is re-fit (generation bump).
func TestCompiledCacheTiersAndEviction(t *testing.T) {
	const inLen = 128
	X := testInputs(52, 12, inLen)
	model, err := PaperNet(7, inLen, 3, 6, 5, 0.2)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	var cc compiledCache
	cc.setCalib(X[:4])

	h0, m0 := cInferCacheHits.Value(), cInferCacheMisses.Value()
	cm1 := cc.get(model)
	if cm1 == nil {
		t.Fatal("get: nil compiled model")
	}
	if cc.get(model) != cm1 {
		t.Fatal("get: second call rebuilt the artifact")
	}
	qm1 := cc.getQuantized(model)
	if qm1 == nil {
		t.Fatal("getQuantized: nil quantized model")
	}
	if cc.getQuantized(model) != qm1 {
		t.Fatal("getQuantized: second call rebuilt the artifact")
	}
	if hits := cInferCacheHits.Value() - h0; hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
	if misses := cInferCacheMisses.Value() - m0; misses != 2 {
		t.Fatalf("cache misses = %d, want 2", misses)
	}

	// Re-fitting bumps the model generation: both artifacts must be
	// rebuilt so stale weights are never served.
	y := make([]int, len(X))
	for i := range y {
		y[i] = i % 3
	}
	if err := model.Fit(X, y, nil, nil, FitConfig{
		Epochs: 1, BatchSize: 8, LR: 0.01, Seed: 53, Parallelism: 1,
	}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cm2 := cc.get(model)
	if cm2 == nil || cm2 == cm1 {
		t.Fatalf("get after re-fit: got %p, want a fresh build (old %p)", cm2, cm1)
	}
	qm2 := cc.getQuantized(model)
	if qm2 == nil || qm2 == qm1 {
		t.Fatalf("getQuantized after re-fit: got %p, want a fresh build (old %p)", qm2, qm1)
	}
}

// TestQuantizedTierFallback drives predictPrepped with the int8 tier
// selected but quantization doomed to fail (degenerate calibration): the
// call must degrade to the compiled tier, produce valid probabilities, and
// record the fallback.
func TestQuantizedTierFallback(t *testing.T) {
	const inLen = 128
	model, err := PaperNet(7, inLen, 3, 4, 4, 0.2)
	if err != nil {
		t.Fatalf("PaperNet: %v", err)
	}
	var cc compiledCache
	cc.setCalib([]*Tensor{FromSeries(make([]float64, inLen))}) // absmax 0

	f0 := cInferFallbacks.Value()
	raw := make([][]float64, 3)
	for i := range raw {
		raw[i] = make([]float64, inLen)
		for j := range raw[i] {
			raw[i][j] = math.Sin(float64(i + j))
		}
	}
	probs := predictPrepped(model, &cc, Preprocessor{}, inLen, raw, TierInt8, 1)
	if len(probs) != 3 || len(probs[0]) != 3 {
		t.Fatalf("fallback predictPrepped returned %v", probs)
	}
	if !cc.qfailed {
		t.Fatal("cache did not remember the quantization failure")
	}
	if cc.cm == nil {
		t.Fatal("fallback did not build the compiled artifact")
	}
	if cInferFallbacks.Value() == f0 {
		t.Fatal("fallback was not recorded")
	}
	// Second call: still valid, still served from the compiled tier, and
	// the quantize attempt is not repeated (qfailed is sticky).
	if probs := predictPrepped(model, &cc, Preprocessor{}, inLen, raw, TierInt8, 1); len(probs) != 3 {
		t.Fatalf("second fallback call returned %v", probs)
	}
}

// TestInferKnobsRaceSafe scores batches through predictPrepped from
// concurrent goroutines, each cycling through every tier and several
// worker counts passed as arguments. The artifact cache is mutex-guarded,
// so `go test -race` must stay quiet; each goroutine owns its model and
// cache (the documented usage — classifiers are per-fold).
func TestInferKnobsRaceSafe(t *testing.T) {
	const inLen = 128
	raw := make([][]float64, 6)
	rng := sim.NewStream(54, "race")
	for i := range raw {
		raw[i] = make([]float64, inLen)
		for j := range raw[i] {
			raw[i][j] = rng.Uniform(-2, 2)
		}
	}
	tiers := []InferTier{TierReference, TierCompiled, TierInt8}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		model, err := PaperNet(uint64(60+g), inLen, 3, 4, 4, 0.2)
		if err != nil {
			t.Fatalf("PaperNet: %v", err)
		}
		cc := &compiledCache{}
		cc.setCalib(testInputs(uint64(70+g), 4, inLen))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tier, par := tiers[(g+i)%len(tiers)], 1+(g+i)%3
				if got := predictPrepped(model, cc, Preprocessor{}, inLen, raw, tier, par); len(got) != len(raw) {
					t.Errorf("predictPrepped(%v, par %d) returned %d rows, want %d", tier, par, len(got), len(raw))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
