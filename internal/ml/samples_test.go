package ml

import (
	"testing"

	"repro/internal/trace"
)

// equivSamples packs the equivDataset traces into a columnar arena with an
// identity preprocessor (the values are already fixed-length).
func equivSamples(n, length int) *Samples {
	X, y := equivDataset(n, length)
	s := newSamples(n, length)
	s.Y = make([]int, n)
	for i := range X {
		copy(s.Row(i), X[i].Data)
		s.Y[i] = y[i]
	}
	return s
}

// TestPackDatasetMatchesApply pins the arena packer to the per-trace
// reference: every row must be bit-identical to prep.Apply on that trace,
// with labels carried through.
func TestPackDatasetMatchesApply(t *testing.T) {
	prep := Preprocessor{TargetLen: 40, Smooth: 3}
	rowVals := func(i, n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = float64((i+1)*(j+3)%17) * 0.25
		}
		return v
	}
	trs := make([]trace.Trace, 9)
	for i := range trs {
		trs[i] = trace.Trace{Domain: "d", Label: i % 3, Values: rowVals(i, 130)}
	}
	ds := storeOf(t, 3, trs)
	s, err := PackDataset(prep, ds.All())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != ds.Len() || s.Size() != prep.OutLen(130) {
		t.Fatalf("arena shape %dx%d, want %dx%d", s.Len(), s.Size(), ds.Len(), prep.OutLen(130))
	}
	for i := 0; i < s.Len(); i++ {
		want := prep.Apply(ds.Values(i))
		got := s.Row(i)
		if len(want) != len(got) {
			t.Fatalf("row %d length %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d elem %d: packed %v != Apply %v", i, j, got[j], want[j])
			}
		}
		if s.Y[i] != ds.Label(i) {
			t.Fatalf("row %d label %d, want %d", i, s.Y[i], ds.Label(i))
		}
		if x := s.X[i]; x.Rows != s.Size() || x.Cols != 1 || &x.Data[0] != &s.Data[i*s.Size()] {
			t.Fatalf("row %d header does not alias its arena row", i)
		}
	}
}

// TestOutLenMatchesApply checks the length formula against the real
// preprocessing for the shapes the harness uses.
func TestOutLenMatchesApply(t *testing.T) {
	vals := make([]float64, 997)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	for _, p := range []Preprocessor{
		{}, {TargetLen: 300}, {TargetLen: 300, Smooth: 3},
		{TargetLen: 1000}, {Smooth: 5}, DefaultPreprocessor,
	} {
		for _, n := range []int{1, 10, 299, 300, 301, 997} {
			if got, want := p.OutLen(n), len(p.Apply(vals[:n])); got != want {
				t.Fatalf("prep %+v OutLen(%d) = %d, Apply produced %d", p, n, got, want)
			}
		}
	}
}

// TestAliasBatch checks the zero-copy batch view: arena headers alias, heap
// tensors refuse.
func TestAliasBatch(t *testing.T) {
	s := equivSamples(8, 20)
	b := aliasBatch(s.X, 2, 4)
	if b == nil {
		t.Fatal("aliasBatch returned nil for contiguous arena rows")
	}
	if b.N != 4 || b.Rows != 20 || b.Cols != 1 {
		t.Fatalf("alias shape %dx%dx%d", b.N, b.Rows, b.Cols)
	}
	if &b.Data[0] != &s.Data[2*20] {
		t.Fatal("alias does not point at the arena")
	}
	heap, _ := equivDataset(8, 20)
	if aliasBatch(heap, 2, 4) != nil {
		t.Fatal("aliasBatch aliased non-contiguous heap tensors")
	}
	if aliasBatch(s.X, 5, 3) == nil {
		t.Fatal("aliasBatch refused a tail run")
	}
	if aliasBatch(s.X, 6, 3) != nil {
		t.Fatal("aliasBatch ran past the arena end")
	}
}

// TestShardAliasMatchesGather trains one batch at both a consecutive run of
// arena rows (alias path) and the same samples behind heap tensors (gather
// path): the accumulated shard gradients must be bit-identical.
func TestShardAliasMatchesGather(t *testing.T) {
	s := equivSamples(16, 160)
	heapX, heapY := equivDataset(16, 160)
	batch := make([]int, 16)
	for i := range batch {
		batch[i] = i
	}
	grads := func(X []*Tensor, y []int) [][]float64 {
		model, err := PaperNet(5, 160, 4, 4, 6, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		eng := newTrainEngine(model, 1)
		defer eng.close()
		loss := eng.trainBatch(X, y, batch, 0)
		if loss == 0 {
			t.Fatal("zero loss")
		}
		out := make([][]float64, len(eng.params))
		for pi, p := range eng.params {
			out[pi] = append([]float64(nil), p.G...)
		}
		return out
	}
	got := grads(s.X, s.Y)
	want := grads(heapX, heapY)
	for pi := range want {
		for i := range want[pi] {
			if got[pi][i] != want[pi][i] {
				t.Fatalf("param %d elem %d: alias grad %v != gather grad %v",
					pi, i, got[pi][i], want[pi][i])
			}
		}
	}
}

// TestEngineAccuracyArena checks the engine's eval path over an aliased
// arena agrees with the one-sample-at-a-time public API.
func TestEngineAccuracyArena(t *testing.T) {
	s := equivSamples(30, 160)
	model, err := PaperNet(6, 160, 4, 4, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Fit(s.X, s.Y, nil, nil, FitConfig{Epochs: 1, BatchSize: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		eng := newTrainEngine(model, par)
		got := eng.accuracy(s.X, s.Y)
		eng.close()
		if want := model.AccuracyParallel(s.X, s.Y, par); got != want {
			t.Fatalf("par=%d: engine accuracy %v != AccuracyParallel %v", par, got, want)
		}
	}
}

// TestPredictSamplesMatchesPredictBatch pins the f32-mirror scoring path to
// the tensor path bit-for-bit.
func TestPredictSamplesMatchesPredictBatch(t *testing.T) {
	s := equivSamples(37, 160)
	model, err := PaperNet(8, 160, 4, 4, 6, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Fit(s.X, s.Y, nil, nil, FitConfig{Epochs: 1, BatchSize: 8, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	cm, err := Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	want := cm.PredictBatch(s.X, 2)
	got := cm.PredictSamples(s, 2)
	if len(got) != len(want) {
		t.Fatalf("%d rows vs %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("sample %d class %d: mirror %v != tensor %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}
