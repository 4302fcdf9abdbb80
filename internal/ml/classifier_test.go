package ml

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// storeOf seals equal-length traces into a store of the given class count.
func storeOf(t testing.TB, classes int, trs []trace.Trace) *trace.Store {
	t.Helper()
	b := trace.NewBuilder(len(trs), len(trs[0].Values))
	for i, tr := range trs {
		b.Finish(i, tr)
	}
	st, err := b.Seal(classes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// synthDataset builds classes with distinct bump patterns plus noise,
// mimicking website traces.
func synthDataset(t testing.TB, classes, perClass, n int, noise float64, seed uint64) *trace.Store {
	return storeOf(t, classes, synthTraces(classes, perClass, n, noise, seed))
}

// synthTraces generates synthDataset's traces, class by class.
func synthTraces(classes, perClass, n int, noise float64, seed uint64) []trace.Trace {
	rng := sim.NewStream(seed, "synth")
	var trs []trace.Trace
	for c := 0; c < classes; c++ {
		// Each class dips at characteristic positions.
		dip1 := (c*37 + 11) % n
		dip2 := (c*61 + 29) % n
		for k := 0; k < perClass; k++ {
			vals := make([]float64, n)
			shift := rng.IntN(5)
			for i := range vals {
				vals[i] = 27000 + rng.Normal(0, noise)
			}
			for w := 0; w < n/8; w++ {
				i1 := (dip1 + shift + w) % n
				i2 := (dip2 + shift + w) % n
				vals[i1] -= 4000
				vals[i2] -= 2500
			}
			trs = append(trs, trace.Trace{Domain: "synth", Label: c, Values: vals})
		}
	}
	return trs
}

func holdoutEval(t *testing.T, c Classifier, d *trace.Store) float64 {
	t.Helper()
	folds, err := d.KFold(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := folds[0]
	if err := c.Fit(d.View(f.Train)); err != nil {
		t.Fatal(err)
	}
	cm := stats.NewConfusionMatrix(d.NumClasses())
	for _, i := range f.Test {
		s := c.Scores(d.Values(i))
		cm.Add(d.Label(i), stats.ArgMax(s))
	}
	return cm.Accuracy()
}

func TestNearestCentroidOnSynthetic(t *testing.T) {
	d := synthDataset(t, 8, 12, 200, 400, 1)
	nc := &NearestCentroid{Prep: Preprocessor{TargetLen: 100, Smooth: 3}}
	if acc := holdoutEval(t, nc, d); acc < 0.9 {
		t.Fatalf("centroid accuracy = %v, want >= 0.9", acc)
	}
	if nc.Name() == "" {
		t.Fatal("name")
	}
}

func TestKNNOnSynthetic(t *testing.T) {
	d := synthDataset(t, 6, 10, 150, 400, 2)
	k := &KNN{K: 3, Prep: Preprocessor{TargetLen: 75}}
	if acc := holdoutEval(t, k, d); acc < 0.85 {
		t.Fatalf("knn accuracy = %v, want >= 0.85", acc)
	}
	if k.Name() != "knn-3" {
		t.Fatal("name")
	}
	// Default K fills in.
	k2 := &KNN{}
	if err := k2.Fit(d.All()); err != nil {
		t.Fatal(err)
	}
	if k2.K != 5 {
		t.Fatal("default K")
	}
}

func TestLogRegOnSynthetic(t *testing.T) {
	d := synthDataset(t, 5, 12, 150, 400, 3)
	lr := &LogReg{Prep: Preprocessor{TargetLen: 60}, Epochs: 25, Seed: 7}
	if acc := holdoutEval(t, lr, d); acc < 0.85 {
		t.Fatalf("logreg accuracy = %v, want >= 0.85", acc)
	}
}

func TestCNNLSTMOnSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("cnn-lstm training is slow")
	}
	d := synthDataset(t, 4, 25, 160, 400, 4)
	c := &CNNLSTM{Prep: Preprocessor{TargetLen: 160}, Filters: 8, Hidden: 8, Dropout: 0.1, Epochs: 40, LR: 0.003, Seed: 5}
	if acc := holdoutEval(t, c, d); acc < 0.6 {
		t.Fatalf("cnn-lstm accuracy = %v, want >= 0.6", acc)
	}
}

func TestClassifierScoresShape(t *testing.T) {
	d := synthDataset(t, 4, 6, 80, 300, 6)
	for _, c := range []Classifier{
		&NearestCentroid{Prep: Preprocessor{TargetLen: 40}},
		&KNN{K: 3, Prep: Preprocessor{TargetLen: 40}},
		&LogReg{Prep: Preprocessor{TargetLen: 40}, Epochs: 3, Seed: 1},
	} {
		if err := c.Fit(d.All()); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		s := c.Scores(d.Values(0))
		if len(s) != 4 {
			t.Fatalf("%s: scores len %d", c.Name(), len(s))
		}
	}
}

func TestFitRejectsInvalidDataset(t *testing.T) {
	empty := synthDataset(t, 2, 2, 16, 100, 1).View(nil)
	for _, c := range []Classifier{
		&NearestCentroid{}, &KNN{K: 1}, &LogReg{Epochs: 1},
		&CNNLSTM{Epochs: 1}, &SpectralCentroid{}, &AlignedCentroid{},
		&OpenWorldCentroid{NSLabel: 1},
	} {
		if err := c.Fit(empty); err != errEmptyTrain {
			t.Errorf("%s: Fit on an empty view returned %v", c.Name(), err)
		}
	}
}

func TestPreprocessor(t *testing.T) {
	p := Preprocessor{TargetLen: 10, Smooth: 3}
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	out := p.Apply(long)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	m := stats.Mean(out)
	if m > 1e-9 || m < -1e-9 {
		t.Fatalf("z-scored mean = %v", m)
	}
	// Shorter than target: kept as-is (copied, then z-scored).
	short := []float64{1, 2, 3}
	got := p.Apply(short)
	if len(got) != 3 {
		t.Fatal("short input should keep length")
	}
	if short[0] != 1 {
		t.Fatal("Apply mutated input")
	}
}

func TestMissingClassCentroid(t *testing.T) {
	// A fold may lack some class entirely; scoring must not panic and
	// must never pick the absent class.
	d := storeOf(t, 4, synthTraces(3, 4, 60, 300, 8)) // class 3 absent
	nc := &NearestCentroid{Prep: Preprocessor{TargetLen: 30}}
	if err := nc.Fit(d.All()); err != nil {
		t.Fatal(err)
	}
	s := nc.Scores(d.Values(0))
	if len(s) != 4 {
		t.Fatal("scores length")
	}
	if stats.ArgMax(s) == 3 {
		t.Fatal("absent class won")
	}
}

func TestAlignedCentroidBeatsFixedOnShiftedData(t *testing.T) {
	// Classes share the same onset position but differ in the *spacing*
	// of two dips; every trace additionally shifts by up to ±20 samples.
	// Fixed-alignment centroids smear the dips away; shift-search
	// matching recovers the pattern.
	rng := sim.NewStream(31, "align")
	var trs []trace.Trace
	n := 300
	for c := 0; c < 6; c++ {
		gap := 30 + 9*c
		for k := 0; k < 12; k++ {
			shift := rng.IntN(41) - 20
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 27000 + rng.Normal(0, 500)
			}
			carve := func(at int) {
				for w := 0; w < 6; w++ {
					if idx := at + w; idx >= 0 && idx < n {
						vals[idx] -= 4500
					}
				}
			}
			carve(80 + shift)
			carve(80 + gap + shift)
			trs = append(trs, trace.Trace{Domain: "align", Label: c, Values: vals})
		}
	}
	d := storeOf(t, 6, trs)
	fixed := holdoutEval(t, &NearestCentroid{Prep: Preprocessor{TargetLen: n}}, d)
	aligned := holdoutEval(t, &AlignedCentroid{Prep: Preprocessor{TargetLen: n}, MaxShift: 24}, d)
	if aligned <= fixed {
		t.Fatalf("aligned %v should beat fixed %v on shifted data", aligned, fixed)
	}
	if aligned < 0.8 {
		t.Fatalf("aligned accuracy %v too low", aligned)
	}
}

func TestShiftInto(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	shiftInto(dst, src, 1)
	if dst[0] != 0 || dst[1] != 1 || dst[3] != 3 {
		t.Fatalf("shift +1 = %v", dst)
	}
	shiftInto(dst, src, -2)
	if dst[0] != 3 || dst[2] != 0 {
		t.Fatalf("shift -2 = %v", dst)
	}
	shiftInto(dst, src, 0)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("identity shift")
		}
	}
}

func TestOpenWorldCentroid(t *testing.T) {
	// 4 sensitive classes with distinct dips + a heterogeneous NS class
	// whose members look like none of them.
	rng := sim.NewStream(41, "ow")
	var trs []trace.Trace
	n := 200
	for c := 0; c < 4; c++ {
		dip := 20 + c*45
		for k := 0; k < 10; k++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 27000 + rng.Normal(0, 300)
			}
			for w := 0; w < 14; w++ {
				vals[dip+w] -= 5000
			}
			trs = append(trs, trace.Trace{Domain: "sens", Label: c, Values: vals})
		}
	}
	for k := 0; k < 20; k++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 27000 + rng.Normal(0, 900) // unstructured
		}
		trs = append(trs, trace.Trace{Domain: "open", Label: 4, Values: vals})
	}
	d := storeOf(t, 5, trs)
	ow := &OpenWorldCentroid{Prep: Preprocessor{TargetLen: 100}, NSLabel: 4}
	acc := holdoutEval(t, ow, d)
	if acc < 0.85 {
		t.Fatalf("open-world accuracy = %v", acc)
	}
	if ow.Name() == "" {
		t.Fatal("name")
	}
	// Scores shape: sensitive classes + NS threshold slot.
	if got := len(ow.Scores(d.Values(0))); got != 5 {
		t.Fatalf("scores len = %d", got)
	}
	// Validation: NSLabel must match.
	bad := &OpenWorldCentroid{NSLabel: 2}
	if err := bad.Fit(d.All()); err == nil {
		t.Fatal("bad NSLabel accepted")
	}
}
