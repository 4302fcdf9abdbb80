package trace

import (
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// mkStore builds a store of classes × perClass traces of n samples each,
// labelled class by class.
func mkStore(t testing.TB, classes, perClass, n int) *Store {
	t.Helper()
	labels := make([]int, 0, classes*perClass)
	for c := 0; c < classes; c++ {
		for k := 0; k < perClass; k++ {
			labels = append(labels, c)
		}
	}
	return labelledStore(t, classes, labels, n)
}

// labelledStore builds a store with one n-sample trace per label.
func labelledStore(t testing.TB, classes int, labels []int, n int) *Store {
	t.Helper()
	b := NewBuilder(len(labels), n)
	for i, c := range labels {
		vals := b.Row(i)
		for j := 0; j < n; j++ {
			vals = append(vals, float64(c*1000+i*10+j))
		}
		b.Finish(i, Trace{Domain: "d", Label: c, Attack: "loop-counting", Period: 5 * sim.Millisecond, Values: vals})
	}
	st, err := b.Seal(classes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestValidate checks the label space is enforced where a store is made:
// Seal rejects a class count outside [1, n] and any label outside
// [0, classes), on both builders.
func TestValidate(t *testing.T) {
	seal := func(classes int, labels ...int) error {
		b := NewBuilder(len(labels), 4)
		for i, l := range labels {
			b.Finish(i, Trace{Label: l, Values: []float64{1, 2, 3, 4}})
		}
		_, err := b.Seal(classes)
		return err
	}
	if err := seal(3, 0, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"label beyond classes":     seal(2, 0, 1, 7),
		"negative label":           seal(2, 0, -1),
		"zero classes":             seal(0, 0, 0),
		"more classes than traces": seal(4, 0, 1, 2),
	} {
		if err == nil {
			t.Errorf("%s: Seal accepted it", name)
		}
	}

	sb, err := NewSpillBuilder(filepath.Join(t.TempDir(), "bad.trst"), 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Abort()
	if err := sb.Advance(0, 2); err != nil {
		t.Fatal(err)
	}
	for i, l := range []int{0, 7} {
		sb.Finish(i, Trace{Label: l, Values: []float64{1, 2, 3, 4}})
	}
	if _, err := sb.Seal(2); err == nil {
		t.Error("SpillBuilder.Seal accepted label 7 of 2 classes")
	}
}

func TestKFoldStratified(t *testing.T) {
	d := mkStore(t, 5, 10, 4)
	folds, err := d.KFold(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		if len(f.Test) != 5 { // 50 traces / 10 folds
			t.Fatalf("test fold size = %d, want 5", len(f.Test))
		}
		if len(f.Train) != 45 {
			t.Fatalf("train fold size = %d, want 45", len(f.Train))
		}
		for _, i := range f.Test {
			seen[i]++
		}
		// No overlap between train and test.
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatal("train/test overlap")
			}
		}
	}
	for i := 0; i < d.Len(); i++ {
		if seen[i] != 1 {
			t.Fatalf("trace %d appears in %d test folds", i, seen[i])
		}
	}
}

// TestKFoldAssignment pins the fold assignment of an unbalanced store:
// per class in label order, shuffle with the seed's "kfold" stream, then
// deal round robin. Evaluate's results depend on exactly this split.
func TestKFoldAssignment(t *testing.T) {
	st := labelledStore(t, 3, []int{0, 0, 1, 1, 1, 1, 2, 2, 2, 2}, 2)
	folds, err := st.KFold(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 2, 8, 7}, {0, 3, 6}, {4, 5, 9}}
	for f, fold := range folds {
		if !slices.Equal(fold.Test, want[f]) {
			t.Fatalf("fold %d test %v, want %v", f, fold.Test, want[f])
		}
	}
	if !slices.Equal(folds[0].Train, []int{0, 3, 4, 5, 6, 9}) {
		t.Fatalf("fold 0 train %v", folds[0].Train)
	}
}

func TestKFoldErrors(t *testing.T) {
	d := mkStore(t, 2, 2, 3)
	if _, err := d.KFold(1, 0); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := d.KFold(10, 0); err == nil {
		t.Fatal("k > len accepted")
	}
}

// Property: k-fold partitions exactly, for any valid shape.
func TestKFoldPartitionProperty(t *testing.T) {
	f := func(cs, ps uint8) bool {
		classes := int(cs)%5 + 2
		per := int(ps)%6 + 2
		d := mkStore(t, classes, per, 3)
		k := 2 + int(cs)%3
		folds, err := d.KFold(k, 11)
		if err != nil {
			return false
		}
		total := 0
		for _, f := range folds {
			total += len(f.Test)
			if len(f.Test)+len(f.Train) != d.Len() {
				return false
			}
		}
		return total == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDownsample(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := Downsample(xs, 2)
	want := []float64{1.5, 3.5, 5}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Downsample = %v, want %v", got, want)
		}
	}
	id := Downsample(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Fatal("factor=1 should copy")
		}
	}
	id[0] = 99
	if xs[0] == 99 {
		t.Fatal("Downsample must not alias input")
	}
}

func TestMeanTrace(t *testing.T) {
	ts := []Trace{
		{Values: []float64{1, 2}},
		{Values: []float64{3, 4}},
	}
	m, err := MeanTrace(ts)
	if err != nil || m[0] != 2 || m[1] != 3 {
		t.Fatalf("MeanTrace = %v, %v", m, err)
	}
	if _, err := MeanTrace(nil); err == nil {
		t.Fatal("empty MeanTrace accepted")
	}
	ts[1].Values = []float64{1}
	if _, err := MeanTrace(ts); err == nil {
		t.Fatal("ragged MeanTrace accepted")
	}
}

// referenceDownsample is the pre-optimization append-per-window loop;
// DownsampleInto's full/partial-window split must reproduce it
// bit-for-bit.
func referenceDownsample(xs []float64, factor int) []float64 {
	if factor <= 1 {
		return append([]float64(nil), xs...)
	}
	var out []float64
	for i := 0; i < len(xs); i += factor {
		j := i + factor
		if j > len(xs) {
			j = len(xs)
		}
		var s float64
		for _, v := range xs[i:j] {
			s += v
		}
		out = append(out, s/float64(j-i))
	}
	return out
}

func TestDownsampleMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 299, 300, 900} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*2654435761)%1000) / 7
		}
		for _, f := range []int{1, 2, 3, 4, 7, n + 1} {
			want := referenceDownsample(xs, f)
			got := Downsample(xs, f)
			if len(got) != len(want) {
				t.Fatalf("n=%d f=%d: len %d, want %d", n, f, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d f=%d: [%d] = %v, want %v", n, f, i, got[i], want[i])
				}
			}
		}
	}
}
