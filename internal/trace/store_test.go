package trace

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sim"
)

// storeTrace builds a deterministic synthetic trace for store tests.
func storeTrace(i, n int) Trace {
	v := make([]float64, n)
	for j := range v {
		v[j] = float64((i+1)*997+j*31) * 0.125
	}
	return Trace{
		Domain: []string{"a.com", "b.org", "c.net"}[i%3],
		Label:  i % 3,
		Attack: "loop-counting",
		Period: 5 * sim.Millisecond,
		Values: v,
	}
}

// buildStore assembles n traces of the given lengths through a Builder.
func buildStore(t *testing.T, lens []int, stride int) *Store {
	t.Helper()
	b := NewBuilder(len(lens), stride)
	for i, l := range lens {
		tr := storeTrace(i, l)
		row := b.Row(i)
		row = append(row, tr.Values...)
		tr.Values = row
		b.Finish(i, tr)
	}
	st, err := b.Seal(min(3, len(lens))) // storeTrace labels i%3
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuilderSealTrimsToMin(t *testing.T) {
	st := buildStore(t, []int{50, 48, 50, 49}, 50)
	if st.Len() != 4 || st.TraceLen() != 48 {
		t.Fatalf("store %dx%d, want 4x48", st.Len(), st.TraceLen())
	}
	if st.TrimmedSamples() != 2+0+2+1 {
		t.Fatalf("trimmed %d, want 5", st.TrimmedSamples())
	}
	for i := 0; i < 4; i++ {
		want := storeTrace(i, 50)
		got := st.Values(i)
		if len(got) != 48 {
			t.Fatalf("trace %d length %d", i, len(got))
		}
		for j, v := range got {
			if v != want.Values[j] {
				t.Fatalf("trace %d sample %d: %v != %v", i, j, v, want.Values[j])
			}
		}
		if st.Label(i) != want.Label || st.Domain(i) != want.Domain {
			t.Fatalf("trace %d metadata mismatch", i)
		}
	}
	// Views must be capacity-capped: appending to one cannot scribble on
	// the next row.
	v := st.Values(0)
	if cap(v) != len(v) {
		t.Fatalf("Values cap %d exceeds len %d", cap(v), len(v))
	}
}

func TestBuilderRejectsEmptyTrace(t *testing.T) {
	b := NewBuilder(2, 8)
	b.Finish(0, storeTrace(0, 8))
	b.Finish(1, Trace{Domain: "x", Values: nil})
	if _, err := b.Seal(1); err == nil {
		t.Fatal("Seal accepted a zero-length trace")
	}
}

// TestStoreDatasetAliasesArena checks the whole-dataset view: All lists
// every row in order, aliasing the arena without copying.
func TestStoreDatasetAliasesArena(t *testing.T) {
	st := buildStore(t, []int{30, 30, 30}, 30)
	all := st.All()
	if all.Len() != st.Len() || all.NumClasses() != 3 {
		t.Fatalf("All: %d rows of %d, %d classes", all.Len(), st.Len(), all.NumClasses())
	}
	for i := 0; i < all.Len(); i++ {
		if &all.Values(i)[0] != &st.Values(i)[0] || all.Label(i) != st.Label(i) {
			t.Fatalf("All row %d is not store row %d", i, i)
		}
	}
}

// TestStoreShardAndView checks that views alias their store's rows both
// in a heap arena and in a store opened from a shard file.
func TestStoreShardAndView(t *testing.T) {
	heap := buildStore(t, []int{20, 20, 20, 20, 20}, 20)
	path := filepath.Join(t.TempDir(), "view.trst")
	if err := heap.WriteShardFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{heap, mapped} {
		v := st.View([]int{4, 1})
		if v.Len() != 2 || v.Label(0) != st.Label(4) || v.NumClasses() != st.NumClasses() {
			t.Fatal("view indexing broken")
		}
		if &v.Values(1)[0] != &st.Values(1)[0] {
			t.Fatal("view does not alias the store's rows")
		}
	}
}

// TestByClassAndSubset checks the per-class grouping k-fold splitting
// deals from, and a view of a subset of rows.
func TestByClassAndSubset(t *testing.T) {
	st := buildStore(t, []int{5, 5, 5, 5, 5, 5, 5}, 5) // labels i%3
	by := st.byClass()
	want := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	if len(by) != len(want) {
		t.Fatalf("byClass = %v", by)
	}
	for c := range want {
		if !slices.Equal(by[c], want[c]) {
			t.Fatalf("byClass = %v, want %v", by, want)
		}
	}
	v := st.View([]int{0, 5, 6})
	if v.Len() != 3 || v.Label(1) != 2 || &v.Values(2)[0] != &st.Values(6)[0] {
		t.Fatal("subset view wrong")
	}
}

func TestSpillBuilderMatchesBuilder(t *testing.T) {
	const n, stride = 10, 40
	lens := make([]int, n)
	for i := range lens {
		lens[i] = stride - i%3
	}
	want := buildStore(t, lens, stride)

	path := filepath.Join(t.TempDir(), "spill.trst")
	sb, err := NewSpillBuilder(path, n, stride, 4)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 4 {
		hi := lo + 4
		if hi > n {
			hi = n
		}
		if err := sb.Advance(lo, hi); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			tr := storeTrace(i, lens[i])
			row := sb.Row(i)
			row = append(row, tr.Values...)
			tr.Values = row
			sb.Finish(i, tr)
		}
	}
	got, err := sb.Seal(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.TraceLen() != want.TraceLen() ||
		got.TrimmedSamples() != want.TrimmedSamples() {
		t.Fatalf("spilled store %dx%d trim %d, want %dx%d trim %d",
			got.Len(), got.TraceLen(), got.TrimmedSamples(),
			want.Len(), want.TraceLen(), want.TrimmedSamples())
	}
	for i := 0; i < n; i++ {
		gv, wv := got.Values(i), want.Values(i)
		for j := range wv {
			if gv[j] != wv[j] {
				t.Fatalf("trace %d sample %d: spilled %v != in-memory %v", i, j, gv[j], wv[j])
			}
		}
		if got.Domain(i) != want.Domain(i) || got.Label(i) != want.Label(i) {
			t.Fatalf("trace %d metadata mismatch", i)
		}
	}
	// The two paths must also produce byte-identical shard files.
	var a, b bytes.Buffer
	if err := want.WriteShardTo(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteShardTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("SpillBuilder shard bytes differ from Builder store")
	}
}
