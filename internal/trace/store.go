package trace

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Store is a columnar trace arena and the only dataset type: every trace's
// samples live in one contiguous row-major float64 block (row i at
// [i*stride, i*stride+traceLen)), with per-trace metadata (domain, label,
// attack, period) in parallel flat arrays. Collection writes rows in place,
// classifiers fit on zero-copy Views, and the value block can live on disk
// as an mmap-backed shard file (see shard.go) so resident bytes are capped
// by a budget instead of dataset size.
//
// A sealed Store never changes. Values returns views of the arena that
// must not be written through, and Spill returns a new store instead of
// swapping this one's value block, so any number of goroutines may read a
// store while the dataset cache demotes it to disk.
type Store struct {
	n        int // traces
	stride   int // float64 slots reserved per row (>= traceLen)
	traceLen int // uniform logical trace length after Seal
	classes  int
	trimmed  int

	vals []float64 // the value block; heap-owned or an mmap view
	mm   *mapping  // non-nil when vals aliases a mapped shard file

	domains []string
	labels  []int
	attacks []string
	periods []sim.Duration
}

// Len returns the number of traces.
func (s *Store) Len() int { return s.n }

// TraceLen returns the uniform per-trace sample count.
func (s *Store) TraceLen() int { return s.traceLen }

// NumClasses returns the label-space size recorded at Seal.
func (s *Store) NumClasses() int { return s.classes }

// TrimmedSamples returns the samples dropped aligning traces to the common
// length: jittered timers can make trace lengths differ by a sample or
// two. Zero when every trace agreed.
func (s *Store) TrimmedSamples() int { return s.trimmed }

// Values returns trace i's samples as a read-only view of the arena.
func (s *Store) Values(i int) []float64 {
	off := i * s.stride
	return s.vals[off : off+s.traceLen : off+s.traceLen]
}

// Label returns trace i's class index.
func (s *Store) Label(i int) int { return s.labels[i] }

// Domain returns trace i's website domain.
func (s *Store) Domain(i int) string { return s.domains[i] }

// Attack returns the name of the attacker that recorded trace i.
func (s *Store) Attack(i int) string { return s.attacks[i] }

// Period returns trace i's sampling period.
func (s *Store) Period(i int) sim.Duration { return s.periods[i] }

// ValueBytes returns the size of the full value block (resident or spilled).
func (s *Store) ValueBytes() int64 { return int64(s.n) * int64(s.stride) * 8 }

// ResidentBytes estimates the heap bytes the store pins: the value block
// when heap-owned (an mmap-backed block counts zero — the OS pages it in and
// out under its own memory pressure) and the metadata arrays.
func (s *Store) ResidentBytes() int64 {
	var b int64
	if s.mm == nil {
		b += int64(cap(s.vals)) * 8
	}
	b += int64(s.n) * 48 // labels, periods, string headers
	for i := range s.domains {
		b += int64(len(s.domains[i]) + len(s.attacks[i]))
	}
	return b
}

// Spilled reports whether the value block is file-backed.
func (s *Store) Spilled() bool { return s.mm != nil }

// View is an immutable row subset of a store (a fold's train split, or
// every row), aliasing the arena without copying. Classifiers fit on it.
type View struct {
	st  *Store
	idx []int
}

// View returns the given rows as a View. The index slice is retained, not
// copied; callers must not mutate it afterwards.
func (s *Store) View(idx []int) View {
	for _, i := range idx {
		if i < 0 || i >= s.n {
			panic(fmt.Sprintf("trace: View index %d out of range [0,%d)", i, s.n))
		}
	}
	return View{st: s, idx: idx}
}

// All returns a view of every row, in order.
func (s *Store) All() View {
	idx := make([]int, s.n)
	for i := range idx {
		idx[i] = i
	}
	return View{st: s, idx: idx}
}

// Len returns the view's trace count.
func (v View) Len() int { return len(v.idx) }

// Values returns view-local trace i's samples.
func (v View) Values(i int) []float64 { return v.st.Values(v.idx[i]) }

// Label returns view-local trace i's label.
func (v View) Label(i int) int { return v.st.labels[v.idx[i]] }

// NumClasses returns the label-space size of the underlying store.
func (v View) NumClasses() int { return v.st.classes }

// checkLabels enforces the label space every store holds: between one
// class and one class per trace, and every label in [0, classes). The
// builders and the shard decoder check it where a store is made, so
// readers may index per-class arrays by label.
func checkLabels(labels []int, classes int) error {
	if classes < 1 || classes > len(labels) {
		return fmt.Errorf("trace: class count %d outside [1,%d]", classes, len(labels))
	}
	for i, l := range labels {
		if l < 0 || l >= classes {
			return fmt.Errorf("trace %d: label %d out of range [0,%d)", i, l, classes)
		}
	}
	return nil
}

// rowMeta is the per-trace metadata Builder and SpillBuilder record as
// rows finish, sealed the same way by both.
type rowMeta struct {
	lens    []int
	domains []string
	labels  []int
	attacks []string
	periods []sim.Duration
}

func newRowMeta(n int) rowMeta {
	return rowMeta{
		lens:    make([]int, n),
		domains: make([]string, n),
		labels:  make([]int, n),
		attacks: make([]string, n),
		periods: make([]sim.Duration, n),
	}
}

// finish records trace i's metadata and length.
func (m *rowMeta) finish(i int, tr Trace) {
	m.domains[i], m.labels[i], m.attacks[i], m.periods[i] = tr.Domain, tr.Label, tr.Attack, tr.Period
	m.lens[i] = len(tr.Values)
}

// seal computes the uniform trace length (the minimum row length) and the
// samples trimmed to reach it, and checks the label space.
func (m *rowMeta) seal(stride, numClasses int) (traceLen, trimmed int, err error) {
	traceLen = slices.Min(m.lens)
	if traceLen == 0 {
		return 0, 0, errors.New("trace: a trace produced no samples")
	}
	if traceLen > stride {
		return 0, 0, fmt.Errorf("trace: trace length %d exceeds builder stride %d", traceLen, stride)
	}
	for _, l := range m.lens {
		trimmed += l - traceLen
	}
	return traceLen, trimmed, checkLabels(m.labels, numClasses)
}

// Builder assembles a Store row by row. Rows are pre-reserved at a fixed
// stride, so concurrent collection workers each own disjoint arena rows:
// worker w appends samples directly into Row(i) (no per-trace slice
// allocation) and publishes the finished trace with Finish(i, tr). Seal
// computes the uniform trace length (the minimum row length — jittered
// timers can differ by a sample or two), the trimmed-sample count, and
// freezes the arena.
type Builder struct {
	rowMeta
	n      int
	stride int
	vals   []float64
	sealed bool
}

// NewBuilder reserves an in-memory arena for n traces of at most stride
// samples each.
func NewBuilder(n, stride int) *Builder {
	if n <= 0 || stride <= 0 {
		panic(fmt.Sprintf("trace: NewBuilder(%d, %d)", n, stride))
	}
	return &Builder{
		rowMeta: newRowMeta(n),
		n:       n, stride: stride,
		vals: make([]float64, n*stride),
	}
}

// Row returns row i's reserved arena storage as an empty slice with
// capacity stride, ready for append. Each row may be handed to exactly one
// writer at a time; distinct rows are safe concurrently.
func (b *Builder) Row(i int) []float64 {
	off := i * b.stride
	return b.vals[off : off : off+b.stride]
}

// Finish publishes trace i. When tr.Values was appended into Row(i) the
// samples are already in place and only the length is recorded; otherwise
// (a caller that allocated its own slice, or an append that outgrew the
// row and relocated) the first stride values are copied in. Overflow past
// the stride is discarded: Seal's uniform length is the minimum row length,
// so those samples could only matter if every trace overflowed, which Seal
// rejects.
func (b *Builder) Finish(i int, tr Trace) {
	b.finish(i, tr)
	row := b.vals[i*b.stride : (i+1)*b.stride]
	if len(tr.Values) > 0 && &tr.Values[0] != &row[0] {
		copy(row, tr.Values)
	}
}

// Seal freezes the builder into an immutable Store with the given class
// count, which must lie in [1, n] and cover every label. The builder must
// not be used afterwards.
func (b *Builder) Seal(numClasses int) (*Store, error) {
	if b.sealed {
		return nil, errors.New("trace: Builder already sealed")
	}
	traceLen, trimmed, err := b.seal(b.stride, numClasses)
	if err != nil {
		return nil, err
	}
	// Overflow rows kept their first stride samples in the arena; since
	// traceLen <= stride those bytes are already the right prefix.
	b.sealed = true
	return &Store{
		n: b.n, stride: b.stride, traceLen: traceLen,
		classes: numClasses, trimmed: trimmed,
		vals:    b.vals,
		domains: b.domains, labels: b.labels, attacks: b.attacks, periods: b.periods,
	}, nil
}
