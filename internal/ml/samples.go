package ml

import (
	"fmt"

	"repro/internal/trace"
)

// Columnar sample arena.
//
// The classifier Fit/score paths used to materialize one heap tensor per
// trace (Apply allocation + FromSeries copy), so a 100k-trace fit paid two
// allocations and a scattered pointer chase per sample before the first
// GEMM. Samples packs every preprocessed sample into one contiguous
// row-major float64 block: preprocessing lands directly in the arena
// (Preprocessor.ApplyInto), the per-sample tensor headers alias its rows,
// and the training engine's gather loop streams one flat block instead of
// chasing per-trace heap objects. Consecutive headers occupy consecutive
// rows, so batch consumers that score samples in order (epoch validation,
// PredictBatch micro-batches) can alias a whole run of rows as one batch
// tensor with no copy at all (see aliasBatch).

// OutLen returns the length Apply/ApplyInto produce for an n-sample input:
// downsampling is the only length-changing stage (smoothing and z-scoring
// preserve length).
func (p Preprocessor) OutLen(n int) int {
	if p.TargetLen > 0 && n > p.TargetLen {
		factor := (n + p.TargetLen - 1) / p.TargetLen
		return (n + factor - 1) / factor
	}
	return n
}

// Samples is a columnar arena of preprocessed model inputs with per-sample
// tensor headers aliasing its rows.
type Samples struct {
	size int

	// Data is the flat value block: sample i occupies
	// Data[i*Size() : (i+1)*Size()].
	Data []float64
	// X holds one Size×1 tensor header per sample. Header i's Data is
	// sliced without a capacity bound, so cap(X[i].Data) runs to the arena
	// end — how aliasBatch re-derives a multi-row batch from any header.
	X []*Tensor
	// Y is the per-sample label column (nil when packed from raw values).
	Y []int

	f32 []float32
}

// newSamples allocates a zeroed arena of n samples of the given row size.
func newSamples(n, size int) *Samples {
	if size <= 0 {
		panic(fmt.Sprintf("ml: invalid sample size %d", size))
	}
	s := &Samples{
		size: size,
		Data: make([]float64, n*size),
		X:    make([]*Tensor, n),
	}
	for i := range s.X {
		s.X[i] = &Tensor{Rows: size, Cols: 1, Data: s.Data[i*size : (i+1)*size]}
	}
	return s
}

// Len returns the number of samples.
func (s *Samples) Len() int { return len(s.X) }

// Size returns the per-sample feature length.
func (s *Samples) Size() int { return s.size }

// Row returns sample i's feature block.
func (s *Samples) Row(i int) []float64 { return s.Data[i*s.size : (i+1)*s.size] }

// F32 returns the arena's lazily built float32 mirror — the same rows
// pre-converted once, so the compiled inference tier reads its input
// without a per-call f64→f32 pass. Callers must not write through it.
func (s *Samples) F32() []float32 {
	if s.f32 == nil && len(s.Data) > 0 {
		m := make([]float32, len(s.Data))
		for i, v := range s.Data {
			m[i] = float32(v)
		}
		s.f32 = m
	}
	return s.f32
}

// packRow preprocesses values into row i with prep. The common case
// (uniform input lengths, which collected datasets guarantee) lands the
// result in place with zero allocations; a mismatched length is padded or
// trimmed to the row size, matching the defensive pad in the per-sample
// Scores path. tmp is the smoothing scratch (cap ≥ Size).
func (s *Samples) packRow(i int, prep Preprocessor, tmp, values []float64) {
	lo := i * s.size
	row := s.Data[lo : lo+s.size : lo+s.size]
	out := prep.ApplyInto(row, tmp, values)
	if len(out) == s.size {
		if &out[0] != &row[0] {
			copy(row, out)
		}
		return
	}
	n := copy(row, out)
	for j := n; j < s.size; j++ {
		row[j] = 0
	}
}

// PackDataset preprocesses every trace of train into a fresh arena, labels
// included. Row values are bit-identical to prep.Apply on each trace
// (the ApplyInto contract), so classifiers switching to the arena train to
// bit-identical weights.
func PackDataset(prep Preprocessor, train trace.View) (*Samples, error) {
	if train.Len() == 0 {
		return nil, errEmptyTrain
	}
	size := prep.OutLen(len(train.Values(0)))
	s := newSamples(train.Len(), size)
	s.Y = make([]int, train.Len())
	tmp := make([]float64, size)
	for i := range s.Y {
		s.packRow(i, prep, tmp, train.Values(i))
		s.Y[i] = train.Label(i)
	}
	return s, nil
}

// PackValues preprocesses raw value rows into a fresh arena of the given
// row size (the trained input length), padding or trimming mismatched
// results exactly like the per-sample Scores path.
func PackValues(prep Preprocessor, size int, values [][]float64) *Samples {
	s := newSamples(len(values), size)
	tmp := make([]float64, size)
	for i, raw := range values {
		s.packRow(i, prep, tmp, raw)
	}
	return s
}

// Gather copies the samples at idx, in order, into a fresh contiguous
// arena (labels ride along when present) — how a shuffled train/validation
// split regains the contiguity that batch aliasing needs.
func (s *Samples) Gather(idx []int) *Samples {
	out := newSamples(len(idx), s.size)
	if s.Y != nil {
		out.Y = make([]int, len(idx))
	}
	for i, j := range idx {
		copy(out.Row(i), s.Row(j))
		if out.Y != nil {
			out.Y[i] = s.Y[j]
		}
	}
	return out
}
