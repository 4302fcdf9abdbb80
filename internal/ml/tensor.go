// Package ml is a from-scratch neural-network and classical-classifier
// library sufficient to reproduce the paper's LSTM+CNN classifier (§4.1,
// footnote 2) using only the standard library. It provides dense tensors,
// Conv1D / MaxPool1D / Dropout / LSTM / Dense layers with full
// backpropagation, the Adam optimizer, early stopping, and fast baseline
// classifiers (nearest centroid, kNN, multinomial logistic regression) used
// where training a recurrent network would dominate experiment runtime.
package ml

import "fmt"

// Tensor is a row-major (Rows × Cols) matrix. For sequence layers, Rows is
// time and Cols is channels.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor allocates a zeroed tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("ml: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSeries wraps a 1-D series as a (len × 1) tensor, copying the data.
func FromSeries(xs []float64) *Tensor {
	t := NewTensor(len(xs), 1)
	copy(t.Data, xs)
	return t
}

// At returns element (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set writes element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Row returns a view of row r.
func (t *Tensor) Row(r int) []float64 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// growF returns a length-n slice reusing s's storage when possible.
// Contents are unspecified.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// zeroF clears a slice.
func zeroF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// Param is one learnable weight blob with its gradient accumulator.
type Param struct {
	W []float64
	G []float64
}

func newParam(n int) *Param { return &Param{W: make([]float64, n), G: make([]float64, n)} }

// zeroGrad clears the gradient accumulator.
func (p *Param) zeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// sharedGrad returns a Param aliasing p's weights with its own gradient
// accumulator — the shape of a data-parallel replica: workers read the same
// weights but accumulate gradients privately until the shard reduction.
func (p *Param) sharedGrad() *Param {
	return &Param{W: p.W, G: make([]float64, len(p.G))}
}
