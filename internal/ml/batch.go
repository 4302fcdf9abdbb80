package ml

import "math"

// Batch-major layers.
//
// Every layer forwards and backwards a whole batch of equally shaped
// samples at once: each gradient shard packs its samples into one
// contiguous batch tensor, so Dense becomes one GemmNT/GemmNN pair,
// ReLU/MaxPool/Dropout and the softmax loss vectorize over the batch, and
// LSTM carries all of the shard's hidden states through each timestep
// together. Inference on one sample (Sequential.Forward) is the N=1 case of
// the same code.
//
// Determinism contract: for every output element a layer invokes the same
// kernels whatever the batch size (same shapes, same per-element summation
// order), and every cross-sample accumulator (biases, weight gradients, the
// shard loss) is written in ascending sample order. A shard therefore
// produces the same bits whether it runs as one batch, as consecutive
// sub-batches, or one sample at a time; TestTrainedWeightsGolden pins the
// resulting weights.

// batchT is a batch of N equally-shaped Rows×Cols samples in one
// contiguous sample-major buffer.
type batchT struct {
	N, Rows, Cols int
	Data          []float64
}

// sample returns the i-th sample's Rows×Cols block.
func (b *batchT) sample(i int) []float64 {
	sz := b.Rows * b.Cols
	return b.Data[i*sz : (i+1)*sz]
}

// batchOfOne views one tensor as an N=1 batch without copying; layers never
// write their input batch.
func batchOfOne(x *Tensor) *batchT {
	return &batchT{N: 1, Rows: x.Rows, Cols: x.Cols, Data: x.Data}
}

// ensureB is the batch arena primitive: it reshapes buf to n×rows×cols,
// reusing its storage when capacity suffices. Contents are unspecified.
func ensureB(buf *batchT, n, rows, cols int) *batchT {
	sz := n * rows * cols
	if buf == nil {
		return &batchT{N: n, Rows: rows, Cols: cols, Data: make([]float64, sz)}
	}
	buf.N, buf.Rows, buf.Cols = n, rows, cols
	buf.Data = growF(buf.Data, sz)
	return buf
}

// aliasBatch returns a read-only batch header over X[i0 : i0+n] when those
// tensors occupy consecutive rows of one contiguous arena (see Samples):
// the batch's Data is re-derived from X[i0]'s backing array, and every
// header is checked to alias the expected row. Returns nil when the run is
// not contiguous, in which case callers gather into their own buffer. The
// layers never write their input batch (they own separate output arenas),
// so handing them an aliased arena view is safe.
func aliasBatch(X []*Tensor, i0, n int) *batchT {
	ref := X[i0]
	sz := ref.Rows * ref.Cols
	if sz == 0 || cap(ref.Data) < n*sz {
		return nil
	}
	d := ref.Data[:n*sz]
	for k := 1; k < n; k++ {
		xk := X[i0+k]
		if xk.Rows != ref.Rows || xk.Cols != ref.Cols ||
			len(xk.Data) < sz || &xk.Data[0] != &d[k*sz] {
			return nil
		}
	}
	return &batchT{N: n, Rows: ref.Rows, Cols: ref.Cols, Data: d}
}

// softmaxCE adds the batch's softmax cross-entropy losses to loss in
// sample order and writes dL/dlogits into grad, using probs as scratch.
func softmaxCE(logits *batchT, labels []int, probs []float64, grad *batchT, loss float64) float64 {
	C := logits.Rows * logits.Cols
	for s := 0; s < logits.N; s++ {
		p := probs[s*C : (s+1)*C]
		softmaxInto(p, logits.sample(s))
		g := grad.sample(s)
		copy(g, p)
		g[labels[s]] -= 1
		loss += -math.Log(math.Max(p[labels[s]], 1e-12))
	}
	return loss
}
