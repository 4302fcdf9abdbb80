package ml

import (
	"math"

	"repro/internal/sim"
)

// Layer is one differentiable stage over a batch of equally shaped samples
// (see batchT). forward consumes the previous activation; base is the
// global sample index of batch element 0, which keys per-sample randomness
// (dropout masks), so training does not depend on how samples are sharded
// across workers. backward consumes dL/d(output) and returns dL/d(input),
// accumulating parameter gradients in ascending sample order. Layers are
// stateful between forward and backward; returned batches are owned by
// the layer and remain valid until its next forward/backward call.
//
// replica returns a data-parallel copy: it shares the layer's weight
// storage but owns its gradient accumulators and all activation state, so
// replicas on different workers never race.
type Layer interface {
	forward(x *batchT, train bool, base uint64) *batchT
	backward(grad *batchT) *batchT
	replica() Layer
	Params() []*Param
}

// initUniform fills w with Glorot-style uniform values.
func initUniform(rng *sim.Stream, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = rng.Uniform(-limit, limit)
	}
}

// Dense is a fully connected layer over the flattened input.
type Dense struct {
	In, Out int
	w       *Param // Out×In
	b       *Param

	x, out, dx *batchT
}

// NewDense creates a Dense layer with Glorot initialization.
func NewDense(rng *sim.Stream, in, out int) *Dense {
	d := &Dense{In: in, Out: out, w: newParam(in * out), b: newParam(out)}
	initUniform(rng, d.w.W, in, out)
	return d
}

// forward computes Y = X·Wᵀ + b for the whole batch in one GemmNT.
func (d *Dense) forward(x *batchT, train bool, base uint64) *batchT {
	if x.Rows*x.Cols != d.In {
		panic("ml: Dense input size mismatch")
	}
	d.x = x
	d.out = ensureB(d.out, x.N, 1, d.Out)
	for s := 0; s < x.N; s++ {
		copy(d.out.sample(s), d.b.W)
	}
	GemmNT(x.N, d.Out, d.In, x.Data, d.In, d.w.W, d.In, d.out.Data, d.Out, true)
	return d.out
}

// backward accumulates db/dW sample by sample (skipping zero gradients)
// and computes all dx rows with one GemmNN.
func (d *Dense) backward(grad *batchT) *batchT {
	for s := 0; s < grad.N; s++ {
		g := grad.sample(s)
		xs := d.x.sample(s)
		for o := 0; o < d.Out; o++ {
			gv := g[o]
			if gv == 0 {
				continue
			}
			d.b.G[o] += gv
			axpy(gv, xs, d.w.G[o*d.In:(o+1)*d.In])
		}
	}
	d.dx = ensureB(d.dx, grad.N, d.x.Rows, d.x.Cols)
	GemmNN(grad.N, d.In, d.Out, grad.Data, d.Out, d.w.W, d.In, d.dx.Data, d.In, false)
	return d.dx
}

// Params returns the layer's learnables.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

func (d *Dense) replica() Layer {
	return &Dense{In: d.In, Out: d.Out, w: d.w.sharedGrad(), b: d.b.sharedGrad()}
}

// ReLU is an elementwise rectifier.
type ReLU struct {
	mask    []float64 // 1 where the input was positive, else 0
	out, dx *batchT
}

// forward zeroes negatives in one vectorized compare+mask pass (reluFwd).
func (r *ReLU) forward(x *batchT, train bool, base uint64) *batchT {
	r.out = ensureB(r.out, x.N, x.Rows, x.Cols)
	r.mask = growF(r.mask, len(x.Data))
	reluFwd(x.Data, r.out.Data, r.mask)
	return r.out
}

// backward passes gradient through positive entries (branchless multiply
// by the 0/1 mask).
func (r *ReLU) backward(grad *batchT) *batchT {
	r.dx = ensureB(r.dx, grad.N, grad.Rows, grad.Cols)
	vmulInto(r.dx.Data, grad.Data, r.mask[:len(grad.Data)])
	return r.dx
}

// Params returns nil; ReLU has no learnables.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) replica() Layer { return &ReLU{} }

// Conv1D convolves along time (valid padding) with the given stride.
//
// Because inputs are row-major with channels contiguous per time step, each
// kernel window is one contiguous slice of the input, so forward/backward
// run as strided GEMMs against the weight matrix with no im2col copy: the
// "im2col matrix" is the input itself viewed with row stride Stride·In.
type Conv1D struct {
	In, Out, Kernel, Stride int
	w                       *Param // Out × (Kernel*In)
	b                       *Param

	x, out, dx *batchT
	outT       int
}

// NewConv1D creates a 1-D convolution layer.
func NewConv1D(rng *sim.Stream, in, out, kernel, stride int) *Conv1D {
	if kernel <= 0 || stride <= 0 {
		panic("ml: Conv1D kernel and stride must be positive")
	}
	c := &Conv1D{In: in, Out: out, Kernel: kernel, Stride: stride,
		w: newParam(out * kernel * in), b: newParam(out)}
	initUniform(rng, c.w.W, kernel*in, out)
	return c
}

func (c *Conv1D) outLen(inT int) int {
	if inT < c.Kernel {
		return 0
	}
	return (inT-c.Kernel)/c.Stride + 1
}

// forward computes each sample's valid cross-correlation as
// out = windows(x)·Wᵀ + b, one strided-window GEMM per sample.
func (c *Conv1D) forward(x *batchT, train bool, base uint64) *batchT {
	if x.Cols != c.In {
		panic("ml: Conv1D channel mismatch")
	}
	c.x = x
	c.outT = c.outLen(x.Rows)
	if c.outT == 0 {
		panic("ml: Conv1D input shorter than kernel")
	}
	c.out = ensureB(c.out, x.N, c.outT, c.Out)
	kIn := c.Kernel * c.In
	for s := 0; s < x.N; s++ {
		out := c.out.sample(s)
		for t := 0; t < c.outT; t++ {
			copy(out[t*c.Out:(t+1)*c.Out], c.b.W)
		}
		GemmNT(c.outT, c.Out, kIn, x.sample(s), c.Stride*c.In, c.w.W, kIn, out, c.Out, true)
	}
	return c.out
}

// conv1dBackward accumulates one sample's bias, weight, and input gradients
// in a single pass over the nonzero entries of grad (gs: outT×out, xs/dxs:
// the input series, dxs pre-zeroed or carrying earlier accumulation). Conv
// gradients arrive pool/ReLU-sparse (~⅞ zeros), so one row-major scan that
// drives all three updates beats three separate GEMM passes. Per gradient
// element the adds happen in (t, o)-ascending order for every accumulator,
// and skipping zero entries is exact: a gradient accumulator is never -0
// (+0 + -0 rounds to +0), so acc += ±0 is always the identity.
func conv1dBackward(gs, xs, dxs []float64, outT, out, kIn, strideIn int, wW, wG, bG []float64) {
	if kIn == 8 {
		// The paper net's first conv has kernel 8 over one channel; its
		// per-nonzero updates are too short to amortize a kernel call, so
		// unroll them inline (same per-element mul-then-add as axpy).
		for t := 0; t < outT; t++ {
			grow := gs[t*out : (t+1)*out]
			base := t * strideIn
			xwin := xs[base : base+8 : base+8]
			dxwin := dxs[base : base+8 : base+8]
			for o, gv := range grow {
				if gv == 0 {
					continue
				}
				bG[o] += gv
				wg := wG[o*8 : o*8+8 : o*8+8]
				ww := wW[o*8 : o*8+8 : o*8+8]
				wg[0] += gv * xwin[0]
				wg[1] += gv * xwin[1]
				wg[2] += gv * xwin[2]
				wg[3] += gv * xwin[3]
				wg[4] += gv * xwin[4]
				wg[5] += gv * xwin[5]
				wg[6] += gv * xwin[6]
				wg[7] += gv * xwin[7]
				dxwin[0] += gv * ww[0]
				dxwin[1] += gv * ww[1]
				dxwin[2] += gv * ww[2]
				dxwin[3] += gv * ww[3]
				dxwin[4] += gv * ww[4]
				dxwin[5] += gv * ww[5]
				dxwin[6] += gv * ww[6]
				dxwin[7] += gv * ww[7]
			}
		}
		return
	}
	for t := 0; t < outT; t++ {
		grow := gs[t*out : (t+1)*out]
		base := t * strideIn
		xwin := xs[base : base+kIn]
		dxwin := dxs[base : base+kIn]
		for o, gv := range grow {
			if gv == 0 {
				continue
			}
			bG[o] += gv
			axpy(gv, xwin, wG[o*kIn:(o+1)*kIn])
			axpy(gv, wW[o*kIn:(o+1)*kIn], dxwin)
		}
	}
}

// backward runs the fused sparse scan sample by sample in order; dx
// windows overlap when Stride < Kernel, which the t-sequential
// accumulation handles by adding in place.
func (c *Conv1D) backward(grad *batchT) *batchT {
	c.dx = ensureB(c.dx, grad.N, c.x.Rows, c.x.Cols)
	zeroF(c.dx.Data)
	kIn := c.Kernel * c.In
	for s := 0; s < grad.N; s++ {
		conv1dBackward(grad.sample(s), c.x.sample(s), c.dx.sample(s),
			c.outT, c.Out, kIn, c.Stride*c.In, c.w.W, c.w.G, c.b.G)
	}
	return c.dx
}

// Params returns the layer's learnables.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv1D) replica() Layer {
	return &Conv1D{In: c.In, Out: c.Out, Kernel: c.Kernel, Stride: c.Stride,
		w: c.w.sharedGrad(), b: c.b.sharedGrad()}
}

// MaxPool1D pools over non-overlapping time windows per channel.
type MaxPool1D struct {
	Size int

	argmax  []int
	inT     int
	out, dx *batchT
}

// maxPool1D pools one rows×cols sample into out (outT×cols), recording
// window argmax rows. Each window seeds from its first row and then folds
// the remaining rows with maxIdxInto, a fused value+argmax blend (SIMD on
// amd64) whose strict compare keeps ties and NaN on the earlier row — the
// classic sequential first-strict-improvement argmax, one contiguous row
// pass per window row.
func maxPool1D(x []float64, rows, cols, size, outT int, out []float64, argmax []int) {
	for t := 0; t < outT; t++ {
		lo := t * size
		hi := lo + size
		if hi > rows || t == outT-1 {
			hi = rows
		}
		outRow := out[t*cols : (t+1)*cols]
		amRow := argmax[t*cols : (t+1)*cols]
		copy(outRow, x[lo*cols:(lo+1)*cols])
		for c := range amRow {
			amRow[c] = lo
		}
		for r := lo + 1; r < hi; r++ {
			maxIdxInto(outRow, amRow, x[r*cols:(r+1)*cols], r)
		}
	}
}

// poolOutT returns the pooled length for an input of the given rows.
func (m *MaxPool1D) poolOutT(rows int) int {
	if m.Size <= 0 {
		panic("ml: MaxPool1D size must be positive")
	}
	outT := rows / m.Size
	if outT == 0 {
		outT = 1 // degenerate: single window over everything available
	}
	return outT
}

// forward takes each sample's per-window per-channel maximum (vectorized
// value fold plus argmax rescan, see maxPool1D).
func (m *MaxPool1D) forward(x *batchT, train bool, base uint64) *batchT {
	outT := m.poolOutT(x.Rows)
	m.inT = x.Rows
	m.out = ensureB(m.out, x.N, outT, x.Cols)
	per := outT * x.Cols
	if cap(m.argmax) < x.N*per {
		m.argmax = make([]int, x.N*per)
	}
	m.argmax = m.argmax[:x.N*per]
	for s := 0; s < x.N; s++ {
		maxPool1D(x.sample(s), x.Rows, x.Cols, m.Size, outT,
			m.out.sample(s), m.argmax[s*per:(s+1)*per])
	}
	return m.out
}

// backward routes each sample's gradients to its argmax positions.
func (m *MaxPool1D) backward(grad *batchT) *batchT {
	m.dx = ensureB(m.dx, grad.N, m.inT, grad.Cols)
	zeroF(m.dx.Data)
	per := grad.Rows * grad.Cols
	for s := 0; s < grad.N; s++ {
		gs := grad.sample(s)
		dxs := m.dx.sample(s)
		am := m.argmax[s*per : (s+1)*per]
		for t := 0; t < grad.Rows; t++ {
			for c := 0; c < grad.Cols; c++ {
				g := gs[t*grad.Cols+c]
				dxs[am[t*grad.Cols+c]*grad.Cols+c] += g
			}
		}
	}
	return m.dx
}

// Params returns nil; pooling has no learnables.
func (m *MaxPool1D) Params() []*Param { return nil }

func (m *MaxPool1D) replica() Layer { return &MaxPool1D{Size: m.Size} }

// Dropout zeroes activations with probability Rate during training
// (inverted dropout: survivors are scaled by 1/(1-Rate)). Masks are a pure
// function of (layer seed, global sample index), so the training
// trajectory does not depend on the order workers process samples.
type Dropout struct {
	Rate float64

	seed    uint64
	mask    []float64
	out, dx *batchT
	rng     *sim.Stream // reusable mask stream, reseeded per sample
}

// dropoutMaskHash is the name-hash of every dropout mask stream, hoisted so
// maskStream can Reseed without rehashing the name per sample.
var dropoutMaskHash = sim.NameHash("dropout-mask")

// maskStream returns the layer's reusable stream positioned at the start of
// the mask sequence for global sample n — the same sequence
// sim.NewStream(seed^mix(n), "dropout-mask") yields, without the per-sample
// allocation. The splitmix-style mix keeps per-sample streams decorrelated.
func (d *Dropout) maskStream(n uint64) *sim.Stream {
	if d.rng == nil {
		d.rng = sim.NewStream(0, "dropout-mask")
	}
	d.rng.Reseed(d.seed^(n*0x9e3779b97f4a7c15+0x632be59bd9b4e019), dropoutMaskHash)
	return d.rng
}

// NewDropout creates a dropout layer seeded from the given stream.
func NewDropout(rng *sim.Stream, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("ml: dropout rate must be in [0,1)")
	}
	return &Dropout{Rate: rate, seed: rng.Uint64()}
}

// forward masks sample s with the stream keyed by base+s in training mode
// and is the identity at inference.
func (d *Dropout) forward(x *batchT, train bool, base uint64) *batchT {
	d.out = ensureB(d.out, x.N, x.Rows, x.Cols)
	if !train || d.Rate == 0 {
		d.mask = nil
		copy(d.out.Data, x.Data)
		return d.out
	}
	d.mask = growF(d.mask, len(x.Data))
	per := x.Rows * x.Cols
	scale := 1 / (1 - d.Rate)
	for s := 0; s < x.N; s++ {
		rng := d.maskStream(base + uint64(s))
		xs := x.sample(s)
		out := d.out.sample(s)
		mask := d.mask[s*per : (s+1)*per]
		for i, v := range xs {
			if rng.Float64() < d.Rate {
				out[i] = 0
				mask[i] = 0
			} else {
				mask[i] = scale
				out[i] = v * scale
			}
		}
	}
	return d.out
}

// backward applies the saved masks in one vectorized pass.
func (d *Dropout) backward(grad *batchT) *batchT {
	d.dx = ensureB(d.dx, grad.N, grad.Rows, grad.Cols)
	if d.mask == nil {
		copy(d.dx.Data, grad.Data)
		return d.dx
	}
	vmulInto(d.dx.Data, grad.Data, d.mask[:len(grad.Data)])
	return d.dx
}

// Params returns nil; dropout has no learnables.
func (d *Dropout) Params() []*Param { return nil }

func (d *Dropout) replica() Layer { return &Dropout{Rate: d.Rate, seed: d.seed} }
