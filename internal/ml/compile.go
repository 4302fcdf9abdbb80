package ml

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Frozen-model compilation: Compile converts a trained Sequential into an
// immutable CompiledModel — packed float32 weights, a flat stage list with
// fused kernels (Conv1D+bias+ReLU in one GEMM pass, the final
// Dense+bias+softmax over a whole micro-batch, inference MaxPool without
// argmax bookkeeping, Dropout elided entirely), and reusable per-call
// scratch arenas so a steady-state forward pass performs zero heap
// allocations.
//
// Numerics: weights and activations are float32; softmax runs in float64
// from the f32 logits. The acceptance bar against the float64 reference
// path (Sequential.Predict) is argmax parity, not bitwise parity — see
// DESIGN.md "Inference path". Within the compiled path itself, results are
// bit-identical at every worker count (the gemmNT32 determinism contract).

// microBatchMax caps how many same-shape samples the dynamic micro-batcher
// packs into one head GEMM. 32 rows keep the batched A panel L1-resident
// while amortizing kernel and dispatch overhead.
const microBatchMax = 32

// cstage is one fused inference stage. forward consumes a row-major f32
// activation and returns the next one, using only buffers owned by sc
// (slot-indexed by the stage's position si, three slots per stage).
type cstage interface {
	forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int)
}

// inferScratch is one forward pass's arena: activation buffers per stage,
// the micro-batch feature/logit panels, and the WaitGroup the parallel GEMM
// joins on. CompiledModel keeps finished scratches on a free list, so a
// model serving from N goroutines allocates at most N arenas, ever.
type inferScratch struct {
	wg     sync.WaitGroup
	xin    []float32
	bufs   [][]float32
	batch  []float32
	logits []float32
	// Quantized stages additionally keep u8 activation buffers and i32
	// row-mapping arrays here (two slots per stage), so the int8 tier
	// inherits the same zero-alloc warm contract.
	qbufs [][]byte
	ibufs [][]int32
}

// buf returns scratch slot s grown to n elements (contents unspecified).
func (sc *inferScratch) buf(s, n int) []float32 {
	for len(sc.bufs) <= s {
		sc.bufs = append(sc.bufs, nil)
	}
	sc.bufs[s] = growF32(sc.bufs[s], n)
	return sc.bufs[s]
}

// qbuf returns u8 scratch slot s grown to n bytes (contents unspecified).
func (sc *inferScratch) qbuf(s, n int) []byte {
	for len(sc.qbufs) <= s {
		sc.qbufs = append(sc.qbufs, nil)
	}
	sc.qbufs[s] = growU8(sc.qbufs[s], n)
	return sc.qbufs[s]
}

// ibuf returns i32 scratch slot s grown to n elements (contents unspecified).
func (sc *inferScratch) ibuf(s, n int) []int32 {
	for len(sc.ibufs) <= s {
		sc.ibufs = append(sc.ibufs, nil)
	}
	sc.ibufs[s] = growI32(sc.ibufs[s], n)
	return sc.ibufs[s]
}

// CompiledModel is the frozen inference form of a Sequential: an immutable
// stage list over packed float32 weights. It is safe for concurrent use;
// all mutable state lives in per-call scratch arenas.
type CompiledModel struct {
	body []cstage
	// head is the final Dense layer when the model ends in one; the
	// micro-batcher packs same-shape samples into a single head GEMM with
	// the softmax fused behind it. nil when the model ends elsewhere, in
	// which case the last body stage's output is softmaxed per sample.
	head *denseStage

	mu   sync.Mutex
	free []*inferScratch
}

func f32of(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, v := range xs {
		out[i] = float32(v)
	}
	return out
}

// Compile freezes a trained model into its inference form. The model is
// deep-copied (weights packed to float32), so later training steps on s do
// not affect the compiled model. Layers outside the built-in set return an
// error; callers fall back to the float64 reference path.
func Compile(s *Sequential) (*CompiledModel, error) {
	if s == nil || len(s.Layers) == 0 {
		return nil, errors.New("ml: Compile: empty model")
	}
	cm := &CompiledModel{}
	layers := s.Layers
	for idx := 0; idx < len(layers); idx++ {
		switch l := layers[idx].(type) {
		case *Conv1D:
			st := &convStage{in: l.In, out: l.Out, kernel: l.Kernel, stride: l.Stride,
				w: f32of(l.w.W), b: f32of(l.b.W)}
			// Fuse a directly following ReLU into the conv GEMM's store,
			// and a MaxPool1D after that (or directly after the conv) into
			// its epilogue — the pooled activation never materializes.
			if idx+1 < len(layers) {
				if _, ok := layers[idx+1].(*ReLU); ok {
					st.relu = true
					idx++
				}
			}
			if idx+1 < len(layers) {
				if p, ok := layers[idx+1].(*MaxPool1D); ok && p.Size > 0 {
					st.pool = p.Size
					idx++
				}
			}
			if l.Out <= convAxpyMaxOut {
				st.packAxpy()
			}
			cm.body = append(cm.body, st)
		case *ReLU:
			cm.body = append(cm.body, reluStage{})
		case *MaxPool1D:
			if l.Size <= 0 {
				return nil, errors.New("ml: Compile: MaxPool1D size must be positive")
			}
			cm.body = append(cm.body, poolStage{size: l.Size})
		case *Dropout:
			// Identity at inference: elided from the stage list.
		case *LSTM:
			cm.body = append(cm.body, &lstmStage{in: l.In, hidden: l.Hidden,
				wx: f32of(l.wx.W), wh: f32of(l.wh.W), b: f32of(l.b.W)})
		case *GRU:
			cm.body = append(cm.body, &gruStage{in: l.In, hidden: l.Hidden,
				wx: f32of(l.wx.W), wh: f32of(l.wh.W), bx: f32of(l.bx.W), bh: f32of(l.bh.W)})
		case *Dense:
			st := &denseStage{in: l.In, out: l.Out, w: f32of(l.w.W), b: f32of(l.b.W)}
			if idx == len(layers)-1 {
				cm.head = st
			} else {
				if _, ok := layers[idx+1].(*ReLU); ok {
					st.relu = true
					idx++
				}
				cm.body = append(cm.body, st)
			}
		default:
			return nil, fmt.Errorf("ml: Compile: unsupported layer type %T", l)
		}
	}
	mCompiles.Inc()
	return cm, nil
}

func (cm *CompiledModel) getScratch() *inferScratch {
	cm.mu.Lock()
	if n := len(cm.free); n > 0 {
		sc := cm.free[n-1]
		cm.free = cm.free[:n-1]
		cm.mu.Unlock()
		return sc
	}
	cm.mu.Unlock()
	return &inferScratch{}
}

func (cm *CompiledModel) putScratch(sc *inferScratch) {
	cm.mu.Lock()
	cm.free = append(cm.free, sc)
	cm.mu.Unlock()
}

// runBody converts one sample to float32 and walks the body stages,
// returning the flattened feature activation.
func (cm *CompiledModel) runBody(sc *inferScratch, x *Tensor, workers int) ([]float32, int, int) {
	sc.xin = growF32(sc.xin, len(x.Data))
	for i, v := range x.Data {
		sc.xin[i] = float32(v)
	}
	cur, rows, cols := sc.xin[:len(x.Data)], x.Rows, x.Cols
	for si, st := range cm.body {
		cur, rows, cols = st.forward(sc, si, cur, rows, cols, workers)
	}
	return cur, rows, cols
}

// runBodyF32 is runBody for an input already in float32 (a Samples mirror
// row): the per-sample f64→f32 conversion becomes a plain copy into the
// scratch arena. The copy stays — body stages may rectify in place
// (reluStage), and the mirror must remain read-only.
func (cm *CompiledModel) runBodyF32(sc *inferScratch, x []float32, rows, cols, workers int) ([]float32, int, int) {
	sc.xin = growF32(sc.xin, len(x))
	copy(sc.xin, x)
	cur := sc.xin[:len(x)]
	for si, st := range cm.body {
		cur, rows, cols = st.forward(sc, si, cur, rows, cols, workers)
	}
	return cur, rows, cols
}

// softmax32Into writes the stable softmax of f32 logits into dst as
// float64, reusing dst when it has the right length (nil or mis-sized dst
// is allocated). The exponentials run through fastExp32 rather than f64
// math.Exp: with wide heads (the 100-class closed world) the scalar f64
// exp dominated the serving profile, and softmax's ~1e-7 relative error
// budget sits far inside the compiled tier's 1e-5 agreement band — exp
// being monotone, argmax-based gates are unaffected entirely.
func softmax32Into(dst []float64, logits []float32) []float64 {
	if len(dst) != len(logits) {
		dst = make([]float64, len(logits))
	}
	max := float32(math.Inf(-1))
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := float64(fastExp32(v - max))
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// runBatch scores one micro-batch of same-shape samples: per-sample body
// stages feed a B×in feature panel, then one fused head GEMM + softmax
// covers the whole batch.
func (cm *CompiledModel) runBatch(sc *inferScratch, X []*Tensor, out [][]float64, workers int) {
	if cm.head == nil {
		for bi, x := range X {
			feat, frows, fcols := cm.runBody(sc, x, workers)
			out[bi] = softmax32Into(out[bi], feat[:frows*fcols])
		}
		return
	}
	B, hin, hout := len(X), cm.head.in, cm.head.out
	sc.batch = growF32(sc.batch, B*hin)
	for bi, x := range X {
		feat, frows, fcols := cm.runBody(sc, x, workers)
		if frows*fcols != hin {
			panic(fmt.Sprintf("ml: compiled feature size %d != dense input %d", frows*fcols, hin))
		}
		copy(sc.batch[bi*hin:(bi+1)*hin], feat[:hin])
	}
	sc.logits = growF32(sc.logits, B*hout)
	gemmNT32(B, hout, hin, sc.batch, hin, cm.head.w, hin, cm.head.b,
		sc.logits, hout, false, workers, &sc.wg)
	for bi := range X {
		out[bi] = softmax32Into(out[bi], sc.logits[bi*hout:(bi+1)*hout])
	}
}

// Predict returns class probabilities for one input (compiled counterpart
// of Sequential.Predict).
func (cm *CompiledModel) Predict(x *Tensor) []float64 {
	out := make([][]float64, 1)
	cm.PredictBatchInto([]*Tensor{x}, 1, out)
	return out[0]
}

// PredictBatch returns class probabilities for every input. par is the
// intra-op GEMM worker count (0 = GOMAXPROCS); results are bit-identical
// for every value. Signature-compatible with Sequential.PredictBatch.
func (cm *CompiledModel) PredictBatch(X []*Tensor, par int) [][]float64 {
	out := make([][]float64, len(X))
	cm.PredictBatchInto(X, par, out)
	return out
}

// PredictBatchInto is PredictBatch with caller-owned output: row i of out
// receives sample i's probabilities, reusing the row when it has the right
// length (nil rows are allocated). With pre-sized rows and a warm scratch
// arena, a call performs zero heap allocations — the benchmark-gated
// contract (TestCompiledPredictZeroAlloc).
//
// Contiguous same-shape samples are packed into micro-batches of up to
// microBatchMax, each scored with one fused head GEMM instead of
// per-sample gemv calls.
func (cm *CompiledModel) PredictBatchInto(X []*Tensor, par int, out [][]float64) {
	sc := cm.getScratch()
	cm.predictInto(sc, X, par, out)
	cm.putScratch(sc)
}

// predictInto scores X into out using the caller-supplied scratch arena —
// the body shared by PredictBatchInto (transient checkout) and
// InferSession (pinned arena).
func (cm *CompiledModel) predictInto(sc *inferScratch, X []*Tensor, par int, out [][]float64) {
	if len(out) < len(X) {
		panic("ml: PredictBatchInto: out shorter than X")
	}
	workers := par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	i := 0
	for i < len(X) {
		bEnd := i + 1
		for bEnd < len(X) && bEnd-i < microBatchMax &&
			X[bEnd].Rows == X[i].Rows && X[bEnd].Cols == X[i].Cols {
			bEnd++
		}
		cm.runBatch(sc, X[i:bEnd], out[i:bEnd], workers)
		mInferBatches.Inc()
		i = bEnd
	}
	mInferSamples.Add(int64(len(X)))
	if obs.On() {
		cInferFusedNS.Add(time.Since(t0).Nanoseconds())
	}
}

// PredictSamples scores a packed sample arena (see Samples) through the
// compiled tier, feeding micro-batches from the arena's float32 mirror so
// the per-sample f64→f32 conversion runBody pays disappears. Results are
// bit-identical to PredictBatch over the arena's tensor headers: the
// mirror holds exactly float32(v) for every value, which is what runBody
// would compute, and the micro-batch boundaries match (uniform shapes).
// The int8 tier keeps the tensor path: its quantizer rescales activations
// from float64 input, so a shared f32 mirror would change its rounding.
func (cm *CompiledModel) PredictSamples(s *Samples, par int) [][]float64 {
	out := make([][]float64, s.Len())
	if s.Len() == 0 {
		return out
	}
	workers := par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := cm.getScratch()
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	m := s.F32()
	sz := s.Size()
	for lo := 0; lo < s.Len(); lo += microBatchMax {
		hi := lo + microBatchMax
		if hi > s.Len() {
			hi = s.Len()
		}
		cm.runBatchF32(sc, m, sz, lo, hi, out, workers)
		mInferBatches.Inc()
	}
	mInferSamples.Add(int64(s.Len()))
	if obs.On() {
		cInferFusedNS.Add(time.Since(t0).Nanoseconds())
	}
	cm.putScratch(sc)
	return out
}

// runBatchF32 is runBatch over rows [lo, hi) of a packed f32 arena whose
// samples are sz×1 tensors.
func (cm *CompiledModel) runBatchF32(sc *inferScratch, m []float32, sz, lo, hi int, out [][]float64, workers int) {
	if cm.head == nil {
		for i := lo; i < hi; i++ {
			feat, frows, fcols := cm.runBodyF32(sc, m[i*sz:(i+1)*sz], sz, 1, workers)
			out[i] = softmax32Into(out[i], feat[:frows*fcols])
		}
		return
	}
	B, hin, hout := hi-lo, cm.head.in, cm.head.out
	sc.batch = growF32(sc.batch, B*hin)
	for bi := 0; bi < B; bi++ {
		i := lo + bi
		feat, frows, fcols := cm.runBodyF32(sc, m[i*sz:(i+1)*sz], sz, 1, workers)
		if frows*fcols != hin {
			panic(fmt.Sprintf("ml: compiled feature size %d != dense input %d", frows*fcols, hin))
		}
		copy(sc.batch[bi*hin:(bi+1)*hin], feat[:hin])
	}
	sc.logits = growF32(sc.logits, B*hout)
	gemmNT32(B, hout, hin, sc.batch, hin, cm.head.w, hin, cm.head.b,
		sc.logits, hout, false, workers, &sc.wg)
	for bi := 0; bi < B; bi++ {
		out[lo+bi] = softmax32Into(out[lo+bi], sc.logits[bi*hout:(bi+1)*hout])
	}
}

// convAxpyMaxOut bounds the channel count served by the broadcast-FMA conv
// kernel; wider convs use the column-panel GEMM, whose 2×4 dot tiles and
// parallel panels win once n and k are large.
const convAxpyMaxOut = 64

// convStage is Conv1D frozen for inference: the strided im2col-free GEMM
// with bias (and, when the training graph had Conv→ReLU, the rectifier)
// fused into the kernel's store — one pass over the output instead of
// three.
type convStage struct {
	in, out, kernel, stride int
	w                       []float32 // out × kernel*in (panel-GEMM layout)
	b                       []float32
	// Narrow convs (out ≤ convAxpyMaxOut) also carry block-major packed
	// weights for axpyMerge32: nblk blocks of kernel*in × 32 columns,
	// zero-padded, with bias padded to nblk*32.
	nblk    int
	wt      []float32
	biasPad []float32
	relu    bool
	pool    int // fused MaxPool1D window (0 = none)
}

// packAxpy builds the block-major transposed weight layout axpyMerge32 reads.
func (st *convStage) packAxpy() {
	kIn := st.kernel * st.in
	st.nblk = (st.out + 31) / 32
	st.wt = make([]float32, st.nblk*kIn*32)
	st.biasPad = make([]float32, st.nblk*32)
	for o := 0; o < st.out; o++ {
		blk, j := o/32, o%32
		for p := 0; p < kIn; p++ {
			st.wt[(blk*kIn+p)*32+j] = st.w[o*kIn+p]
		}
		st.biasPad[blk*32+j] = st.b[o]
	}
}

func (st *convStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if cols != st.in {
		panic("ml: compiled Conv1D channel mismatch")
	}
	if rows < st.kernel {
		panic("ml: compiled Conv1D input shorter than kernel")
	}
	outT := (rows-st.kernel)/st.stride + 1
	kIn := st.kernel * st.in
	poolT := outT
	if st.pool > 0 {
		poolT = outT / st.pool
		if poolT == 0 {
			poolT = 1
		}
	}
	if st.nblk > 0 {
		return st.forwardAxpy(sc, si, x, outT, poolT, kIn), poolT, st.out
	}
	y := sc.buf(3*si, poolT*st.out)
	if st.pool > 0 {
		for i := range y {
			y[i] = negInf32
		}
	}
	gemmNT32Pool(outT, st.out, kIn, x, st.stride*st.in, st.w, kIn, st.b,
		y, st.out, st.relu, st.pool, workers, &sc.wg)
	return y, poolT, st.out
}

// forwardAxpy is the narrow-conv fast path: per product row, one fused
// axpyMerge32 call per 32-channel block runs the broadcast-FMA sweep with
// bias preloaded and the ReLU + MaxPool epilogue applied before anything
// leaves registers. y is pre-filled with -Inf so the kernel's max-merge is
// a plain store for unpooled convs and the pool reduction for pooled ones.
// Rows run serially in k-ascending column order, so output is independent
// of the worker count by construction.
func (st *convStage) forwardAxpy(sc *inferScratch, si int, x []float32, outT, poolT, kIn int) []float32 {
	width := st.out
	y := sc.buf(3*si, poolT*width)
	for i := range y {
		y[i] = negInf32
	}
	floor := negInf32
	if st.relu {
		floor = 0
	}
	xs := st.stride * st.in
	pool, nblk := st.pool, st.nblk
	for i := 0; i < outT; i++ {
		win := x[i*xs : i*xs+kIn]
		r := i
		if pool > 0 {
			if r = i / pool; r >= poolT {
				r = poolT - 1
			}
		}
		dst := y[r*width : (r+1)*width]
		for blk := 0; blk < nblk; blk++ {
			j0 := blk * 32
			jn := width - j0
			if jn > 32 {
				jn = 32
			}
			axpyMerge32(kIn, jn, win, st.wt[blk*kIn*32:(blk+1)*kIn*32],
				st.biasPad[blk*32:(blk+1)*32], dst[j0:j0+jn], floor)
		}
	}
	return y
}

// poolStage is MaxPool1D without the argmax bookkeeping backward needs.
// Window semantics mirror MaxPool1D.forward exactly: outT = rows/size
// (minimum 1), and the last window absorbs the remainder rows.
type poolStage struct{ size int }

func (st poolStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	outT := rows / st.size
	if outT == 0 {
		outT = 1
	}
	y := sc.buf(3*si, outT*cols)
	for t := 0; t < outT; t++ {
		lo := t * st.size
		hi := lo + st.size
		if hi > rows || t == outT-1 {
			hi = rows
		}
		outRow := y[t*cols : (t+1)*cols]
		copy(outRow, x[lo*cols:(lo+1)*cols])
		for r := lo + 1; r < hi; r++ {
			xRow := x[r*cols : (r+1)*cols]
			for c, v := range xRow {
				if v > outRow[c] {
					outRow[c] = v
				}
			}
		}
	}
	return y, outT, cols
}

// reluStage rectifies in place (only ReLUs not directly behind a Conv1D or
// Dense reach the stage list; fused ones ride the GEMM store).
type reluStage struct{}

func (reluStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	for i, v := range x[:rows*cols] {
		if v < 0 {
			x[i] = 0
		}
	}
	return x, rows, cols
}

// negInf32 initializes fused-maxpool destinations (see panelNT32).
var negInf32 = float32(math.Inf(-1))

func sigmoid32(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
func tanh32(x float32) float32    { return float32(math.Tanh(float64(x))) }

// lstmStage mirrors LSTM.forward in float32: the input projection for all
// steps is one GEMM with the bias fused (pre = b + x·Wxᵀ), and the step
// loop keeps only the live h/c vectors — no gate or cell history.
type lstmStage struct {
	in, hidden int
	wx         []float32 // 4H × In (gate order i, f, o, g)
	wh         []float32 // 4H × H
	b          []float32 // 4H
}

func (st *lstmStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if cols != st.in {
		panic("ml: compiled LSTM input channel mismatch")
	}
	T, H := rows, st.hidden
	pre := sc.buf(3*si, T*4*H)
	gemmNT32(T, 4*H, st.in, x, st.in, st.wx, st.in, st.b, pre, 4*H, false, workers, &sc.wg)
	h := sc.buf(3*si+1, H)
	c := sc.buf(3*si+2, H)
	for i := range h {
		h[i], c[i] = 0, 0
	}
	for t := 0; t < T; t++ {
		preRow := pre[t*4*H : (t+1)*4*H]
		gemv32(4*H, H, st.wh, H, h, preRow)
		for j := 0; j < H; j++ {
			ig := sigmoid32(preRow[j])
			fg := sigmoid32(preRow[H+j])
			og := sigmoid32(preRow[2*H+j])
			gg := tanh32(preRow[3*H+j])
			c[j] = fg*c[j] + ig*gg
			h[j] = og * tanh32(c[j])
		}
	}
	return h, 1, H
}

// gruStage mirrors GRU.forward in float32 (gate order r, z, n; separate bh
// bias inside the reset gate, torch-style).
type gruStage struct {
	in, hidden int
	wx         []float32 // 3H × In
	wh         []float32 // 3H × H
	bx, bh     []float32 // 3H
}

func (st *gruStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if cols != st.in {
		panic("ml: compiled GRU input channel mismatch")
	}
	T, H := rows, st.hidden
	xa := sc.buf(3*si, T*3*H)
	gemmNT32(T, 3*H, st.in, x, st.in, st.wx, st.in, st.bx, xa, 3*H, false, workers, &sc.wg)
	h := sc.buf(3*si+1, H)
	for i := range h {
		h[i] = 0
	}
	ha := sc.buf(3*si+2, 3*H)
	for t := 0; t < T; t++ {
		row := xa[t*3*H : (t+1)*3*H]
		copy(ha, st.bh)
		gemv32(3*H, H, st.wh, H, h, ha)
		for j := 0; j < H; j++ {
			r := sigmoid32(row[j] + ha[j])
			z := sigmoid32(row[H+j] + ha[H+j])
			n := tanh32(row[2*H+j] + r*ha[2*H+j])
			h[j] = (1-z)*n + z*h[j]
		}
	}
	return h, 1, H
}

// denseStage is a Dense layer frozen for inference. In the body it runs
// per sample as a 1×out GEMM row (optionally ReLU-fused); as the model
// head, runBatch gives it the whole micro-batch in one GEMM with the
// softmax applied to each logit row.
type denseStage struct {
	in, out int
	w       []float32 // out × in
	b       []float32
	relu    bool
}

func (st *denseStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if rows*cols != st.in {
		panic("ml: compiled Dense input size mismatch")
	}
	y := sc.buf(3*si, st.out)
	gemmNT32(1, st.out, st.in, x, st.in, st.w, st.in, st.b, y, st.out, st.relu, workers, &sc.wg)
	return y, 1, st.out
}

// InferTier selects how the classifier layer (LogReg, CNNLSTM) scores
// batches: the compiled f32 fast path, the int8 quantized tier (which
// falls back through compiled to reference when quantization is
// unavailable for a model), or the float64 reference path. The zero value
// is the compiled tier, so a classifier built without naming a tier
// scores on it.
type InferTier int32

const (
	TierCompiled InferTier = iota
	TierInt8
	TierReference
)

// String names the tier as run manifests and -infer flags spell it.
func (t InferTier) String() string {
	switch t {
	case TierReference:
		return "reference"
	case TierCompiled:
		return "compiled"
	case TierInt8:
		return "int8"
	}
	return fmt.Sprintf("tier(%d)", int32(t))
}

// ParseInferTier maps the -infer vocabulary (and a CellSpec's infer field)
// to a tier; the empty string is the compiled tier.
func ParseInferTier(name string) (InferTier, error) {
	switch name {
	case "", "compiled":
		return TierCompiled, nil
	case "int8":
		return TierInt8, nil
	case "reference":
		return TierReference, nil
	}
	return 0, fmt.Errorf("ml: unknown inference tier %q (want compiled, int8, or reference)", name)
}

// compiledCache lazily freezes a trained model into its fast inference
// forms — compiled f32, and int8 on top of it — once per (model, fit
// generation), remembering failures so unsupported models pay each build
// attempt only once before falling back a tier. calib survives rebuilds:
// it is raw preprocessed input, not activations, so a re-fit re-calibrates
// against the new weights automatically. The mutex makes concurrent
// classifier scoring safe; the artifacts themselves are immutable.
type compiledCache struct {
	mu      sync.Mutex
	model   *Sequential
	gen     uint64
	calib   []*Tensor
	cm      *CompiledModel
	failed  bool
	qm      *QuantizedModel
	qfailed bool
}

// reset discards frozen artifacts and rebinds the cache to (model, gen).
// Callers hold cc.mu (so the mutex itself must survive the reset).
func (cc *compiledCache) reset(model *Sequential, gen uint64) {
	cc.model, cc.gen = model, gen
	cc.cm, cc.failed = nil, false
	cc.qm, cc.qfailed = nil, false
}

// setCalib records the quantization calibration sample (a small slice of
// the fit's preprocessed training tensors) and resets any frozen artifacts.
func (cc *compiledCache) setCalib(calib []*Tensor) {
	cc.mu.Lock()
	cc.reset(nil, 0)
	cc.calib = calib
	cc.mu.Unlock()
}

// sync discards stale artifacts when the model pointer or its fit
// generation moved; the calibration sample survives (it is raw input, not
// activations). Callers hold cc.mu.
func (cc *compiledCache) sync(model *Sequential) {
	if cc.model != model || cc.gen != model.gen {
		cc.reset(model, model.gen)
	}
}

// compiledLocked returns the f32 compiled model, building it on first use.
// Callers hold cc.mu.
func (cc *compiledCache) compiledLocked(model *Sequential) *CompiledModel {
	if cc.cm == nil && !cc.failed {
		cm, err := Compile(model)
		if err != nil {
			cc.failed = true
			return nil
		}
		cc.cm = cm
	}
	return cc.cm
}

// get returns the compiled model for the current fit. Hits count artifacts
// served from cache; misses count first-use builds; a remembered failure
// counts neither (the caller's fallback increments cInferFallbacks).
func (cc *compiledCache) get(model *Sequential) *CompiledModel {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.sync(model)
	if cc.cm != nil {
		cInferCacheHits.Inc()
		return cc.cm
	}
	if cc.failed {
		return nil
	}
	cInferCacheMisses.Inc()
	return cc.compiledLocked(model)
}

// getQuantized returns the int8 model for the current fit, building the
// compiled form first when needed. Returns nil — callers fall back to
// get — when the model doesn't compile, no calibration sample was
// recorded, or quantization fails (degenerate activation ranges).
func (cc *compiledCache) getQuantized(model *Sequential) *QuantizedModel {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.sync(model)
	if cc.qm != nil {
		cInferCacheHits.Inc()
		return cc.qm
	}
	if cc.qfailed {
		return nil
	}
	cInferCacheMisses.Inc()
	cm := cc.compiledLocked(model)
	if cm == nil {
		cc.qfailed = true
		return nil
	}
	qm, err := Quantize(cm, cc.calib)
	if err != nil {
		cc.qfailed = true
		return nil
	}
	cc.qm = qm
	return qm
}
