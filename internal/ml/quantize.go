package ml

import (
	"errors"
	"fmt"
	"math"
)

// Post-training int8 quantization of a CompiledModel: Quantize freezes the
// f32 stage list into a third inference tier where the compute-bound
// matmuls — Conv1D reductions, body Dense rows, and both LSTM projections —
// run in u8×s8 integer arithmetic through gemmQ8Fused, with f32
// requantization between stages.
//
// Scale derivation: weights get per-output-channel symmetric scales
// sw[o] = rowAbsmax/63 (7-bit, the VPMADDUBSW saturation guard in
// gemm8.go); activations get one per-tensor scale sx = absmax/127 from a
// calibration pass over a small held-out sample, quantized unsigned around
// the fixed zero point 128. The kernel accumulates Σ q·wq in i32 and the
// epilogue applies real ≈ (acc − 128·Σwq)·sw·sx + bias in f32, so each
// stage hands the next an ordinary f32 activation and the pool/relu
// stages pass through unchanged.
//
// The final Dense head (and softmax) stays f32: logit gaps at the argmax
// decision are often a fraction of a percent, and the head is a negligible
// slice of the forward pass — quantizing it would spend argmax agreement
// on nothing. The LSTM's hidden state needs no calibration: h = o·tanh(c)
// is mathematically inside (−1, 1), so its scale is pinned at 1/127.

// q8CalibMax caps how many calibration tensors Quantize walks; beyond ~32
// samples the per-tensor absmax is stable.
const q8CalibMax = 32

// QuantizedModel is the int8 inference form of a CompiledModel. It shares
// the CompiledModel machinery (stage walk, micro-batched f32 head, scratch
// free list, PredictBatch* API) with quantized body stages swapped in; like
// CompiledModel it is immutable and safe for concurrent use, and a warm
// steady-state forward pass performs zero heap allocations.
type QuantizedModel struct {
	CompiledModel
	nq int // body stages running in int8
}

// QuantizedStages reports how many body stages run in int8 arithmetic.
func (qm *QuantizedModel) QuantizedStages() int { return qm.nq }

// Quantize builds the int8 tier from a compiled model, calibrating
// activation scales on calib (a small sample of preprocessed training
// tensors; a held-out split where available). It fails — callers fall back
// to the f32 compiled tier — when the calibration set is empty or
// degenerate (zero or non-finite activation ranges), when weights are
// non-finite, or when a reduction is long enough to threaten the i32
// accumulator. The source model is untouched; unquantizable-by-design
// stages (pool, relu) and the Dense head are shared with cm.
func Quantize(cm *CompiledModel, calib []*Tensor) (*QuantizedModel, error) {
	if cm == nil {
		return nil, errors.New("ml: Quantize: nil model")
	}
	if len(calib) == 0 {
		return nil, errors.New("ml: Quantize: empty calibration set")
	}
	if len(calib) > q8CalibMax {
		calib = calib[:q8CalibMax]
	}
	absmax, err := calibrate(cm, calib)
	if err != nil {
		return nil, err
	}
	qm := &QuantizedModel{}
	qm.body = make([]cstage, len(cm.body))
	for si, st := range cm.body {
		switch s := st.(type) {
		case *convStage:
			q, err := quantizeConv(s, absmax[si])
			if err != nil {
				return nil, err
			}
			qm.body[si] = q
			qm.nq++
		case *denseStage:
			q, err := quantizeDense(s, absmax[si])
			if err != nil {
				return nil, err
			}
			qm.body[si] = q
			qm.nq++
		case *lstmStage:
			q, err := quantizeLSTM(s, absmax[si])
			if err != nil {
				return nil, err
			}
			qm.body[si] = q
			qm.nq++
		default:
			qm.body[si] = st
		}
	}
	qm.head = cm.head
	mQuantizes.Inc()
	return qm, nil
}

// calibrate walks every calibration tensor through the f32 stages,
// recording per-stage input absmax for the quantizable stage kinds.
func calibrate(cm *CompiledModel, calib []*Tensor) ([]float64, error) {
	absmax := make([]float64, len(cm.body))
	sc := cm.getScratch()
	defer cm.putScratch(sc)
	for _, x := range calib {
		sc.xin = growF32(sc.xin, len(x.Data))
		for i, v := range x.Data {
			sc.xin[i] = float32(v)
		}
		cur, rows, cols := sc.xin[:len(x.Data)], x.Rows, x.Cols
		for si, st := range cm.body {
			switch st.(type) {
			case *convStage, *denseStage, *lstmStage:
				for _, v := range cur[:rows*cols] {
					if a := math.Abs(float64(v)); a > absmax[si] {
						absmax[si] = a
					}
				}
			}
			cur, rows, cols = st.forward(sc, si, cur, rows, cols, 1)
		}
	}
	return absmax, nil
}

// actScale converts a calibrated absmax into the per-tensor activation
// scale sx and its quantization reciprocal (q ≈ v/sx + 128).
func actScale(absmax float64) (sx float64, inv float32, err error) {
	if math.IsNaN(absmax) || math.IsInf(absmax, 0) || absmax <= 0 {
		return 0, 0, fmt.Errorf("ml: Quantize: degenerate activation range %v", absmax)
	}
	sx = absmax / q8ActMax
	return sx, float32(1 / sx), nil
}

// packQ8 quantizes an out×kIn row-major f32 weight matrix for gemmQ8Fused:
// rows zero-padded to kPad = pad32(kIn) bytes and the channel count to
// quads·4, per-row symmetric s8 values clamped to ±q8WMax, the
// zero-point correction corr[o] = 128·Σ wq[o], and the combined dequant
// scale sw[o]·sx.
func packQ8(w []float32, out, kIn int, sx float64) (wq []int8, corr []int32, scale []float32, quads, kPad int, err error) {
	quads = (out + 3) / 4
	kPad = pad32(kIn)
	if kPad > q8MaxK {
		return nil, nil, nil, 0, 0,
			fmt.Errorf("ml: Quantize: reduction length %d exceeds the int8 accumulator budget %d", kPad, q8MaxK)
	}
	wq = make([]int8, quads*4*kPad)
	corr = make([]int32, quads*4)
	scale = make([]float32, quads*4)
	for o := 0; o < out; o++ {
		row := w[o*kIn : (o+1)*kIn]
		var rowMax float64
		for _, v := range row {
			a := math.Abs(float64(v))
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return nil, nil, nil, 0, 0, errors.New("ml: Quantize: non-finite weight")
			}
			if a > rowMax {
				rowMax = a
			}
		}
		sw := rowMax / q8WMax
		if rowMax == 0 {
			sw = 1 // all-zero row quantizes to zeros; scale is then inert
		}
		dst := wq[o*kPad:]
		var sum int32
		for p, v := range row {
			q := int32(math.RoundToEven(float64(v) / sw))
			if q > q8WMax {
				q = q8WMax
			} else if q < -q8WMax {
				q = -q8WMax
			}
			dst[p] = int8(q)
			sum += q
		}
		corr[o] = q8Zp * sum
		scale[o] = float32(sw * sx)
	}
	return wq, corr, scale, quads, kPad, nil
}

// padF32 copies b into a slice padded with zeros to n elements.
func padF32(b []float32, n int) []float32 {
	out := make([]float32, n)
	copy(out, b)
	return out
}

// qconvStage is convStage in int8: quantize the input tensor once, then one
// gemmQ8Fused call runs every (window, channel-quad) pair with the
// dequantize + bias + ReLU + MaxPool epilogue fused behind the i32
// reduction. The dstOff element-offset map reproduces poolStage's "last
// window absorbs the remainder" rule without a division in the kernel or
// in its own construction.
type qconvStage struct {
	in, out, kernel, stride int
	relu                    bool
	pool                    int
	quads, kPad, tailLive   int
	wq                      []int8
	corr                    []int32
	scale, bias             []float32
	invIn                   float32
}

func quantizeConv(s *convStage, absmax float64) (*qconvStage, error) {
	sx, inv, err := actScale(absmax)
	if err != nil {
		return nil, err
	}
	kIn := s.kernel * s.in
	wq, corr, scale, quads, kPad, err := packQ8(s.w, s.out, kIn, sx)
	if err != nil {
		return nil, err
	}
	return &qconvStage{
		in: s.in, out: s.out, kernel: s.kernel, stride: s.stride,
		relu: s.relu, pool: s.pool,
		quads: quads, kPad: kPad, tailLive: s.out - 4*(quads-1),
		wq: wq, corr: corr, scale: scale,
		bias: padF32(s.b, quads*4), invIn: inv,
	}, nil
}

func (st *qconvStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if cols != st.in {
		panic("ml: quantized Conv1D channel mismatch")
	}
	if rows < st.kernel {
		panic("ml: quantized Conv1D input shorter than kernel")
	}
	outT := (rows-st.kernel)/st.stride + 1
	poolT := outT
	if st.pool > 0 {
		poolT = outT / st.pool
		if poolT == 0 {
			poolT = 1
		}
	}
	n := rows * cols
	qx := sc.qbuf(2*si, n+q8KChunk)
	quantizeU8(x[:n], st.invIn, qx)
	// Element offsets of each window's dst row, advancing one row of st.out
	// floats per pool-full of windows (every window when unpooled) and
	// pinning at the last row so the final window absorbs the remainder —
	// min(i/pool, poolT-1)·out without a division per window.
	off := sc.ibuf(2*si, outT)
	step := st.pool
	if step == 0 {
		step = 1
	}
	e, c, last := 0, 0, (poolT-1)*st.out
	for i := 0; i < outT; i++ {
		off[i] = int32(e)
		if c++; c == step && e != last {
			c, e = 0, e+st.out
		}
	}
	y := sc.buf(3*si, poolT*st.out)
	for i := range y {
		y[i] = negInf32
	}
	floor := negInf32
	if st.relu {
		floor = 0
	}
	gemmQ8Fused(outT, st.quads, st.kPad/q8KChunk, st.stride*st.in, qx, st.wq,
		st.corr, st.scale, st.bias, off, y, st.out, floor, false, st.tailLive)
	return y, poolT, st.out
}

// qdenseStage is a body denseStage in int8 (the model head never reaches
// here — Quantize keeps it f32).
type qdenseStage struct {
	in, out               int
	relu                  bool
	quads, kPad, tailLive int
	wq                    []int8
	corr                  []int32
	scale, bias           []float32
	invIn                 float32
}

func quantizeDense(s *denseStage, absmax float64) (*qdenseStage, error) {
	sx, inv, err := actScale(absmax)
	if err != nil {
		return nil, err
	}
	wq, corr, scale, quads, kPad, err := packQ8(s.w, s.out, s.in, sx)
	if err != nil {
		return nil, err
	}
	return &qdenseStage{
		in: s.in, out: s.out, relu: s.relu,
		quads: quads, kPad: kPad, tailLive: s.out - 4*(quads-1),
		wq: wq, corr: corr, scale: scale,
		bias: padF32(s.b, quads*4), invIn: inv,
	}, nil
}

func (st *qdenseStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if rows*cols != st.in {
		panic("ml: quantized Dense input size mismatch")
	}
	qx := sc.qbuf(2*si, st.in+q8KChunk)
	quantizeU8(x[:st.in], st.invIn, qx)
	off := sc.ibuf(2*si, 1)
	off[0] = 0
	y := sc.buf(3*si, st.out)
	for i := range y {
		y[i] = negInf32
	}
	floor := negInf32
	if st.relu {
		floor = 0
	}
	gemmQ8Fused(1, st.quads, st.kPad/q8KChunk, 0, qx, st.wq,
		st.corr, st.scale, st.bias, off, y, st.out, floor, false, st.tailLive)
	return y, 1, st.out
}

// qlstmStage quantizes both LSTM matmuls: the input projection (all steps
// in one strided gemmQ8Fused with the bias in the epilogue) and the
// per-step recurrent h·Whᵀ (a one-row add-merge into the projected gate
// row). The hidden state re-quantizes each step at the pinned 1/127 scale;
// gate nonlinearities run through the fast f32 sigmoid/tanh (mathfast.go).
// 4H is a multiple of 4, so both GEMMs use full quads.
type qlstmStage struct {
	in, hidden     int
	invIn          float32
	wxq            []int8
	wxCorr         []int32
	wxScale, bias  []float32
	kPadX          int
	whq            []int8
	whCorr         []int32
	whScale, zeroB []float32
	kPadH          int
}

// q8HInv is the pinned reciprocal scale of the LSTM hidden state
// (|h| < 1 ⇒ sx = 1/127 ⇒ inv = 127).
const q8HInv = float32(q8ActMax)

func quantizeLSTM(s *lstmStage, absmax float64) (*qlstmStage, error) {
	sx, inv, err := actScale(absmax)
	if err != nil {
		return nil, err
	}
	H4 := 4 * s.hidden
	wxq, wxCorr, wxScale, _, kPadX, err := packQ8(s.wx, H4, s.in, sx)
	if err != nil {
		return nil, err
	}
	whq, whCorr, whScale, _, kPadH, err := packQ8(s.wh, H4, s.hidden, 1.0/q8ActMax)
	if err != nil {
		return nil, err
	}
	return &qlstmStage{
		in: s.in, hidden: s.hidden, invIn: inv,
		wxq: wxq, wxCorr: wxCorr, wxScale: wxScale,
		bias: padF32(s.b, H4), kPadX: kPadX,
		whq: whq, whCorr: whCorr, whScale: whScale,
		zeroB: make([]float32, H4), kPadH: kPadH,
	}, nil
}

func (st *qlstmStage) forward(sc *inferScratch, si int, x []float32, rows, cols, workers int) ([]float32, int, int) {
	if cols != st.in {
		panic("ml: quantized LSTM input channel mismatch")
	}
	T, H := rows, st.hidden
	n := T * st.in
	qx := sc.qbuf(2*si, n+q8KChunk)
	quantizeU8(x[:n], st.invIn, qx)
	off := sc.ibuf(2*si, T)
	for i, e := 0, 0; i < T; i, e = i+1, e+4*H {
		off[i] = int32(e)
	}
	pre := sc.buf(3*si, T*4*H)
	for i := range pre {
		pre[i] = negInf32
	}
	gemmQ8Fused(T, H, st.kPadX/q8KChunk, st.in, qx, st.wxq,
		st.wxCorr, st.wxScale, st.bias, off, pre, 4*H, negInf32, false, 4)
	h := sc.buf(3*si+1, H)
	c := sc.buf(3*si+2, H)
	for i := 0; i < H; i++ {
		h[i], c[i] = 0, 0
	}
	qh := sc.qbuf(2*si+1, H+q8KChunk)
	off0 := sc.ibuf(2*si+1, 1)
	off0[0] = 0
	for t := 0; t < T; t++ {
		preRow := pre[t*4*H : (t+1)*4*H]
		// h(0) quantizes to exactly the zero point, so the first step's
		// recurrent term is exactly zero — no special case needed.
		quantizeU8(h, q8HInv, qh)
		gemmQ8Fused(1, H, st.kPadH/q8KChunk, 0, qh, st.whq,
			st.whCorr, st.whScale, st.zeroB, off0, preRow, 4*H, 0, true, 4)
		// Gate nonlinearities run vectorized in place over the
		// pre-activation row: i, f, o occupy the first 3H lanes (sigmoid),
		// g the last H (tanh). The elementwise recurrences below keep the
		// scalar path's exact f32 expression shapes.
		sigmoid32Vec(preRow[:3*H], preRow[:3*H])
		tanh32Vec(preRow[3*H:], preRow[3*H:])
		for j := 0; j < H; j++ {
			c[j] = preRow[H+j]*c[j] + preRow[j]*preRow[3*H+j]
		}
		tanh32Vec(c, h)
		for j := 0; j < H; j++ {
			h[j] *= preRow[2*H+j]
		}
	}
	return h, 1, H
}
