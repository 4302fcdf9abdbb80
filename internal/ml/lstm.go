package ml

import (
	"math"

	"repro/internal/sim"
)

// LSTM is a single-layer long short-term memory network returning the final
// hidden state (the shape the paper's classifier uses before its dense
// softmax layer).
//
// The input-to-gate projection for every time step is one GEMM per sample
// (pre = b + x·Wxᵀ); only the recurrent Wh·h term and the gate
// nonlinearities run per step, carrying the whole batch's hidden and cell
// state through each timestep together. Backward mirrors this: the
// per-step loop only propagates the recurrence, and all parameter/input
// gradients reduce to three GEMMs per sample over the stored dpre matrix.
type LSTM struct {
	In, Hidden int

	wx *Param // 4H × In  (gate order: i, f, o, g)
	wh *Param // 4H × H
	b  *Param // 4H

	// Saved forward state for BPTT, per sample. pre holds the T×4H
	// pre-activations during forward and is reused as the dpre matrix
	// during backward.
	x           *batchT
	steps       int       // T of the saved batch
	pre, gates  []float64 // B × T × 4H (gates post-activation)
	cells, hids []float64 // B × T × H
	h0          []float64 // H zeros (initial state)
	dh, dc      []float64 // B × H recurrence state (backward)
	out, dx     *batchT
}

// NewLSTM creates an LSTM with Glorot-initialized weights and forget-gate
// bias 1 (standard trick for gradient flow).
func NewLSTM(rng *sim.Stream, in, hidden int) *LSTM {
	l := &LSTM{In: in, Hidden: hidden,
		wx: newParam(4 * hidden * in),
		wh: newParam(4 * hidden * hidden),
		b:  newParam(4 * hidden),
	}
	initUniform(rng, l.wx.W, in, hidden)
	initUniform(rng, l.wh.W, hidden, hidden)
	for h := 0; h < hidden; h++ {
		l.b.W[hidden+h] = 1 // forget gate bias
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// forward runs the recurrence over each sample's rows and returns every
// h_T as a B×1×H batch.
func (l *LSTM) forward(x *batchT, train bool, base uint64) *batchT {
	if x.Cols != l.In {
		panic("ml: LSTM input channel mismatch")
	}
	B, T, H := x.N, x.Rows, l.Hidden
	l.x = x
	l.steps = T
	l.pre = growF(l.pre, B*T*4*H)
	l.gates = growF(l.gates, B*T*4*H)
	l.cells = growF(l.cells, B*T*H)
	l.hids = growF(l.hids, B*T*H)
	l.h0 = growF(l.h0, H)
	zeroF(l.h0)

	// Input contribution for every step at once: pre = b + x·Wxᵀ.
	for s := 0; s < B; s++ {
		pre := l.pre[s*T*4*H : (s+1)*T*4*H]
		for t := 0; t < T; t++ {
			copy(pre[t*4*H:(t+1)*4*H], l.b.W)
		}
		GemmNT(T, 4*H, l.In, x.sample(s), l.In, l.wx.W, l.In, pre, 4*H, true)
	}
	for t := 0; t < T; t++ {
		for s := 0; s < B; s++ {
			hPrev, cPrev := l.h0, l.h0
			if t > 0 {
				hPrev = l.hids[s*T*H+(t-1)*H : s*T*H+t*H]
				cPrev = l.cells[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			pre := l.pre[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			gemv(4*H, H, l.wh.W, H, hPrev, pre)
			g := l.gates[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			for h := 0; h < H; h++ {
				g[h] = sigmoid(pre[h])           // input gate
				g[H+h] = sigmoid(pre[H+h])       // forget gate
				g[2*H+h] = sigmoid(pre[2*H+h])   // output gate
				g[3*H+h] = math.Tanh(pre[3*H+h]) // candidate
			}
			cRow := l.cells[s*T*H+t*H : s*T*H+(t+1)*H]
			hRow := l.hids[s*T*H+t*H : s*T*H+(t+1)*H]
			for h := 0; h < H; h++ {
				cRow[h] = g[H+h]*cPrev[h] + g[h]*g[3*H+h]
				hRow[h] = g[2*H+h] * math.Tanh(cRow[h])
			}
		}
	}
	l.out = ensureB(l.out, B, 1, H)
	for s := 0; s < B; s++ {
		copy(l.out.sample(s), l.hids[s*T*H+(T-1)*H:s*T*H+T*H])
	}
	return l.out
}

// backward runs full BPTT from the final-state gradients, timestep-major
// over the batch's dh/dc state, then reduces parameter and input gradients
// per sample in ascending order.
func (l *LSTM) backward(grad *batchT) *batchT {
	B, T, H := grad.N, l.steps, l.Hidden
	l.dh = growF(l.dh, B*H)
	l.dc = growF(l.dc, B*H)
	copy(l.dh, grad.Data)
	zeroF(l.dc)

	for t := T - 1; t >= 0; t-- {
		for s := 0; s < B; s++ {
			g := l.gates[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			cRow := l.cells[s*T*H+t*H : s*T*H+(t+1)*H]
			cPrev := l.h0
			if t > 0 {
				cPrev = l.cells[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			dh := l.dh[s*H : (s+1)*H]
			dc := l.dc[s*H : (s+1)*H]
			dpre := l.pre[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			for h := 0; h < H; h++ {
				tc := math.Tanh(cRow[h])
				do := dh[h] * tc
				dct := dc[h] + dh[h]*g[2*H+h]*(1-tc*tc)
				di := dct * g[3*H+h]
				df := dct * cPrev[h]
				dg := dct * g[h]
				dc[h] = dct * g[H+h] // propagate to c_{t-1}

				dpre[h] = di * g[h] * (1 - g[h])
				dpre[H+h] = df * g[H+h] * (1 - g[H+h])
				dpre[2*H+h] = do * g[2*H+h] * (1 - g[2*H+h])
				dpre[3*H+h] = dg * (1 - g[3*H+h]*g[3*H+h])
			}
			// dh_{t-1} = Whᵀ·dpre_t.
			zeroF(dh)
			gemvT(4*H, H, l.wh.W, H, dpre, dh)
		}
	}

	// Parameter and input gradients from each sample's full dpre matrix.
	l.dx = ensureB(l.dx, B, T, l.In)
	zeroF(l.dx.Data)
	for s := 0; s < B; s++ {
		pre := l.pre[s*T*4*H : (s+1)*T*4*H]
		hids := l.hids[s*T*H : (s+1)*T*H]
		for t := 0; t < T; t++ {
			axpy(1, pre[t*4*H:(t+1)*4*H], l.b.G)
		}
		gemmATB(T, 4*H, l.In, pre, 4*H, l.x.sample(s), l.In, l.wx.G, l.In)
		GemmNN(T, l.In, 4*H, pre, 4*H, l.wx.W, l.In, l.dx.sample(s), l.In, true)
		if T > 1 {
			// dWh += Σ_{t≥1} dpre_tᵀ·h_{t-1}; the t=0 term vanishes (h_{-1}=0).
			gemmATB(T-1, 4*H, H, pre[4*H:], 4*H, hids, H, l.wh.G, H)
		}
	}
	return l.dx
}

// Params returns the LSTM's learnables.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

func (l *LSTM) replica() Layer {
	return &LSTM{In: l.In, Hidden: l.Hidden,
		wx: l.wx.sharedGrad(), wh: l.wh.sharedGrad(), b: l.b.sharedGrad()}
}
