package ml

import (
	"math"

	"repro/internal/sim"
)

// GRU is a gated recurrent unit returning the final hidden state — a
// lighter alternative to the paper's LSTM with comparable accuracy on
// occupancy-style traces at ~3/4 the parameters.
//
// Like LSTM, the input projection xa = bx + x·Wxᵀ for every step is one
// GEMM per sample; the per-step loop only evaluates the recurrent term and
// gate nonlinearities, timestep-major over the batch, and backward reduces
// all parameter/input gradients to GEMMs over the stored dxa/dha matrices.
type GRU struct {
	In, Hidden int

	wx *Param // 3H × In (gate order: r, z, n)
	wh *Param // 3H × H
	bx *Param // 3H
	bh *Param // 3H (separate bias inside the reset gate, torch-style)

	// Saved forward state for BPTT, per sample.
	x          *batchT
	steps      int       // T of the saved batch
	xa, gates  []float64 // B × T × 3H: Wx·x + bx (reused as dxa in backward); r, z, n
	dha        []float64 // B × T × 3H (backward)
	hpre, hids []float64 // B × T × H: Wh_n·h_{t-1}+bh_n (needed for backward); h_t
	ha, h0     []float64 // 3H per-step scratch; H zeros (initial state)
	dh, dhp    []float64 // B × H recurrence state (backward)
	out, dx    *batchT
}

// NewGRU creates a GRU with Glorot-initialized weights.
func NewGRU(rng *sim.Stream, in, hidden int) *GRU {
	g := &GRU{In: in, Hidden: hidden,
		wx: newParam(3 * hidden * in),
		wh: newParam(3 * hidden * hidden),
		bx: newParam(3 * hidden),
		bh: newParam(3 * hidden),
	}
	initUniform(rng, g.wx.W, in, hidden)
	initUniform(rng, g.wh.W, hidden, hidden)
	return g
}

// forward runs the recurrence over each sample's rows and returns every
// h_T as a B×1×H batch:
//
//	r = σ(Wxr·x + bxr + Whr·h + bhr)
//	z = σ(Wxz·x + bxz + Whz·h + bhz)
//	n = tanh(Wxn·x + bxn + r∘(Whn·h + bhn))
//	h' = (1−z)∘n + z∘h
func (g *GRU) forward(x *batchT, train bool, base uint64) *batchT {
	if x.Cols != g.In {
		panic("ml: GRU input channel mismatch")
	}
	B, T, H := x.N, x.Rows, g.Hidden
	g.x = x
	g.steps = T
	g.xa = growF(g.xa, B*T*3*H)
	g.gates = growF(g.gates, B*T*3*H)
	g.hpre = growF(g.hpre, B*T*H)
	g.hids = growF(g.hids, B*T*H)
	g.ha = growF(g.ha, 3*H)
	g.h0 = growF(g.h0, H)
	zeroF(g.h0)

	// Input contribution for every step at once: xa = bx + x·Wxᵀ.
	for s := 0; s < B; s++ {
		xa := g.xa[s*T*3*H : (s+1)*T*3*H]
		for t := 0; t < T; t++ {
			copy(xa[t*3*H:(t+1)*3*H], g.bx.W)
		}
		GemmNT(T, 3*H, g.In, x.sample(s), g.In, g.wx.W, g.In, xa, 3*H, true)
	}
	for t := 0; t < T; t++ {
		for s := 0; s < B; s++ {
			hPrev := g.h0
			if t > 0 {
				hPrev = g.hids[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			xa := g.xa[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			ha := g.ha
			copy(ha, g.bh.W)
			gemv(3*H, H, g.wh.W, H, hPrev, ha)
			gt := g.gates[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			hRow := g.hids[s*T*H+t*H : s*T*H+(t+1)*H]
			hp := g.hpre[s*T*H+t*H : s*T*H+(t+1)*H]
			for h := 0; h < H; h++ {
				r := sigmoid(xa[h] + ha[h])
				z := sigmoid(xa[H+h] + ha[H+h])
				hp[h] = ha[2*H+h]
				n := math.Tanh(xa[2*H+h] + r*hp[h])
				gt[h], gt[H+h], gt[2*H+h] = r, z, n
				hRow[h] = (1-z)*n + z*hPrev[h]
			}
		}
	}
	g.out = ensureB(g.out, B, 1, H)
	for s := 0; s < B; s++ {
		copy(g.out.sample(s), g.hids[s*T*H+(T-1)*H:s*T*H+T*H])
	}
	return g.out
}

// backward runs BPTT from the final-state gradients, timestep-major (the
// whole batch's dh/dhPrev arrays swap roles each step), filling the
// dxa/dha matrices (dxa overwrites the forward xa buffer); parameter and
// input gradients then reduce per sample in ascending order.
func (g *GRU) backward(grad *batchT) *batchT {
	B, T, H := grad.N, g.steps, g.Hidden
	g.dha = growF(g.dha, B*T*3*H)
	g.dh = growF(g.dh, B*H)
	g.dhp = growF(g.dhp, B*H)
	dhB, dhpB := g.dh, g.dhp
	copy(dhB, grad.Data)

	for t := T - 1; t >= 0; t-- {
		for s := 0; s < B; s++ {
			gt := g.gates[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			hp := g.hpre[s*T*H+t*H : s*T*H+(t+1)*H]
			hPrev := g.h0
			if t > 0 {
				hPrev = g.hids[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			dxa := g.xa[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			dha := g.dha[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			dh := dhB[s*H : (s+1)*H]
			dhPrev := dhpB[s*H : (s+1)*H]
			zeroF(dhPrev)
			for h := 0; h < H; h++ {
				r, z, n := gt[h], gt[H+h], gt[2*H+h]
				dn := dh[h] * (1 - z)
				dz := dh[h] * (hPrev[h] - n)
				dhPrev[h] += dh[h] * z

				dnPre := dn * (1 - n*n)
				dxa[2*H+h] = dnPre
				dha[2*H+h] = dnPre * r
				dr := dnPre * hp[h]

				drPre := dr * r * (1 - r)
				dxa[h] = drPre
				dha[h] = drPre

				dzPre := dz * z * (1 - z)
				dxa[H+h] = dzPre
				dha[H+h] = dzPre
			}
			// dh_{t-1} += Whᵀ·dha_t.
			gemvT(3*H, H, g.wh.W, H, dha, dhPrev)
		}
		dhB, dhpB = dhpB, dhB
	}

	g.dx = ensureB(g.dx, B, T, g.In)
	zeroF(g.dx.Data)
	for s := 0; s < B; s++ {
		xa := g.xa[s*T*3*H : (s+1)*T*3*H]
		dha := g.dha[s*T*3*H : (s+1)*T*3*H]
		hids := g.hids[s*T*H : (s+1)*T*H]
		for t := 0; t < T; t++ {
			axpy(1, xa[t*3*H:(t+1)*3*H], g.bx.G)
			axpy(1, dha[t*3*H:(t+1)*3*H], g.bh.G)
		}
		gemmATB(T, 3*H, g.In, xa, 3*H, g.x.sample(s), g.In, g.wx.G, g.In)
		GemmNN(T, g.In, 3*H, xa, 3*H, g.wx.W, g.In, g.dx.sample(s), g.In, true)
		if T > 1 {
			gemmATB(T-1, 3*H, H, dha[3*H:], 3*H, hids, H, g.wh.G, H)
		}
	}
	return g.dx
}

// Params returns the GRU's learnables.
func (g *GRU) Params() []*Param { return []*Param{g.wx, g.wh, g.bx, g.bh} }

func (g *GRU) replica() Layer {
	return &GRU{In: g.In, Hidden: g.Hidden,
		wx: g.wx.sharedGrad(), wh: g.wh.sharedGrad(),
		bx: g.bx.sharedGrad(), bh: g.bh.sharedGrad()}
}
