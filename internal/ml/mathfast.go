package ml

import "math"

// Fast float32 transcendentals for the frozen inference tiers. The compiled
// f32 path computes LSTM gates through math.Exp/math.Tanh in float64 —
// accurate, but ~15% of a CNN+LSTM forward pass. The quantized tier's
// acceptance bar is argmax agreement (not bitwise parity), so its gate
// nonlinearities use a Cephes-style single-precision exp with ~1e-7
// relative error: pure Go, no table, deterministic on every platform.

const (
	fexpLog2E = float32(1.44269504088896341)
	fexpC1    = float32(0.693359375)    // ln 2, high part
	fexpC2    = float32(-2.12194440e-4) // ln 2, low part
)

// fastExp32 approximates e^x in float32: split x = n·ln2 + r with
// |r| ≤ ln2/2, evaluate a degree-5 polynomial for e^r, and scale by 2^n
// through the exponent bits.
func fastExp32(x float32) float32 {
	if x != x {
		return x
	}
	if x > 88.02 {
		return float32(math.Inf(1))
	}
	if x < -87.33 {
		return 0
	}
	z := x*fexpLog2E + 0.5
	n := int32(z)
	if z < 0 && float32(n) != z {
		n--
	}
	fn := float32(n)
	r := x - fn*fexpC1
	r -= fn * fexpC2
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	p = p*r*r + r + 1
	return p * math.Float32frombits(uint32(127+n)<<23)
}

// fastSigmoid32 is 1/(1+e^-x) over fastExp32.
func fastSigmoid32(x float32) float32 { return 1 / (1 + fastExp32(-x)) }

// fastTanh32 is tanh via e^2x: 1 − 2/(e^2x + 1); the exp clamp makes the
// tails saturate to exactly ±1.
func fastTanh32(x float32) float32 {
	return 1 - 2/(fastExp32(2*x)+1)
}

// sigmoid32Vec writes fastSigmoid32 of each element of x into y (which may
// be x itself): eight lanes at a time through the AVX2 kernel when the
// int8 tier's CPU gate is up, with the scalar twin covering the tail and
// the no-AVX2 path bit-identically.
func sigmoid32Vec(x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	n := 0
	if useInt8 {
		if n = len(x) &^ 7; n > 0 {
			sigmoid32AVX(n, &x[0], &y[0])
		}
	}
	for i := n; i < len(x); i++ {
		y[i] = fastSigmoid32(x[i])
	}
}

// tanh32Vec is sigmoid32Vec's tanh counterpart over fastTanh32.
func tanh32Vec(x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	n := 0
	if useInt8 {
		if n = len(x) &^ 7; n > 0 {
			tanh32AVX(n, &x[0], &y[0])
		}
	}
	for i := n; i < len(x); i++ {
		y[i] = fastTanh32(x[i])
	}
}
