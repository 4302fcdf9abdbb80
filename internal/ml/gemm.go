package ml

import "math"

// Cache-blocked float64 matrix kernels backing Conv1D, LSTM, and the
// data-parallel trainer. All matrices are row-major with an explicit row
// stride (lda/ldb/ldc), which lets Conv1D hand the kernels overlapping
// im2col windows (row stride smaller than the row length) without ever
// materializing the im2col matrix.
//
// Every kernel runs a fixed loop order, so for given inputs the
// floating-point summation order — and therefore the result — is identical
// across runs and worker counts. That property is what lets Fit promise
// bit-identical training at any Parallelism.

// Panel sizes: a K×N panel of B (gemmBlockK × gemmBlockN × 8 bytes = 128 KB)
// stays resident in L2 while every row of A streams against it.
const (
	gemmBlockK = 128
	gemmBlockN = 128
)

// useAVX64 routes the f64 helpers through the AVX2 kernels in
// gemm64_amd64.s. Those kernels use no FMA contraction and mirror the
// generic accumulator lane structure exactly, so flipping this flag never
// changes results — only speed (see gemm64_amd64.go).
var useAVX64 bool

// simdMin is the slice length below which the call overhead of an assembly
// kernel outweighs the vector win; shorter inputs run the generic loops.
const simdMin = 8

// axpy computes y += alpha * x over len(x) elements.
func axpy(alpha float64, x, y []float64) {
	n := len(x)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		axpy64AVX(i, alpha, &x[0], &y[0])
	} else {
		for ; i+3 < n; i += 4 {
			y[i] += alpha * x[i]
			y[i+1] += alpha * x[i+1]
			y[i+2] += alpha * x[i+2]
			y[i+3] += alpha * x[i+3]
		}
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// axpy2 computes y += a0*x0 + a1*x1, touching y once for two source rows.
func axpy2(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64) {
	n := len(y)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		axpy264AVX(i, a0, &x0[0], a1, &x1[0], &y[0])
	} else {
		for ; i+3 < n; i += 4 {
			y[i] += a0*x0[i] + a1*x1[i]
			y[i+1] += a0*x0[i+1] + a1*x1[i+1]
			y[i+2] += a0*x0[i+2] + a1*x1[i+2]
			y[i+3] += a0*x0[i+3] + a1*x1[i+3]
		}
	}
	for ; i < n; i++ {
		y[i] += a0*x0[i] + a1*x1[i]
	}
}

// axpy4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3, touching y once for
// four source rows. The products fold left-to-right before reaching y,
// matching the assembly kernel's expression tree exactly.
func axpy4(a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64, y []float64) {
	n := len(y)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		axpy464AVX(i, a0, &x0[0], a1, &x1[0], a2, &x2[0], a3, &x3[0], &y[0])
	}
	for ; i < n; i++ {
		y[i] += ((a0*x0[i] + a1*x1[i]) + a2*x2[i]) + a3*x3[i]
	}
}

// dot returns the inner product of x and y over len(x) elements, summed in
// eight stride-8 lanes reduced left-to-right (two 4-wide vector chains in
// the AVX2 kernel).
func dot(x, y []float64) float64 {
	n := len(x)
	var s float64
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 7
		s = dot64AVX(i, &x[0], &y[0])
	} else {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for ; i+7 < n; i += 8 {
			s0 += x[i] * y[i]
			s1 += x[i+1] * y[i+1]
			s2 += x[i+2] * y[i+2]
			s3 += x[i+3] * y[i+3]
			s4 += x[i+4] * y[i+4]
			s5 += x[i+5] * y[i+5]
			s6 += x[i+6] * y[i+6]
			s7 += x[i+7] * y[i+7]
		}
		s = ((((((s0 + s1) + s2) + s3) + s4) + s5) + s6) + s7
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// dotLanes4 is the four-lane dot product every GemmNT element uses: four
// stride-4 partial sums reduced ((s0+s1)+s2)+s3 then a sequential tail —
// the scalar twin of one dotNT4x2AVX accumulator.
func dotLanes4(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := ((s0 + s1) + s2) + s3
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// vmulInto computes dst[i] = x[i] * y[i] (gradient masking).
func vmulInto(dst, x, y []float64) {
	n := len(dst)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		vmul64AVX(i, &x[0], &y[0], &dst[0])
	}
	for ; i < n; i++ {
		dst[i] = x[i] * y[i]
	}
}

// maxInto folds x into y elementwise: y[i] = x[i] if x[i] > y[i]. The
// ordered compare keeps y on ties and NaN, matching the branchy generic.
func maxInto(y, x []float64) {
	n := len(y)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		vmax64AVX(i, &x[0], &y[0])
	}
	for ; i < n; i++ {
		if x[i] > y[i] {
			y[i] = x[i]
		}
	}
}

// maxIdxInto folds window row r of x into the running max y and records r
// in idx wherever x[i] > y[i] — the fused value+argmax step of MaxPool1D.
// The strict ordered compare keeps ties and NaN on the earlier row, so the
// fold is exactly the sequential first-strict-improvement argmax.
func maxIdxInto(y []float64, idx []int, x []float64, r int) {
	n := len(y)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		maxidx64AVX(i, &x[0], &y[0], &idx[0], r)
	}
	for ; i < n; i++ {
		if x[i] > y[i] {
			y[i], idx[i] = x[i], r
		}
	}
}

// adamStep applies one Adam update over a parameter blob:
//
//	m = beta1*m + (1-beta1)*g
//	v = beta2*v + (1-beta2)*g*g
//	w -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
//
// The vector path is bit-identical to the scalar loop: every element is
// independent and VMULPD/VADDPD/VDIVPD/VSQRTPD are the same correctly
// rounded IEEE-754 operations the scalar code compiles to.
func adamStep(w, g, m, v []float64, beta1, beta2, lr, eps, bc1, bc2 float64) {
	c1, c2 := 1-beta1, 1-beta2
	n := len(w)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		adam64AVX(i, &g[0], &m[0], &v[0], &w[0], beta1, c1, beta2, c2, bc1, bc2, lr, eps)
	}
	for ; i < n; i++ {
		gv := g[i]
		m[i] = beta1*m[i] + c1*gv
		v[i] = beta2*v[i] + c2*gv*gv
		w[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
	}
}

// reluFwd writes out[i] = max(x[i], 0) and mask[i] = 1 where x[i] > 0
// (else 0) in one pass; the AVX2 path is a branchless compare+AND.
func reluFwd(x, out, mask []float64) {
	n := len(x)
	i := 0
	if useAVX64 && n >= simdMin {
		i = n &^ 3
		relu64AVX(i, &x[0], &out[0], &mask[0])
	}
	for ; i < n; i++ {
		if v := x[i]; v > 0 {
			out[i], mask[i] = v, 1
		} else {
			out[i], mask[i] = 0, 0
		}
	}
}

// GemmNN computes C = A·B (or C += A·B with accumulate) for row-major
// A (m×k, row stride lda), B (k×n, row stride ldb), C (m×n, row stride ldc).
// Row strides may be smaller than the row length, in which case consecutive
// rows alias (Conv1D's overlapping input windows); aliased C requires
// accumulate, since the kernel only ever adds into C after initialization.
func GemmNN(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, accumulate bool) {
	if !accumulate {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		kEnd := k0 + gemmBlockK
		if kEnd > k {
			kEnd = k
		}
		for j0 := 0; j0 < n; j0 += gemmBlockN {
			jEnd := j0 + gemmBlockN
			if jEnd > n {
				jEnd = n
			}
			for i := 0; i < m; i++ {
				arow := a[i*lda:]
				crow := c[i*ldc+j0 : i*ldc+jEnd]
				// Group the rank-1 updates four B rows at a time so C is
				// touched once per quad; quads with any zero A entry
				// (ReLU/dropout-sparse grads) fall back to the pairwise
				// zero-skipping path.
				kk := k0
				for ; kk+3 < kEnd; kk += 4 {
					av0, av1 := arow[kk], arow[kk+1]
					av2, av3 := arow[kk+2], arow[kk+3]
					if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
						continue
					}
					if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
						axpy4(av0, b[kk*ldb+j0:kk*ldb+jEnd],
							av1, b[(kk+1)*ldb+j0:(kk+1)*ldb+jEnd],
							av2, b[(kk+2)*ldb+j0:(kk+2)*ldb+jEnd],
							av3, b[(kk+3)*ldb+j0:(kk+3)*ldb+jEnd], crow)
						continue
					}
					switch {
					case av0 == 0 && av1 == 0:
					case av0 == 0:
						axpy(av1, b[(kk+1)*ldb+j0:(kk+1)*ldb+jEnd], crow)
					case av1 == 0:
						axpy(av0, b[kk*ldb+j0:kk*ldb+jEnd], crow)
					default:
						axpy2(av0, b[kk*ldb+j0:kk*ldb+jEnd],
							av1, b[(kk+1)*ldb+j0:(kk+1)*ldb+jEnd], crow)
					}
					switch {
					case av2 == 0 && av3 == 0:
					case av2 == 0:
						axpy(av3, b[(kk+3)*ldb+j0:(kk+3)*ldb+jEnd], crow)
					case av3 == 0:
						axpy(av2, b[(kk+2)*ldb+j0:(kk+2)*ldb+jEnd], crow)
					default:
						axpy2(av2, b[(kk+2)*ldb+j0:(kk+2)*ldb+jEnd],
							av3, b[(kk+3)*ldb+j0:(kk+3)*ldb+jEnd], crow)
					}
				}
				if kk+1 < kEnd {
					av0, av1 := arow[kk], arow[kk+1]
					switch {
					case av0 == 0 && av1 == 0:
					case av0 == 0:
						axpy(av1, b[(kk+1)*ldb+j0:(kk+1)*ldb+jEnd], crow)
					case av1 == 0:
						axpy(av0, b[kk*ldb+j0:kk*ldb+jEnd], crow)
					default:
						axpy2(av0, b[kk*ldb+j0:kk*ldb+jEnd],
							av1, b[(kk+1)*ldb+j0:(kk+1)*ldb+jEnd], crow)
					}
					kk += 2
				}
				if kk < kEnd {
					if av := arow[kk]; av != 0 {
						axpy(av, b[kk*ldb+j0:kk*ldb+jEnd], crow)
					}
				}
			}
		}
	}
}

// GemmNT computes C = A·Bᵀ (or C += A·Bᵀ) for row-major A (m×k, stride lda),
// B (n×k, stride ldb), C (m×n, stride ldc): every C entry is a dot product
// of two contiguous rows, always summed in dotLanes4 order. The hot path is
// a 2×4 micro-tile (two A rows share each load of four B rows) that the
// dotNT4x2AVX kernel retires four lanes at a time; row/column remainders
// fall back to scalar dotLanes4 calls with identical per-element order.
func GemmNT(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, accumulate bool) {
	if !accumulate {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	var sums [8]float64
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		kEnd := k0 + gemmBlockK
		if kEnd > k {
			kEnd = k
		}
		kl := kEnd - k0
		k4 := kl &^ 3
		for j0 := 0; j0 < n; j0 += gemmBlockN {
			jEnd := j0 + gemmBlockN
			if jEnd > n {
				jEnd = n
			}
			i := 0
			for ; i+1 < m; i += 2 {
				a0 := a[i*lda+k0 : i*lda+kEnd]
				a1 := a[(i+1)*lda+k0 : (i+1)*lda+kEnd]
				c0 := c[i*ldc:]
				c1 := c[(i+1)*ldc:]
				j := j0
				if useAVX64 && k4 >= 4 {
					for ; j+3 < jEnd; j += 4 {
						b0 := b[j*ldb+k0 : j*ldb+kEnd]
						b1 := b[(j+1)*ldb+k0 : (j+1)*ldb+kEnd]
						b2 := b[(j+2)*ldb+k0 : (j+2)*ldb+kEnd]
						b3 := b[(j+3)*ldb+k0 : (j+3)*ldb+kEnd]
						dotNT4x2AVX(k4, &a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], &sums[0])
						for p := k4; p < kl; p++ {
							av0, av1 := a0[p], a1[p]
							sums[0] += av0 * b0[p]
							sums[1] += av0 * b1[p]
							sums[2] += av0 * b2[p]
							sums[3] += av0 * b3[p]
							sums[4] += av1 * b0[p]
							sums[5] += av1 * b1[p]
							sums[6] += av1 * b2[p]
							sums[7] += av1 * b3[p]
						}
						c0[j] += sums[0]
						c0[j+1] += sums[1]
						c0[j+2] += sums[2]
						c0[j+3] += sums[3]
						c1[j] += sums[4]
						c1[j+1] += sums[5]
						c1[j+2] += sums[6]
						c1[j+3] += sums[7]
					}
				} else {
					for ; j+3 < jEnd; j += 4 {
						b0 := b[j*ldb+k0 : j*ldb+kEnd]
						b1 := b[(j+1)*ldb+k0 : (j+1)*ldb+kEnd]
						b2 := b[(j+2)*ldb+k0 : (j+2)*ldb+kEnd]
						b3 := b[(j+3)*ldb+k0 : (j+3)*ldb+kEnd]
						c0[j] += dotLanes4(a0, b0)
						c0[j+1] += dotLanes4(a0, b1)
						c0[j+2] += dotLanes4(a0, b2)
						c0[j+3] += dotLanes4(a0, b3)
						c1[j] += dotLanes4(a1, b0)
						c1[j+1] += dotLanes4(a1, b1)
						c1[j+2] += dotLanes4(a1, b2)
						c1[j+3] += dotLanes4(a1, b3)
					}
				}
				for ; j < jEnd; j++ {
					brow := b[j*ldb+k0 : j*ldb+kEnd]
					c0[j] += dotLanes4(a0, brow)
					c1[j] += dotLanes4(a1, brow)
				}
			}
			if i < m {
				arow := a[i*lda+k0 : i*lda+kEnd]
				crow := c[i*ldc:]
				for j := j0; j < jEnd; j++ {
					crow[j] += dotLanes4(arow, b[j*ldb+k0:j*ldb+kEnd])
				}
			}
		}
	}
}

// gemmATB computes C += Aᵀ·B for row-major A (m×k, stride lda), B (m×n,
// stride ldb), C (k×n, stride ldc) — the shape of every weight-gradient
// accumulation (dW += gradᵀ·activations). The j-outer order keeps each C
// row register/L1-resident while B streams.
func gemmATB(m, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < k; j++ {
		crow := c[j*ldc : j*ldc+n]
		i := 0
		for ; i+3 < m; i += 4 {
			av0, av1 := a[i*lda+j], a[(i+1)*lda+j]
			av2, av3 := a[(i+2)*lda+j], a[(i+3)*lda+j]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				axpy4(av0, b[i*ldb:i*ldb+n], av1, b[(i+1)*ldb:(i+1)*ldb+n],
					av2, b[(i+2)*ldb:(i+2)*ldb+n], av3, b[(i+3)*ldb:(i+3)*ldb+n], crow)
				continue
			}
			switch {
			case av0 == 0 && av1 == 0:
			case av0 == 0:
				axpy(av1, b[(i+1)*ldb:(i+1)*ldb+n], crow)
			case av1 == 0:
				axpy(av0, b[i*ldb:i*ldb+n], crow)
			default:
				axpy2(av0, b[i*ldb:i*ldb+n], av1, b[(i+1)*ldb:(i+1)*ldb+n], crow)
			}
			switch {
			case av2 == 0 && av3 == 0:
			case av2 == 0:
				axpy(av3, b[(i+3)*ldb:(i+3)*ldb+n], crow)
			case av3 == 0:
				axpy(av2, b[(i+2)*ldb:(i+2)*ldb+n], crow)
			default:
				axpy2(av2, b[(i+2)*ldb:(i+2)*ldb+n], av3, b[(i+3)*ldb:(i+3)*ldb+n], crow)
			}
		}
		if i+1 < m {
			av0, av1 := a[i*lda+j], a[(i+1)*lda+j]
			switch {
			case av0 == 0 && av1 == 0:
			case av0 == 0:
				axpy(av1, b[(i+1)*ldb:(i+1)*ldb+n], crow)
			case av1 == 0:
				axpy(av0, b[i*ldb:i*ldb+n], crow)
			default:
				axpy2(av0, b[i*ldb:i*ldb+n], av1, b[(i+1)*ldb:(i+1)*ldb+n], crow)
			}
			i += 2
		}
		if i < m {
			if av := a[i*lda+j]; av != 0 {
				axpy(av, b[i*ldb:i*ldb+n], crow)
			}
		}
	}
}

// gemv computes y += A·x for row-major A (m×n, stride lda), x (n), y (m).
func gemv(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		y[i] += dot(a[i*lda:i*lda+n], x)
	}
}

// gemvT computes y += Aᵀ·x for row-major A (m×n, stride lda), x (m), y (n).
func gemvT(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		if xv := x[i]; xv != 0 {
			axpy(xv, a[i*lda:i*lda+n], y)
		}
	}
}
