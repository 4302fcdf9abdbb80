package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the range
// are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	N      int
}

// NewHistogram creates a histogram with the given number of bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records a value.
func (h *Histogram) Add(v float64) {
	h.N++
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) { // guard against float edge cases
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// AddAll records every value in vs.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Density returns the proportion of in-range samples falling in bin i.
func (h *Histogram) Density(i int) float64 {
	in := h.N - h.Under - h.Over
	if in == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(in)
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// Render draws a simple ASCII bar chart, one row per bin, with the given
// maximum bar width. Useful for figure reproduction on a terminal.
func (h *Histogram) Render(width int) string {
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%10.3f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// ConfusionMatrix accumulates classifier predictions for k classes.
type ConfusionMatrix struct {
	K     int
	Cells []int // row = true label, col = predicted
}

// NewConfusionMatrix creates a k-class confusion matrix.
func NewConfusionMatrix(k int) *ConfusionMatrix {
	return &ConfusionMatrix{K: k, Cells: make([]int, k*k)}
}

// Add records one prediction.
func (c *ConfusionMatrix) Add(trueLabel, predicted int) {
	c.Cells[trueLabel*c.K+predicted]++
}

// At returns the count for (true, predicted).
func (c *ConfusionMatrix) At(trueLabel, predicted int) int {
	return c.Cells[trueLabel*c.K+predicted]
}

// Total returns the number of recorded predictions.
func (c *ConfusionMatrix) Total() int {
	t := 0
	for _, v := range c.Cells {
		t += v
	}
	return t
}

// Accuracy returns the fraction of correct predictions.
func (c *ConfusionMatrix) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.K; i++ {
		correct += c.At(i, i)
	}
	return float64(correct) / float64(t)
}

// ClassRecall returns recall for one class (0 if the class never appears).
func (c *ConfusionMatrix) ClassRecall(label int) float64 {
	row := 0
	for j := 0; j < c.K; j++ {
		row += c.At(label, j)
	}
	if row == 0 {
		return 0
	}
	return float64(c.At(label, label)) / float64(row)
}

// TopKAccuracy computes top-k accuracy from per-sample score vectors.
// scores[i][c] is the score for class c on sample i.
func TopKAccuracy(scores [][]float64, labels []int, k int) float64 {
	if len(scores) == 0 {
		return 0
	}
	correct := 0
	for i, sv := range scores {
		if rankOf(sv, labels[i]) < k {
			correct++
		}
	}
	return float64(correct) / float64(len(scores))
}

// rankOf returns how many classes strictly outscore the target label (its
// 0-based rank). Ties are broken pessimistically against the target when the
// competing index is smaller, matching argsort-stable behaviour.
func rankOf(scores []float64, label int) int {
	target := scores[label]
	rank := 0
	for c, s := range scores {
		if s > target || (s == target && c < label) {
			rank++
		}
	}
	return rank
}

// Summary holds mean ± std in percent, as reported in the paper's tables.
type Summary struct {
	Mean float64
	Std  float64
}

// Summarize converts a slice of accuracy fractions into a percent Summary.
func Summarize(accs []float64) Summary {
	return Summary{Mean: 100 * Mean(accs), Std: 100 * StdDev(accs)}
}

func (s Summary) String() string {
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.Std)
}

// NormalizeMax divides xs by its maximum value, as the paper does when
// plotting Figure 4. It returns a new slice; the input is unchanged. A zero
// max returns a copy unchanged.
func NormalizeMax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m := Max(xs)
	if m == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}

// ZScore standardizes xs to zero mean, unit variance. Zero-variance input
// returns all zeros.
func ZScore(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m, sd := Mean(xs), StdDev(xs)
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// ZScoreInto is ZScore with caller-owned output; dst is grown as needed
// (dst == xs standardizes in place). Returns the result slice.
func ZScoreInto(dst, xs []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	// One fewer pass than Mean+StdDev: StdDev's Variance recomputes the
	// mean internally, so reuse m in its sum-of-squares loop (the result
	// is bit-identical — Mean is deterministic).
	m := Mean(xs)
	var sd float64
	if len(xs) >= 2 {
		var ss float64
		for _, x := range xs {
			d := x - m
			ss += d * d
		}
		sd = math.Sqrt(ss / float64(len(xs)-1))
	}
	if sd == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, x := range xs {
		dst[i] = (x - m) / sd
	}
	return dst
}

// MovingAverage smooths xs with a centered window of the given width.
func MovingAverage(xs []float64, window int) []float64 {
	return MovingAverageInto(nil, xs, window)
}

// MovingAverageInto is MovingAverage with caller-owned output; dst is
// grown as needed and must not alias xs (the centered window reads
// neighbours after they would have been overwritten).
func MovingAverageInto(dst, xs []float64, window int) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	if window <= 1 {
		copy(dst, xs)
		return dst
	}
	out := dst
	half := window / 2
	edge := func(i int) {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(xs) {
			hi = len(xs)
		}
		var s float64
		for j := lo; j < hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo)
	}
	// Interior points all see the full centered window, so sum a
	// fixed-width slice with no clamping — the clamped edge handling only
	// runs for the `half` points at each end. Summation order matches the
	// clamped loop exactly, so results are bit-identical.
	den := float64(2*half + 1)
	lim := len(xs) - half
	for i := 0; i < len(xs) && i < half; i++ {
		edge(i)
	}
	for i := half; i < lim; i++ {
		var s float64
		for _, v := range xs[i-half : i+half+1] {
			s += v
		}
		out[i] = s / den
	}
	for i := max(lim, half); i < len(xs); i++ {
		edge(i)
	}
	return out
}

// ArgMax returns the index of the largest element (first on ties), -1 for
// empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}
