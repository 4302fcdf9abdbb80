// Package trace defines the side-channel trace and the columnar Store that
// holds every labeled dataset from collection to classifier, along with
// downsampling, stratified k-fold splitting, and the TRSF shard file format
// (shard.go), the only on-disk form of a dataset.
package trace

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Trace is one recorded attack trace: counter values per period.
type Trace struct {
	// Domain is the website loaded while recording.
	Domain string
	// Label is the class index used for training (101 = the open-world
	// "non-sensitive" class in open-world experiments).
	Label int
	// Attack names the attacker that produced the trace
	// ("loop-counting", "sweep-counting").
	Attack string
	// Period is the attacker's sampling period P.
	Period sim.Duration
	// Values holds one counter value per period.
	Values []float64
}

// Fold is one cross-validation split of trace indices.
type Fold struct {
	Train []int
	Test  []int
}

// KFold produces k stratified folds over the store's traces: each class's
// traces are spread evenly across test sets, as in the paper's 10-fold
// cross-validation (§4.1).
func (s *Store) KFold(k int, seed uint64) ([]Fold, error) {
	if k < 2 {
		return nil, errors.New("trace: k must be >= 2")
	}
	if s.n < k {
		return nil, fmt.Errorf("trace: %d traces cannot fill %d folds", s.n, k)
	}
	rng := sim.NewStream(seed, "kfold")
	testOf := make([]int, s.n) // the fold whose test set holds trace i
	testSets := make([][]int, k)
	turn := 0
	for _, idx := range s.byClass() {
		if len(idx) == 0 {
			continue
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			testOf[i] = turn % k
			testSets[turn%k] = append(testSets[turn%k], i)
			turn++
		}
	}
	folds := make([]Fold, k)
	for f := range folds {
		folds[f].Test = testSets[f]
		for i, tf := range testOf {
			if tf != f {
				folds[f].Train = append(folds[f].Train, i)
			}
		}
	}
	return folds, nil
}

// byClass groups trace indices by label, in label order; a class with no
// traces gets an empty group.
func (s *Store) byClass() [][]int {
	groups := make([][]int, s.classes)
	for i, l := range s.labels {
		groups[l] = append(groups[l], i)
	}
	return groups
}

// Downsample reduces xs by averaging non-overlapping windows of `factor`
// samples (trailing partial windows are averaged too).
func Downsample(xs []float64, factor int) []float64 {
	return DownsampleInto(nil, xs, factor)
}

// DownsampleInto is Downsample appending into dst[:0]; dst is grown as
// needed and must not alias xs. Returns the result slice.
func DownsampleInto(dst, xs []float64, factor int) []float64 {
	if factor <= 1 {
		if cap(dst) < len(xs) {
			dst = make([]float64, len(xs))
		}
		dst = dst[:len(xs)]
		copy(dst, xs)
		return dst
	}
	n := (len(xs) + factor - 1) / factor
	if cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	out := dst[:n]
	// Full windows first: indexed stores over fixed-width slices keep the
	// inner loop bounds-check-free (this is the hottest loop in the
	// serving preprocessing path). Trailing partial window handled after.
	den := float64(factor)
	full := len(xs) / factor
	for b := 0; b < full; b++ {
		var s float64
		for _, v := range xs[b*factor : (b+1)*factor] {
			s += v
		}
		out[b] = s / den
	}
	if rem := len(xs) - full*factor; rem > 0 {
		var s float64
		for _, v := range xs[full*factor:] {
			s += v
		}
		out[full] = s / float64(rem)
	}
	return out
}

// MeanTrace averages the given traces sample-wise (they must share length);
// used for Figure 4's 100-run averaged plots.
func MeanTrace(traces []Trace) ([]float64, error) {
	if len(traces) == 0 {
		return nil, errors.New("trace: MeanTrace of empty set")
	}
	n := len(traces[0].Values)
	out := make([]float64, n)
	for _, t := range traces {
		if len(t.Values) != n {
			return nil, fmt.Errorf("trace: MeanTrace length mismatch %d != %d", len(t.Values), n)
		}
		for i, v := range t.Values {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(traces))
	}
	return out, nil
}
