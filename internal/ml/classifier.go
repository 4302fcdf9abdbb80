package ml

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Classifier is the interface the experiment harness trains and evaluates.
// Scores returns one score per class (higher = more likely); top-k
// accuracy is computed from the full vector.
type Classifier interface {
	Name() string
	Fit(train trace.View) error
	Scores(values []float64) []float64
}

// errEmptyTrain is what every Fit returns for a view with no traces.
var errEmptyTrain = errors.New("trace: dataset is empty")

// BatchScorer is an optional Classifier extension: score many traces in one
// call so the implementation can parallelize across samples. Results must
// equal calling Scores on each trace individually.
type BatchScorer interface {
	ScoresBatch(values [][]float64) [][]float64
}

// Preprocessor standardizes traces before classification: average-downsample
// to a fixed length, optional smoothing, then z-score.
type Preprocessor struct {
	// TargetLen is the post-downsampling length (0 = keep original).
	TargetLen int
	// Smooth applies a centered moving average of this window (0 = off).
	Smooth int
}

// Apply transforms one trace's values.
func (p Preprocessor) Apply(values []float64) []float64 {
	return p.ApplyInto(nil, nil, values)
}

// ApplyInto is Apply with caller-owned scratch: the result lands in buf's
// storage (grown as needed), with tmp as the smoothing intermediate. The
// returned slice aliases buf; values is never modified. With pre-grown
// buffers a call performs zero heap allocations, which is what lets a
// serving layer preprocess per-request without GC pressure
// (TestApplyIntoMatchesApply pins bit-identity with Apply).
func (p Preprocessor) ApplyInto(buf, tmp, values []float64) []float64 {
	var cur []float64
	if p.TargetLen > 0 && len(values) > p.TargetLen {
		factor := (len(values) + p.TargetLen - 1) / p.TargetLen
		buf = trace.DownsampleInto(buf, values, factor)
		cur = buf
	} else {
		if cap(buf) < len(values) {
			buf = make([]float64, len(values))
		}
		buf = buf[:len(values)]
		copy(buf, values)
		cur = buf
	}
	if p.Smooth > 1 {
		tmp = stats.MovingAverageInto(tmp, cur, p.Smooth)
		// Standardize back into buf so the result always aliases it.
		buf = buf[:len(tmp)]
		return stats.ZScoreInto(buf, tmp)
	}
	return stats.ZScoreInto(cur, cur)
}

// DefaultPreprocessor matches the harness defaults: ~300-point traces,
// lightly smoothed.
var DefaultPreprocessor = Preprocessor{TargetLen: 300, Smooth: 3}

// cosine returns the cosine similarity of two equal-length vectors.
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// NearestCentroid classifies by cosine similarity to per-class mean
// traces. On z-scored inputs this is correlation matching — fast and
// surprisingly strong on occupancy-style traces.
type NearestCentroid struct {
	Prep Preprocessor

	centroids [][]float64
}

// Name identifies the classifier.
func (nc *NearestCentroid) Name() string { return "nearest-centroid" }

// Fit computes per-class centroids.
func (nc *NearestCentroid) Fit(train trace.View) error {
	return nc.fit(train, train.NumClasses())
}

// fit computes centroids for classes [0, classes), skipping traces labelled
// beyond them (the open-world non-sensitive class).
func (nc *NearestCentroid) fit(train trace.View, classes int) error {
	if train.Len() == 0 {
		return errEmptyTrain
	}
	sums := make([][]float64, classes)
	counts := make([]int, classes)
	// One scratch pair serves every trace: ApplyInto reuses it in place, so
	// the fit performs two allocations total instead of two per trace.
	n := nc.Prep.OutLen(len(train.Values(0)))
	v, tmp := make([]float64, n), make([]float64, n)
	for i := 0; i < train.Len(); i++ {
		label := train.Label(i)
		if label >= classes {
			continue
		}
		v = nc.Prep.ApplyInto(v, tmp, train.Values(i))
		if sums[label] == nil {
			sums[label] = make([]float64, len(v))
		}
		for j, x := range v {
			sums[label][j] += x
		}
		counts[label]++
	}
	nc.centroids = make([][]float64, classes)
	for c := range sums {
		if counts[c] == 0 {
			continue // class absent from this fold; scores stay 0
		}
		for i := range sums[c] {
			sums[c][i] /= float64(counts[c])
		}
		nc.centroids[c] = sums[c]
	}
	return nil
}

// Scores returns cosine similarity to each class centroid.
func (nc *NearestCentroid) Scores(values []float64) []float64 {
	v := nc.Prep.Apply(values)
	out := make([]float64, len(nc.centroids))
	for c, cen := range nc.centroids {
		if cen == nil {
			out[c] = math.Inf(-1)
			continue
		}
		out[c] = cosine(v, cen)
	}
	return out
}

// KNN is a k-nearest-neighbour classifier with cosine similarity and
// similarity-weighted voting.
type KNN struct {
	K    int
	Prep Preprocessor

	features [][]float64
	labels   []int
	classes  int
}

// Name identifies the classifier.
func (k *KNN) Name() string { return fmt.Sprintf("knn-%d", k.K) }

// Fit memorizes the training set.
func (k *KNN) Fit(train trace.View) error {
	if k.K <= 0 {
		k.K = 5
	}
	k.classes = train.NumClasses()
	// The memorized features live in one columnar arena; each stored
	// feature is a row view, so scoring walks contiguous memory.
	s, err := PackDataset(k.Prep, train)
	if err != nil {
		return err
	}
	k.features = k.features[:0]
	k.labels = append(k.labels[:0], s.Y...)
	for i := 0; i < s.Len(); i++ {
		k.features = append(k.features, s.Row(i))
	}
	return nil
}

// Scores returns similarity-weighted votes among the K nearest neighbours.
func (k *KNN) Scores(values []float64) []float64 {
	v := k.Prep.Apply(values)
	type hit struct {
		sim   float64
		label int
	}
	hits := make([]hit, len(k.features))
	for i, f := range k.features {
		hits[i] = hit{cosine(v, f), k.labels[i]}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].sim > hits[j].sim })
	out := make([]float64, k.classes)
	n := k.K
	if n > len(hits) {
		n = len(hits)
	}
	for _, h := range hits[:n] {
		out[h.label] += h.sim
	}
	return out
}

// LogReg is multinomial logistic regression trained with Adam — the
// harness's compromise between the paper's deep model and experiment
// runtime.
type LogReg struct {
	Prep   Preprocessor
	Epochs int
	Seed   uint64
	// Parallelism is the training/inference worker count (0 = GOMAXPROCS);
	// the trained model and its scores are identical for every value.
	Parallelism int
	// Tier is the inference tier ScoresBatch scores on (zero = compiled).
	Tier InferTier

	model *Sequential
	cc    compiledCache
	inLen int
}

// Name identifies the classifier.
func (lr *LogReg) Name() string { return "logreg" }

// Fit trains softmax regression on preprocessed traces.
func (lr *LogReg) Fit(train trace.View) error {
	if lr.Epochs <= 0 {
		lr.Epochs = 30
	}
	s, err := PackDataset(lr.Prep, train)
	if err != nil {
		return err
	}
	lr.inLen = s.Size()
	lr.cc.setCalib(calibSlice(s))
	rng := newSeedStream(lr.Seed, "logreg")
	lr.model = &Sequential{Layers: []Layer{NewDense(rng, lr.inLen, train.NumClasses())}}
	return lr.model.Fit(s.X, s.Y, nil, nil, FitConfig{
		Epochs: lr.Epochs, BatchSize: 16, LR: 0.01, Seed: lr.Seed,
		Parallelism: lr.Parallelism,
	})
}

// Scores returns class probabilities.
func (lr *LogReg) Scores(values []float64) []float64 {
	v := lr.Prep.Apply(values)
	x := FromSeries(v)
	if x.Rows != lr.inLen {
		// Pad/trim to the trained length (defensive; lengths are
		// normally fixed per experiment).
		d := make([]float64, lr.inLen)
		copy(d, v)
		x = FromSeries(d)
	}
	return lr.model.Predict(x)
}

// ScoresBatch scores traces on the regression's inference tier (see
// BatchScorer and Tier).
func (lr *LogReg) ScoresBatch(values [][]float64) [][]float64 {
	return predictPrepped(lr.model, &lr.cc, lr.Prep, lr.inLen, values, lr.Tier, lr.Parallelism)
}

// CNNLSTM wraps PaperNet as a Classifier: the paper's architecture at a
// configurable scale.
type CNNLSTM struct {
	Prep    Preprocessor
	Filters int
	Hidden  int
	Dropout float64
	Epochs  int
	// LR defaults to the paper's 0.001; small scaled-down nets train
	// faster with a slightly higher rate.
	LR   float64
	Seed uint64
	// Parallelism is the training/inference worker count (0 = GOMAXPROCS);
	// the trained model and its scores are identical for every value.
	Parallelism int
	// Tier is the inference tier ScoresBatch scores on (zero = compiled).
	Tier InferTier

	model *Sequential
	cc    compiledCache
	inLen int
}

// Name identifies the classifier.
func (c *CNNLSTM) Name() string { return "cnn-lstm" }

// Fit trains the network with a 90/10 train/validation split and early
// stopping, mirroring §4.1.
func (c *CNNLSTM) Fit(train trace.View) error {
	if c.Filters <= 0 {
		c.Filters = 16
	}
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.Dropout == 0 {
		c.Dropout = 0.7
	}
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.LR <= 0 {
		c.LR = 0.001
	}
	s, err := PackDataset(c.Prep, train)
	if err != nil {
		return err
	}
	c.inLen = s.Size()
	model, err := PaperNet(c.Seed, c.inLen, train.NumClasses(), c.Filters, c.Hidden, c.Dropout)
	if err != nil {
		return err
	}
	c.model = model
	// Hold out ~10% for early stopping (validation set, §4.1). Each split
	// is re-gathered into its own contiguous arena so epoch validation can
	// alias whole batches straight out of it.
	rng := newSeedStream(c.Seed, "cnnlstm-split")
	idx := rng.Perm(s.Len())
	cut := s.Len() / 10
	if cut == 0 {
		cut = 1
	}
	va := s.Gather(idx[:cut])
	tr := s.Gather(idx[cut:])
	// Calibrate quantization on the held-out split where one exists: scale
	// estimates from data the weights never fit generalize a shade better.
	calib := va
	if calib.Len() == 0 {
		calib = tr
	}
	c.cc.setCalib(calibSlice(calib))
	return c.model.Fit(tr.X, tr.Y, va.X, va.Y, FitConfig{
		Epochs: c.Epochs, BatchSize: 16, LR: c.LR,
		Patience: 4, MinEpochs: 8, Seed: c.Seed,
		Parallelism: c.Parallelism,
	})
}

// Scores returns class probabilities.
func (c *CNNLSTM) Scores(values []float64) []float64 {
	v := c.Prep.Apply(values)
	if len(v) != c.inLen {
		d := make([]float64, c.inLen)
		copy(d, v)
		v = d
	}
	return c.model.Predict(FromSeries(v))
}

// ScoresBatch scores traces on the network's inference tier (see
// BatchScorer and Tier).
func (c *CNNLSTM) ScoresBatch(values [][]float64) [][]float64 {
	return predictPrepped(c.model, &c.cc, c.Prep, c.inLen, values, c.Tier, c.Parallelism)
}

// predictPrepped preprocesses every trace (padding/trimming to the trained
// input length) and scores them on the given tier, falling back one tier
// at a time when an artifact is unavailable: int8 needs the model to both
// compile and quantize (calibration recorded at fit time), compiled needs
// Compile to succeed, and the float64 reference path always works.
// Artifacts are cached per fit generation in cc. par is the worker count
// of every tier (sample-parallel on the reference path, intra-op on the
// fast tiers); scores are bit-identical for every value.
func predictPrepped(model *Sequential, cc *compiledCache, prep Preprocessor, inLen int, values [][]float64, tier InferTier, par int) [][]float64 {
	// One columnar arena holds every preprocessed sample (padded/trimmed to
	// the trained length by the packer); the compiled tier scores its f32
	// mirror directly, the other tiers its tensor headers.
	s := PackValues(prep, inLen, values)
	if tier == TierInt8 {
		if qm := cc.getQuantized(model); qm != nil {
			return qm.PredictBatch(s.X, par)
		}
		noteFallback("int8")
	}
	if tier != TierReference {
		if cm := cc.get(model); cm != nil {
			return cm.PredictSamples(s, par)
		}
		noteFallback("compiled")
	}
	return model.PredictBatch(s.X, par)
}

// calibSlice copies the first q8CalibMax samples of s into their own small
// arena for quantization calibration: retaining s.X[:n] directly would pin
// the entire training arena behind the calibration slice.
func calibSlice(s *Samples) []*Tensor {
	n := min(s.Len(), q8CalibMax)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return s.Gather(idx).X
}

// Freezer is a trained classifier whose model can be frozen into a fast
// inference artifact for long-running serving (see internal/serve): the
// artifact, the preprocessing that must be applied to raw traces before
// scoring, and the trained input length scored traces are padded/trimmed
// to. LogReg and CNNLSTM implement it.
type Freezer interface {
	// Frozen returns the frozen artifact for the requested tier, falling
	// back one tier at a time exactly like batch scoring does (int8 →
	// compiled); the returned tier is the one actually built. Requesting
	// TierReference errors: serving needs a frozen artifact.
	Frozen(tier InferTier) (Frozen, InferTier, error)
	InputLen() int
	Preprocessor() Preprocessor
}

// frozenFrom freezes a fitted model through its artifact cache with the
// same tier-by-tier fallback predictPrepped applies per batch.
func frozenFrom(model *Sequential, cc *compiledCache, tier InferTier) (Frozen, InferTier, error) {
	if model == nil {
		return nil, TierReference, errors.New("ml: Frozen: classifier not fitted")
	}
	if tier == TierReference {
		return nil, TierReference, errors.New("ml: Frozen: serving requires a compiled tier")
	}
	if tier == TierInt8 {
		if qm := cc.getQuantized(model); qm != nil {
			return qm, TierInt8, nil
		}
		noteFallback("int8")
	}
	if cm := cc.get(model); cm != nil {
		return cm, TierCompiled, nil
	}
	return nil, TierReference, errors.New("ml: Frozen: model does not compile")
}

// Frozen freezes the fitted regression for serving (see Freezer).
func (lr *LogReg) Frozen(tier InferTier) (Frozen, InferTier, error) {
	return frozenFrom(lr.model, &lr.cc, tier)
}

// InputLen returns the trained input length (0 before Fit).
func (lr *LogReg) InputLen() int { return lr.inLen }

// Preprocessor returns the preprocessing applied before scoring.
func (lr *LogReg) Preprocessor() Preprocessor { return lr.Prep }

// Frozen freezes the fitted network for serving (see Freezer).
func (c *CNNLSTM) Frozen(tier InferTier) (Frozen, InferTier, error) {
	return frozenFrom(c.model, &c.cc, tier)
}

// InputLen returns the trained input length (0 before Fit).
func (c *CNNLSTM) InputLen() int { return c.inLen }

// Preprocessor returns the preprocessing applied before scoring.
func (c *CNNLSTM) Preprocessor() Preprocessor { return c.Prep }

// SpectralCentroid is a nearest-centroid classifier over FFT magnitude
// features (see SpectralPreprocessor): shift-invariant fingerprinting for
// workloads with unstable onsets such as Tor page loads.
type SpectralCentroid struct {
	Prep SpectralPreprocessor

	centroids [][]float64
}

// Name identifies the classifier.
func (s *SpectralCentroid) Name() string { return "spectral-centroid" }

// Fit computes per-class spectral centroids.
func (s *SpectralCentroid) Fit(train trace.View) error {
	if train.Len() == 0 {
		return errEmptyTrain
	}
	sums := make([][]float64, train.NumClasses())
	counts := make([]int, train.NumClasses())
	for i := 0; i < train.Len(); i++ {
		label := train.Label(i)
		v := s.Prep.Apply(train.Values(i))
		if sums[label] == nil {
			sums[label] = make([]float64, len(v))
		}
		for j, x := range v {
			sums[label][j] += x
		}
		counts[label]++
	}
	s.centroids = make([][]float64, train.NumClasses())
	for c := range sums {
		if counts[c] == 0 {
			continue
		}
		for i := range sums[c] {
			sums[c][i] /= float64(counts[c])
		}
		s.centroids[c] = sums[c]
	}
	return nil
}

// Scores returns cosine similarity to each class's spectral centroid.
func (s *SpectralCentroid) Scores(values []float64) []float64 {
	v := s.Prep.Apply(values)
	out := make([]float64, len(s.centroids))
	for c, cen := range s.centroids {
		if cen == nil {
			out[c] = math.Inf(-1)
			continue
		}
		out[c] = cosine(v, cen)
	}
	return out
}

// AlignedCentroid is a nearest-centroid classifier that searches a window
// of time shifts when scoring: page-load onsets jitter between visits
// (networks, Tor circuits), and the best-shift correlation recovers most
// of what fixed alignment loses.
type AlignedCentroid struct {
	Prep Preprocessor
	// MaxShift is the half-width of the shift search, in (preprocessed)
	// samples. Default 12.
	MaxShift int

	centroids [][]float64
}

// Name identifies the classifier.
func (ac *AlignedCentroid) Name() string { return "aligned-centroid" }

// Fit computes per-class centroids.
func (ac *AlignedCentroid) Fit(train trace.View) error {
	if ac.MaxShift <= 0 {
		ac.MaxShift = 12
	}
	inner := &NearestCentroid{Prep: ac.Prep}
	if err := inner.Fit(train); err != nil {
		return err
	}
	ac.centroids = inner.centroids
	return nil
}

// Scores returns, per class, the maximum cosine similarity over all shifts
// of the test vector within ±MaxShift samples (zero-padded).
func (ac *AlignedCentroid) Scores(values []float64) []float64 {
	v := ac.Prep.Apply(values)
	out := make([]float64, len(ac.centroids))
	shifted := make([]float64, len(v))
	for c, cen := range ac.centroids {
		if cen == nil {
			out[c] = math.Inf(-1)
			continue
		}
		best := math.Inf(-1)
		for s := -ac.MaxShift; s <= ac.MaxShift; s++ {
			shiftInto(shifted, v, s)
			if sim := cosine(shifted, cen); sim > best {
				best = sim
			}
		}
		out[c] = best
	}
	return out
}

// shiftInto writes src shifted by s samples into dst (zero padding).
func shiftInto(dst, src []float64, s int) {
	for i := range dst {
		j := i - s
		if j >= 0 && j < len(src) {
			dst[i] = src[j]
		} else {
			dst[i] = 0
		}
	}
}

// OpenWorldCentroid handles the open-world setting (§4.1): sensitive sites
// get per-class centroids, and the heterogeneous "non-sensitive" class is
// recognized by *rejection* — a trace whose best sensitive-centroid
// similarity falls below a learned threshold is classified non-sensitive.
// The threshold is chosen on the training set to maximize combined
// accuracy, which is what a softmax over 101 classes learns implicitly.
type OpenWorldCentroid struct {
	Prep Preprocessor
	// NSLabel is the non-sensitive class index (= number of sensitive
	// classes).
	NSLabel int

	inner NearestCentroid
	tau   float64
}

// Name identifies the classifier.
func (ow *OpenWorldCentroid) Name() string { return "open-world-centroid" }

// Fit trains sensitive centroids and calibrates the rejection threshold.
func (ow *OpenWorldCentroid) Fit(train trace.View) error {
	if train.Len() == 0 {
		return errEmptyTrain
	}
	if ow.NSLabel <= 0 || ow.NSLabel != train.NumClasses()-1 {
		return fmt.Errorf("ml: OpenWorldCentroid needs NSLabel == NumClasses-1, got %d vs %d",
			ow.NSLabel, train.NumClasses()-1)
	}
	// The inner centroids cover exactly the NSLabel sensitive classes.
	ow.inner = NearestCentroid{Prep: ow.Prep}
	if err := ow.inner.fit(train, ow.NSLabel); err != nil {
		return err
	}

	// Calibrate τ: for each training trace record (bestScore, correct?,
	// isNS), then sweep thresholds at every observed score.
	type obs struct {
		score   float64
		correct bool // argmax == label, for sensitive traces
		ns      bool
	}
	var all []obs
	for i := 0; i < train.Len(); i++ {
		s := ow.inner.Scores(train.Values(i))
		best := stats.ArgMax(s)
		o := obs{score: s[best], ns: train.Label(i) == ow.NSLabel}
		if !o.ns {
			o.correct = best == train.Label(i)
		}
		all = append(all, o)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	// Accepting everything (τ below min) as the starting point.
	bestCorrect := 0
	for _, o := range all {
		if !o.ns && o.correct {
			bestCorrect++
		}
	}
	// Walking τ upward past observation i rejects it: a sensitive trace
	// loses its correctness; an NS trace becomes correct.
	correct := bestCorrect
	ow.tau = math.Inf(-1)
	for i, o := range all {
		if o.ns {
			correct++
		} else if o.correct {
			correct--
		}
		if correct > bestCorrect {
			bestCorrect = correct
			// τ between this score and the next.
			if i+1 < len(all) {
				ow.tau = (o.score + all[i+1].score) / 2
			} else {
				ow.tau = o.score + 1e-9
			}
		}
	}
	return nil
}

// Scores returns sensitive-centroid similarities with the rejection
// threshold appended as the non-sensitive class score: argmax lands on
// NSLabel exactly when every sensitive similarity is below τ.
func (ow *OpenWorldCentroid) Scores(values []float64) []float64 {
	s := ow.inner.Scores(values)
	return append(s, ow.tau)
}
