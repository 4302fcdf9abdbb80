package ml

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Sequential chains layers into a classifier ending in a softmax
// cross-entropy loss.
type Sequential struct {
	Layers []Layer

	// gen counts weight mutations (bumped at every Fit entry). The
	// compiled/quantized inference caches record it when they freeze the
	// model and rebuild when it moves, so a re-fit classifier never serves
	// stale artifacts.
	gen uint64
}

// Params collects every layer's learnables.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs one sample through every layer at inference (dropout off)
// as an N=1 batch: the reference inference tier. The returned tensor is
// owned by the last layer and valid until the model's next forward pass.
func (s *Sequential) Forward(x *Tensor) *Tensor {
	b := batchOfOne(x)
	for _, l := range s.Layers {
		b = l.forward(b, false, 0)
	}
	return &Tensor{Rows: b.Rows, Cols: b.Cols, Data: b.Data}
}

// replicate builds a data-parallel replica: layers share this model's
// weight storage but own their gradient accumulators and activation state.
func (s *Sequential) replicate() *Sequential {
	ls := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		ls[i] = l.replica()
	}
	return &Sequential{Layers: ls}
}

// Softmax converts logits to probabilities (numerically stable).
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	softmaxInto(out, logits)
	return out
}

// softmaxInto writes the softmax of logits into p: shift by the max, then
// exponentiate and normalize.
func softmaxInto(p, logits []float64) {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		p[i] = math.Exp(v - max)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
}

// Adam is the optimizer the paper uses (lr = 0.001).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	params []*Param
	m, v   [][]float64
	t      int
}

// NewAdam creates an Adam optimizer over the given parameters with the
// paper's defaults.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.W)))
		a.v = append(a.v, make([]float64, len(p.W)))
	}
	return a
}

// Step applies one update from the accumulated gradients (scaled by
// 1/batchSize) and zeroes them. The scale is hoisted into a single
// pre-scaling pass over p.G (skipped when batchSize == 1) so the hot
// per-element update touches each gradient exactly once; the trajectory is
// bit-identical to scaling inside the update (see TestAdamGoldenTrajectory).
func (a *Adam) Step(batchSize int) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	if batchSize > 1 {
		scale := 1 / float64(batchSize)
		for _, p := range a.params {
			for i := range p.G {
				p.G[i] *= scale
			}
		}
	}
	for pi, p := range a.params {
		adamStep(p.W, p.G, a.m[pi], a.v[pi], a.Beta1, a.Beta2, a.LR, a.Eps, bc1, bc2)
		p.zeroGrad()
	}
}

// FitConfig controls training.
type FitConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// Patience stops training after this many epochs without validation
	// improvement (the paper stops "when the validation accuracy starts
	// decreasing"). 0 disables early stopping.
	Patience int
	// MinEpochs delays early stopping until at least this many epochs
	// have run, so a slow-starting network is not killed prematurely.
	MinEpochs int
	Seed      uint64
	// Parallelism is the number of training workers (0 = GOMAXPROCS).
	// Each minibatch splits into a fixed number of shards independent of
	// the worker count, workers train weight-sharing model replicas on
	// their shards, and gradients reduce into the shared parameters in
	// shard order — so the trained model is bit-identical for every
	// Parallelism value, including 1.
	Parallelism int
	// Verbose receives per-epoch progress lines when non-nil.
	Verbose func(epoch int, trainLoss, valAcc float64)
}

// Fit trains the model on (X, y) with optional validation-based early
// stopping. Gradients accumulate across each minibatch before an Adam step,
// with minibatch shards processed in parallel (see FitConfig.Parallelism).
func (s *Sequential) Fit(X []*Tensor, y []int, valX []*Tensor, valY []int, cfg FitConfig) error {
	if len(X) == 0 || len(X) != len(y) {
		return errors.New("ml: Fit needs matching non-empty X, y")
	}
	s.gen++ // weights are about to move; invalidate frozen-model caches
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.001
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	eng := newTrainEngine(s, par)
	defer eng.close()
	opt := NewAdam(s.Params(), cfg.LR)
	rng := sim.NewStream(cfg.Seed, "fit")
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	// Epoch loss/throughput hooks: the span and wall clock only exist
	// when observability is on; the per-epoch metric updates are single
	// atomic adds against an epoch of GEMM work.
	sp := obs.StartSpan(nil, "ml.fit")
	sp.SetAttr("samples", len(X)).SetAttr("parallelism", par)
	var losses []float64
	var fitStart time.Time
	if obs.On() {
		fitStart = time.Now()
	}
	epochsRun := 0
	bestVal := -1.0
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var totalLoss float64
		epochBase := uint64(epoch) * uint64(len(X))
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			totalLoss += eng.trainBatch(X, y, order[lo:hi], epochBase+uint64(lo))
			opt.Step(hi - lo)
		}
		avgLoss := totalLoss / float64(len(X))
		epochsRun++
		mFitEpochs.Inc()
		mFitSamples.Add(int64(len(X)))
		fgLastLoss.Set(avgLoss)
		hEpochLoss.Observe(avgLoss)
		if sp != nil {
			losses = append(losses, avgLoss)
		}
		valAcc := math.NaN()
		if len(valX) > 0 {
			// Epoch validation rides the engine's persistent workers and
			// replicas instead of re-replicating per epoch; the integer
			// correct-count reduction matches AccuracyParallel exactly.
			valAcc = eng.accuracy(valX, valY)
			if valAcc > bestVal {
				bestVal = valAcc
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, avgLoss, valAcc)
		}
		if cfg.Patience > 0 && epoch+1 >= cfg.MinEpochs && sinceBest >= cfg.Patience {
			break
		}
	}
	mFitCalls.Inc()
	if sp != nil {
		sp.SetAttr("epochs", epochsRun).SetAttr("losses", losses)
		if bestVal >= 0 {
			sp.SetAttr("best_val_acc", bestVal)
		}
		if sec := time.Since(fitStart).Seconds(); sec > 0 {
			sp.SetAttr("samples_per_sec", float64(epochsRun*len(X))/sec)
		}
		sp.End()
	}
	return nil
}

// Predict returns class probabilities for one input.
func (s *Sequential) Predict(x *Tensor) []float64 {
	out := s.Forward(x)
	return Softmax(out.Data)
}

// PredictBatch returns class probabilities for every input, evaluating
// samples concurrently on par workers (0 = GOMAXPROCS). Each worker runs a
// weight-sharing replica, so the model itself is not mutated and results
// are identical to calling Predict per sample.
func (s *Sequential) PredictBatch(X []*Tensor, par int) [][]float64 {
	out := make([][]float64, len(X))
	s.forEachSample(len(X), par, func(model *Sequential, i int) {
		o := model.Forward(X[i])
		out[i] = Softmax(o.Data)
	})
	return out
}

// Accuracy evaluates top-1 accuracy on a labeled set, scoring samples
// concurrently across GOMAXPROCS workers.
func (s *Sequential) Accuracy(X []*Tensor, y []int) float64 {
	return s.AccuracyParallel(X, y, 0)
}

// AccuracyParallel evaluates top-1 accuracy with an explicit worker count
// (0 = GOMAXPROCS). The correct-count reduction is an integer sum, so the
// result is exact and independent of scheduling.
func (s *Sequential) AccuracyParallel(X []*Tensor, y []int, par int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := make([]int, parWorkers(par, len(X)))
	s.forEachSampleWorker(len(X), len(correct), func(model *Sequential, w, i int) {
		out := model.Forward(X[i])
		best := 0
		for c, v := range out.Data {
			if v > out.Data[best] {
				best = c
			}
		}
		if best == y[i] {
			correct[w]++
		}
	})
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(len(X))
}

// PaperNet builds a scaled version of the paper's classifier (footnote 2):
// two Conv1D+MaxPool pairs, an LSTM, dropout, and a dense softmax head.
// inLen is the input series length; filters/hidden scale the width so tests
// and benchmarks can trade accuracy for runtime (the paper uses 256 filters
// and 32 LSTM units).
func PaperNet(seed uint64, inLen, classes, filters, hidden int, dropout float64) (*Sequential, error) {
	if filters <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("ml: PaperNet needs positive filters/hidden")
	}
	rng := sim.NewStream(seed, "papernet")
	conv1 := NewConv1D(rng.Fork("c1"), 1, filters, 8, 3)
	pool1 := &MaxPool1D{Size: 4}
	conv2 := NewConv1D(rng.Fork("c2"), filters, filters, 8, 3)
	pool2 := &MaxPool1D{Size: 4}
	// Track the time length through the stack to validate inLen.
	t := conv1.outLen(inLen)
	if t > 0 {
		t /= 4
		if t == 0 {
			t = 1
		}
		t = conv2.outLen(t)
	}
	if t <= 0 {
		return nil, fmt.Errorf("ml: input length %d too short for PaperNet", inLen)
	}
	return &Sequential{Layers: []Layer{
		conv1, &ReLU{}, pool1,
		conv2, &ReLU{}, pool2,
		NewLSTM(rng.Fork("lstm"), filters, hidden),
		NewDropout(rng.Fork("drop"), dropout),
		NewDense(rng.Fork("dense"), hidden, classes),
	}}, nil
}
