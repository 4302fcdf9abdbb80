package ml

import (
	"runtime"
	"sync"
)

// maxGradShards is the fixed number of gradient shards a minibatch splits
// into. It is deliberately independent of FitConfig.Parallelism: the shard
// boundaries and the shard-order gradient reduction define the
// floating-point summation order, so any worker count — including 1 —
// produces bit-identical training. Workers beyond maxGradShards idle
// during the backward pass but still accelerate validation and inference.
const maxGradShards = 8

// parWorkers clamps a requested worker count (0 = GOMAXPROCS) to [1, n].
func parWorkers(par, n int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	return par
}

// forEachSample runs fn(model, i) for every i in [0, n) across par workers,
// each on a weight-sharing replica (or the model itself when serial).
func (s *Sequential) forEachSample(n, par int, fn func(model *Sequential, i int)) {
	s.forEachSampleWorker(n, parWorkers(par, n), func(model *Sequential, _, i int) { fn(model, i) })
}

// forEachSampleWorker partitions [0, n) into `workers` contiguous chunks and
// runs chunk w on worker w's replica.
func (s *Sequential) forEachSampleWorker(n, workers int, fn func(model *Sequential, w, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(s, 0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(model *Sequential, w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(model, w, i)
			}
		}(s.replicate(), w, lo, hi)
	}
	wg.Wait()
}

// replicaState is one training worker: a weight-sharing model replica plus
// its private parameter list and the arenas it reuses for every shard: the
// input batch (when samples are gathered rather than aliased), the
// loss-gradient batch, softmax probabilities, labels, and sample indices.
type replicaState struct {
	seq    *Sequential
	params []*Param
	in     *batchT
	grad   *batchT
	probs  []float64
	labels []int
	idx    []int
}

// engTask is one unit of pool work: a gradient shard (train) or a
// contiguous validation range (eval). It is a plain struct sent by value on
// a buffered channel, so dispatching a batch allocates nothing.
type engTask struct {
	train      bool
	si, S      int
	X          []*Tensor
	y          []int
	batch      []int
	sampleBase uint64
	lo, hi     int // eval range
	slot       int // eval result slot
}

// trainEngine runs data-parallel minibatch training: each batch splits into
// maxGradShards fixed shards, workers process shards on replicas whose
// gradient accumulators are rebound to per-shard buffers, and the buffers
// reduce into the shared model parameters in shard order.
//
// The engine owns a persistent worker pool: one goroutine per replica,
// started once per Fit and fed shard/eval tasks over a buffered channel, so
// the per-batch cost is a WaitGroup add and S channel sends instead of
// goroutine spawns and replica re-derivation. Fit must close() the engine
// to release the workers.
type trainEngine struct {
	params    []*Param
	replicas  []*replicaState
	shardG    [][][]float64 // [shard][param][elem]
	shardLoss [maxGradShards]float64

	tasks       chan engTask
	wg          sync.WaitGroup
	evalCorrect [maxGradShards]int
}

// newTrainEngine builds the engine for one Fit: replicas, per-shard
// gradient buffers, and (when more than one worker) the persistent pool.
func newTrainEngine(s *Sequential, par int) *trainEngine {
	e := &trainEngine{params: s.Params()}
	workers := parWorkers(par, maxGradShards)
	for w := 0; w < workers; w++ {
		rep := s.replicate()
		e.replicas = append(e.replicas, &replicaState{seq: rep, params: rep.Params()})
	}
	for si := 0; si < maxGradShards; si++ {
		bufs := make([][]float64, len(e.params))
		for pi, p := range e.params {
			bufs[pi] = make([]float64, len(p.G))
		}
		e.shardG = append(e.shardG, bufs)
	}
	if workers > 1 {
		e.tasks = make(chan engTask, maxGradShards)
		for _, r := range e.replicas {
			// The channel is passed by value: close() nils e.tasks from the
			// owner goroutine, so workers must not read the field.
			go e.worker(r, e.tasks)
		}
	}
	return e
}

// worker drains the task channel on one replica until close().
func (e *trainEngine) worker(r *replicaState, tasks chan engTask) {
	for t := range tasks {
		if t.train {
			e.runShard(r, t.si, t.S, t.X, t.y, t.batch, t.sampleBase)
		} else {
			e.evalCorrect[t.slot] = e.evalRange(r, t.X, t.y, t.lo, t.hi)
		}
		e.wg.Done()
	}
}

// close releases the worker pool. The engine remains usable serially.
func (e *trainEngine) close() {
	if e.tasks != nil {
		close(e.tasks)
		e.tasks = nil
	}
}

// trainBatch forward/backwards every sample of the batch (indices into X/y)
// and leaves the summed gradients in the model's Param.G, returning the
// summed loss. sampleBase is the epoch-order index of batch[0], used to key
// per-sample randomness.
func (e *trainEngine) trainBatch(X []*Tensor, y []int, batch []int, sampleBase uint64) float64 {
	mTrainBatches.Inc()
	mTrainSamples.Add(int64(len(batch)))
	S := len(batch)
	if S > maxGradShards {
		S = maxGradShards
	}
	for si := 0; si < S; si++ {
		e.shardLoss[si] = 0
		for pi := range e.params {
			zeroF(e.shardG[si][pi])
		}
	}
	if e.tasks == nil || S == 1 {
		r := e.replicas[0]
		for si := 0; si < S; si++ {
			e.runShard(r, si, S, X, y, batch, sampleBase)
		}
	} else {
		e.wg.Add(S)
		for si := 0; si < S; si++ {
			e.tasks <- engTask{train: true, si: si, S: S, X: X, y: y, batch: batch, sampleBase: sampleBase}
		}
		e.wg.Wait()
	}
	var loss float64
	for si := 0; si < S; si++ {
		loss += e.shardLoss[si]
		for pi, p := range e.params {
			axpy(1, e.shardG[si][pi], p.G)
		}
	}
	return loss
}

// sameShapeRun returns how many leading samples of idx (at most limit)
// share X[idx[0]]'s shape: the longest prefix that can run as one batch.
func sameShapeRun(X []*Tensor, idx []int, limit int) int {
	ref := X[idx[0]]
	n := 1
	for n < len(idx) && n < limit && X[idx[n]].Rows == ref.Rows && X[idx[n]].Cols == ref.Cols {
		n++
	}
	return n
}

// input returns the equally shaped samples X[idx[0]], …, X[idx[n-1]] as one
// batch. Samples that are consecutive rows of a packed arena (see Samples)
// are aliased in place, with no copy; otherwise they are gathered into the
// replica's input buffer. Either way the layers read identical bytes.
func (r *replicaState) input(X []*Tensor, idx []int) *batchT {
	consec := true
	for s := 1; s < len(idx); s++ {
		if idx[s] != idx[0]+s {
			consec = false
			break
		}
	}
	if consec {
		if bx := aliasBatch(X, idx[0], len(idx)); bx != nil {
			return bx
		}
	}
	ref := X[idx[0]]
	r.in = ensureB(r.in, len(idx), ref.Rows, ref.Cols)
	for s, i := range idx {
		copy(r.in.sample(s), X[i].Data)
	}
	return r.in
}

// runShard trains replica r on shard si of S: it rebinds the replica's
// gradient accumulators to the shard's buffers, then forward/backwards the
// shard's contiguous slice of the batch. Consecutive same-shape samples run
// as one batch; a shard that mixes shapes runs as consecutive same-shape
// sub-batches. Gradients and the loss accumulate in sample order either
// way, so the split does not change a bit of the result.
func (e *trainEngine) runShard(r *replicaState, si, S int, X []*Tensor, y []int, batch []int, sampleBase uint64) {
	lo, hi := si*len(batch)/S, (si+1)*len(batch)/S
	for pi, p := range r.params {
		p.G = e.shardG[si][pi]
	}
	layers := r.seq.Layers
	var loss float64
	for b := lo; b < hi; {
		idx := batch[b : b+sameShapeRun(X, batch[b:hi], hi-b)]
		r.labels = r.labels[:0]
		for _, i := range idx {
			r.labels = append(r.labels, y[i])
		}
		bx := r.input(X, idx)
		for _, l := range layers {
			bx = l.forward(bx, true, sampleBase+uint64(b))
		}
		r.probs = growF(r.probs, len(bx.Data))
		r.grad = ensureB(r.grad, bx.N, bx.Rows, bx.Cols)
		loss = softmaxCE(bx, r.labels, r.probs, r.grad, loss)
		g := r.grad
		for i := len(layers) - 1; i >= 0; i-- {
			g = layers[i].backward(g)
		}
		b += len(idx)
	}
	e.shardLoss[si] = loss
}

// evalBatchMax caps how many consecutive samples one eval forward packs:
// big enough to amortize the batched kernels, small enough that the
// activation arenas stay cache-resident.
const evalBatchMax = 32

// evalRange scores X[lo:hi) on replica r and returns the top-1 correct
// count. Consecutive same-shape samples forward together, up to
// evalBatchMax at a time; per the batch.go determinism contract each
// sample's logits equal Sequential.Forward's, so the count matches scoring
// one sample at a time exactly.
func (e *trainEngine) evalRange(r *replicaState, X []*Tensor, y []int, lo, hi int) int {
	r.idx = r.idx[:0]
	for i := lo; i < hi; i++ {
		r.idx = append(r.idx, i)
	}
	correct := 0
	for b := 0; b < len(r.idx); {
		idx := r.idx[b : b+sameShapeRun(X, r.idx[b:], evalBatchMax)]
		bx := r.input(X, idx)
		for _, l := range r.seq.Layers {
			bx = l.forward(bx, false, 0)
		}
		C := bx.Rows * bx.Cols
		for s, i := range idx {
			row := bx.Data[s*C : (s+1)*C]
			best := 0
			for c, v := range row {
				if v > row[best] {
					best = c
				}
			}
			if best == y[i] {
				correct++
			}
		}
		b += len(idx)
	}
	return correct
}

// accuracy evaluates top-1 accuracy on (X, y) using the engine's persistent
// workers and replicas — Fit's epoch validation path. The correct-count
// reduction is an integer sum, so the result equals AccuracyParallel for
// every worker count.
func (e *trainEngine) accuracy(X []*Tensor, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	if e.tasks == nil {
		return float64(e.evalRange(e.replicas[0], X, y, 0, len(X))) / float64(len(X))
	}
	W := len(e.replicas)
	if W > len(X) {
		W = len(X)
	}
	e.wg.Add(W)
	for w := 0; w < W; w++ {
		e.tasks <- engTask{X: X, y: y, lo: w * len(X) / W, hi: (w + 1) * len(X) / W, slot: w}
	}
	e.wg.Wait()
	total := 0
	for w := 0; w < W; w++ {
		total += e.evalCorrect[w]
	}
	return float64(total) / float64(len(X))
}
