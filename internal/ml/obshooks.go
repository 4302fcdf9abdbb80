package ml

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Observability handles for the training engine. Counters and gauges are
// updated once per epoch (an atomic add against minutes of GEMM work);
// spans and timestamps are gated on obs.On() inside Fit, so the training
// hot path is untouched when observability is off.
var (
	mFitCalls   = obs.Default.Counter("ml.fit.calls")
	mFitEpochs  = obs.Default.Counter("ml.fit.epochs")
	mFitSamples = obs.Default.Counter("ml.fit.samples")
	fgLastLoss  = obs.Default.FloatGauge("ml.fit.last_loss")
	hEpochLoss  = obs.Default.Histogram("ml.fit.epoch_loss",
		0.05, 0.1, 0.2, 0.5, 1, 2, 5)
)

// Handles for the training engine's batch dispatch. Each is one atomic add
// per minibatch (a shard fan-out plus dozens of GEMMs), so the counters are
// effectively free next to the work they count.
var (
	mTrainBatches = obs.Default.Counter("ml.train.batches")
	mTrainSamples = obs.Default.Counter("ml.train.samples")
)

// Handles for the compiled-inference path. Batch/sample counters are one
// atomic add per PredictBatch call or micro-batch (thousands of GEMM flops
// each); the fused-kernel wall-clock counter needs time.Now() and is gated
// on obs.On() in PredictBatchInto.
var (
	mCompiles     = obs.Default.Counter("ml.compile.calls")
	mInferBatches = obs.Default.Counter("ml.infer.batches")
	mInferSamples = obs.Default.Counter("ml.infer.samples")
	cInferFusedNS = obs.Default.Counter("ml.infer.fused_ns")
)

// Handles for the int8 quantized tier and the per-classifier artifact
// cache. Quantize runs once per fit; the cache counters are one atomic add
// per PredictBatch call, and fallbacks record every scoring call that
// wanted a fast tier but ran a slower one (failed Compile/Quantize).
var (
	mQuantizes        = obs.Default.Counter("ml.quantize.calls")
	cInferCacheHits   = obs.Default.Counter("ml.infer.cache.hits")
	cInferCacheMisses = obs.Default.Counter("ml.infer.cache.misses")
	cInferFallbacks   = obs.Default.Counter("ml.infer.cache.fallbacks")
)

// fallbackEp marks that a fallback transition was already recorded in the
// flight recorder: a sticky Compile/Quantize failure falls back on every
// scoring call, so the recorder gets the first transition, the counter
// gets them all.
var fallbackEp atomic.Bool

// noteFallback counts one tier fallback and records the first one per
// process as a flight-recorder event.
func noteFallback(tier string) {
	cInferFallbacks.Inc()
	if fallbackEp.CompareAndSwap(false, true) {
		obs.Eventf("fallback", "ml: %s tier unavailable: scoring from a slower tier", tier)
	}
}
