// Package serve is the fingerprint-serving layer: a long-running daemon
// that loads one frozen model (compiled f32 or int8 — see ml.Frozen) and
// classifies traces for many concurrent callers at high, predictable
// throughput.
//
// The core is a micro-batching request pump. Callers never touch the model:
// every request, in-process (Classify) or over TCP (Serve), takes the same
// four steps. It reserves room in a bounded queue, is preprocessed into a
// pooled request slot, is submitted into the room it reserved, and is
// answered by the worker that scores it. One inference worker drains the
// queue, coalescing concurrent requests into dynamic micro-batches aimed
// at the compiled path's fused-GEMM width (ml.MicroBatchMax). One batched score amortizes the per-call costs —
// scratch-arena traffic, head-GEMM setup, scheduler handoffs — that a
// naive one-request-one-PredictBatch design pays per trace.
//
// Admission control comes first, so refusing costs nothing: a request
// that finds the queue full, even after the worker had a turn to drain
// it, is refused with ErrOverloaded before it is decoded or
// preprocessed (callers see back-pressure as an error, not unbounded
// latency). Requests whose deadline has passed are dropped before they
// occupy a batch slot, so a latency spike cannot cascade into wasted
// inference on answers nobody is waiting for.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
)

// Errors returned by Classify. They are sentinel values: transports map
// them onto wire status codes and load generators count them by identity.
var (
	// ErrOverloaded is returned when the submission queue is full — the
	// admission-control signal that the server is saturated.
	ErrOverloaded = errors.New("serve: overloaded: submission queue full")
	// ErrDeadlineExceeded is returned when a request's deadline expired
	// before a worker could score it.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before scoring")
	// ErrServerClosed is returned for submissions after Stop.
	ErrServerClosed = errors.New("serve: server closed")
)

// Config describes a serving instance.
type Config struct {
	// Model is the frozen inference artifact (required): a compiled f32 or
	// int8-quantized model. The worker scores it on a pinned-arena session.
	Model ml.Frozen
	// Prep is applied to every submitted trace before scoring.
	Prep ml.Preprocessor
	// InputLen, when positive, is the model's trained input length:
	// preprocessed traces are zero-padded or trimmed to it, exactly as
	// batch scoring does (ml.Freezer.InputLen). It also sizes pooled
	// request buffers.
	InputLen int
	// MaxBatch caps coalesced batch width (default ml.MicroBatchMax).
	// MaxBatch = 1 degenerates to unbatched serving — the baseline the
	// benchmarks compare against.
	MaxBatch int
	// QueueDepth bounds the submission queue; submissions beyond it shed
	// with ErrOverloaded (default 4 × MaxBatch).
	QueueDepth int
	// Deadline, when positive, stamps every request with submit-time +
	// Deadline; requests still queued past it are dropped with
	// ErrDeadlineExceeded before occupying a batch slot.
	Deadline time.Duration
	// Par is the intra-op GEMM worker count per scoring call (default 1:
	// serving parallelism comes from concurrent requests, not intra-op).
	Par int
}

// Result is one classification outcome.
type Result struct {
	Label int     // argmax class
	Prob  float64 // probability of Label
}

// slot is one pooled in-flight request. Buffers persist across uses, so
// the steady-state submit path performs zero heap allocations.
type slot struct {
	raw   []float64 // a TCP request's decoded trace (DecodeSamples target)
	xs    []float64 // preprocessed trace (ApplyInto target)
	tmp   []float64 // smoothing intermediate
	x     ml.Tensor // header aliasing xs — rebuilt per use, never shared
	probs []float64 // class probabilities (PredictBatchInto row)

	enq      time.Time
	deadline time.Time
	span     *obs.Span

	// The answer goes to an in-process caller through done, which then
	// reads res and err, or, when out is set, to a TCP connection's writer
	// as the response to request id.
	res  Result
	err  error
	done chan struct{} // buffered(1): worker signals completion
	out  chan<- response
	id   uint64
}

// session is the scoring seam the worker drives. *ml.InferSession
// satisfies it; tests substitute blocking fakes to exercise admission
// control without a model.
type session interface {
	PredictBatchInto(X []*ml.Tensor, par int, out [][]float64)
	Close()
}

// Server coalesces concurrent requests into micro-batches scored by one
// inference worker. Safe for concurrent use.
type Server struct {
	cfg   Config
	queue chan *slot
	// queued counts the queue room reserved: requests in the queue plus
	// those reserved and not yet submitted. It never exceeds QueueDepth,
	// the queue's capacity, so a submission never blocks.
	queued atomic.Int64
	slots  sync.Pool
	seq    atomic.Uint64 // request sequence, drives span sampling

	openSession func() session // test seam; defaults to Model.NewSession

	// Episode flags for the flight recorder: hot paths record state
	// *transitions* (entering/leaving an overload or deadline-shedding
	// episode), not every shed, so a saturated server emits two events per
	// episode instead of thousands per second.
	overloadEp atomic.Bool
	deadlineEp atomic.Bool

	mu      sync.RWMutex // guards stopped vs. queue close
	stopped bool
	wg      sync.WaitGroup
}

// Observability handles. Histograms are microsecond-scaled with 1-2-5
// decade bounds so p50/p99 interpolation stays tight from ~1µs to ~1s.
var (
	cRequests  = obs.Default.Counter("serve.requests")
	cBatches   = obs.Default.Counter("serve.batches")
	cShedQueue = obs.Default.Counter("serve.shed_overload")
	cShedDead  = obs.Default.Counter("serve.shed_deadline")

	usBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500,
		1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6}

	hQueueWait = obs.Default.Histogram("serve.queue_wait_us", usBounds...)
	hE2E       = obs.Default.Histogram("serve.e2e_us", usBounds...)
	hBatchSize = obs.Default.Histogram("serve.batch_size",
		1, 2, 4, 8, 12, 16, 24, 32, 48, 64)

	// Windowed views of the same signals: a 10 s window (1 s epochs) feeding
	// live progress lines, and a 1 m window (5 s epochs) for trend. The
	// write cost per request is one atomic index load plus the atomic adds a
	// cumulative instrument already pays — no clock read, no allocation.
	wRequests   = obs.Default.RollingCounter("serve.win.requests", 10*time.Second, 10)
	wE2E        = obs.Default.RollingHistogram("serve.win.e2e_us", 10*time.Second, 10, usBounds...)
	wRequests1m = obs.Default.RollingCounter("serve.win1m.requests", time.Minute, 12)
	wE2E1m      = obs.Default.RollingHistogram("serve.win1m.e2e_us", time.Minute, 12, usBounds...)
)

// ProgressLine renders the serving layer's live view for obs.StartReporter:
// request rate and end-to-end latency quantiles over the last 10 s window,
// then the cumulative totals the lifetime counters hold.
func ProgressLine() string {
	hs := wE2E.Snapshot()
	return fmt.Sprintf(
		"win10s %.1f req/s p50=%.0fµs p95=%.0fµs p99=%.0fµs | total req=%d batches=%d shed=%d/%d",
		wRequests.Rate(), hs.P50, hs.P95, hs.P99,
		cRequests.Value(), cBatches.Value(), cShedQueue.Value(), cShedDead.Value())
}

// spanSampleMask samples one request span per 1024 submissions: enough to
// see representative request timelines in a manifest without the tracer's
// buffer (or its lock) becoming the hot path.
const spanSampleMask = 1<<10 - 1

// New validates cfg, builds the server, and starts its worker.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newServer builds without starting the worker — the white-box seam that
// lets tests drive batch assembly and admission directly.
func newServer(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = ml.MicroBatchMax
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	if cfg.Par <= 0 {
		cfg.Par = 1
	}
	hint := cfg.InputLen
	if hint < 512 {
		hint = 512
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *slot, cfg.QueueDepth),
	}
	s.slots.New = func() any {
		return &slot{
			xs:   make([]float64, 0, hint),
			tmp:  make([]float64, 0, hint),
			done: make(chan struct{}, 1),
		}
	}
	s.openSession = func() session { return cfg.Model.NewSession() }
	return s, nil
}

func (s *Server) start() {
	s.wg.Add(1)
	go s.worker()
}

// Classify scores one trace, blocking until a worker answers or admission
// control sheds the request. values is not retained.
func (s *Server) Classify(values []float64) (Result, error) {
	if !s.reserve() {
		return Result{}, ErrOverloaded
	}
	sl := s.slots.Get().(*slot)
	s.prepare(sl, values)
	s.submit(sl)
	<-sl.done
	res, err := sl.res, sl.err
	s.slots.Put(sl)
	return res, err
}

// reserve takes room in the queue for one request before anything is
// spent on it, and refuses the request when there is none. A full queue
// refuses only after the worker, if runnable, had a turn to drain it: on
// a single P, a reader catching up on a socket backlog after a stall would
// otherwise fill the queue before the worker ran, and refuse requests
// that one drain would have admitted. That takes two yields, not one:
// Gosched puts the caller on the global run queue, which the scheduler
// serves first on one schedule in 61, so a single yield can hand the P
// straight back to the caller; the next schedule cannot.
func (s *Server) reserve() bool {
	cRequests.Inc()
	wRequests.Inc()
	wRequests1m.Inc()
	for yields := 0; !s.tryReserve(); yields++ {
		if yields == 2 {
			cShedQueue.Inc()
			if s.overloadEp.CompareAndSwap(false, true) {
				obs.Eventf("overload", "serve: queue full (depth %d): shedding with ErrOverloaded",
					s.cfg.QueueDepth)
			}
			return false
		}
		runtime.Gosched()
	}
	return true
}

// tryReserve takes one unit of queue room if any is left.
func (s *Server) tryReserve() bool {
	for {
		n := s.queued.Load()
		if n >= int64(s.cfg.QueueDepth) {
			return false
		}
		if s.queued.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// prepare preprocesses values into sl's buffers, padded or trimmed to the
// model's input length.
func (s *Server) prepare(sl *slot, values []float64) {
	if cap(sl.tmp) < len(values) {
		sl.tmp = make([]float64, 0, len(values))
	}
	sl.xs = s.cfg.Prep.ApplyInto(sl.xs, sl.tmp, values)
	if n := s.cfg.InputLen; n > 0 && len(sl.xs) != n {
		sl.xs = resize(sl.xs, n)
	}
	sl.x.Rows, sl.x.Cols, sl.x.Data = len(sl.xs), 1, sl.xs
}

// submit queues a prepared slot into the room reserve took for it; after
// Stop it releases that room and answers ErrServerClosed instead. Queue
// wait and end-to-end latency are timed from here.
func (s *Server) submit(sl *slot) {
	// The RLock pairs with Stop's exclusive section: a submission either
	// observes stopped or completes its send before the queue closes, so
	// no goroutine ever sends on a closed channel.
	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		s.queued.Add(-1)
		s.fail(sl, ErrServerClosed)
		return
	}
	sl.enq = time.Now()
	if s.cfg.Deadline > 0 {
		sl.deadline = sl.enq.Add(s.cfg.Deadline)
	} else {
		sl.deadline = time.Time{}
	}
	if s.seq.Add(1)&spanSampleMask == 0 {
		sl.span = obs.StartSpan(nil, "serve.request")
	} else {
		sl.span = nil
	}
	s.queue <- sl // never blocks: the reservation holds room for it
	s.mu.RUnlock()
	if s.overloadEp.Load() && s.overloadEp.CompareAndSwap(true, false) {
		obs.Eventf("overload", "serve: recovered: queue accepting again")
	}
}

// answer hands a finished slot back: an in-process caller is woken; a TCP
// request's response goes to its connection's writer, and the slot back
// to the pool.
func (s *Server) answer(sl *slot) {
	if sl.out == nil {
		sl.done <- struct{}{}
		return
	}
	out := sl.out
	r := response{id: sl.id, status: statusError(sl.err),
		label: uint16(sl.res.Label), prob: float32(sl.res.Prob)}
	sl.out = nil
	s.slots.Put(sl)
	out <- r // never blocks: the connection's reader took a credit for it
}

// fail answers sl with err instead of a score.
func (s *Server) fail(sl *slot, err error) {
	sl.res, sl.err = Result{}, err
	s.answer(sl)
}

// Stop closes admission and waits for the worker to score everything
// already queued. Idempotent; concurrent Classify calls either complete
// or return ErrServerClosed.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// admit releases the queue room a dequeued slot held and moves the slot
// into the open batch — unless its deadline already passed, in which case
// it is answered (and counted) immediately so it never occupies a batch
// slot.
func (s *Server) admit(sl *slot, batch []*slot) []*slot {
	s.queued.Add(-1)
	now := time.Now()
	if !sl.deadline.IsZero() && now.After(sl.deadline) {
		cShedDead.Inc()
		if s.deadlineEp.CompareAndSwap(false, true) {
			obs.Eventf("deadline", "serve: deadline expired after %s queued (budget %s): dropping",
				now.Sub(sl.enq).Round(time.Microsecond), s.cfg.Deadline)
		}
		sl.span.SetAttr("shed", "deadline").End()
		s.fail(sl, ErrDeadlineExceeded)
		return batch
	}
	if s.deadlineEp.Load() && s.deadlineEp.CompareAndSwap(true, false) {
		obs.Eventf("deadline", "serve: recovered: requests meeting deadlines again")
	}
	hQueueWait.Observe(float64(now.Sub(sl.enq).Nanoseconds()) / 1e3)
	return append(batch, sl)
}

// worker drains the queue, assembling micro-batches from whatever is
// queued and scoring them on a pinned-arena session.
func (s *Server) worker() {
	defer s.wg.Done()
	sess := s.openSession()
	defer sess.Close()

	maxB := s.cfg.MaxBatch
	batch := make([]*slot, 0, maxB)
	X := make([]*ml.Tensor, 0, maxB)
	out := make([][]float64, maxB)

	for {
		sl, ok := <-s.queue
		if !ok {
			return
		}
		batch = s.admit(sl, batch[:0])

		// Batch-close policy: drain cooperatively up to maxB. Yield the
		// processor so runnable submitters (typically the clients just
		// answered by the previous batch) can preprocess and enqueue, then
		// sweep the queue without ever parking. Parking in a select would
		// instead wake the worker once per submission — a full handoff per
		// request, which on a saturated single core costs more than the
		// batching saves. Two consecutive empty sweeps mean the remaining
		// producers are off-CPU, and the batch closes: a lone request never
		// waits for company that is not already runnable.
		closed := false
		for idle := 0; len(batch) < maxB && idle < 2; {
			select {
			case sl2, ok2 := <-s.queue:
				if !ok2 {
					closed = true
				} else {
					batch = s.admit(sl2, batch)
					idle = 0
					continue
				}
			default:
				runtime.Gosched()
				idle++
			}
			if closed {
				break
			}
		}

		if len(batch) > 0 {
			X = X[:0]
			for i, bsl := range batch {
				X = append(X, &bsl.x)
				out[i] = bsl.probs
			}
			sess.PredictBatchInto(X, s.cfg.Par, out[:len(batch)])
			cBatches.Inc()
			hBatchSize.Observe(float64(len(batch)))
			now := time.Now()
			for i, bsl := range batch {
				bsl.probs = out[i]
				bsl.res = argmax(out[i])
				bsl.err = nil
				e2e := float64(now.Sub(bsl.enq).Nanoseconds()) / 1e3
				hE2E.Observe(e2e)
				wE2E.Observe(e2e)
				wE2E1m.Observe(e2e)
				if bsl.span != nil { // boxing e2e for SetAttr would allocate per request
					bsl.span.SetAttr("e2e_us", e2e).SetAttr("batch", len(batch)).End()
				}
				s.answer(bsl)
			}
		}
		if closed {
			return
		}
	}
}

// resize zero-pads or trims xs to n in place (growing at most once per
// slot), matching the pad/trim batch scoring applies before a trained
// model.
func resize(xs []float64, n int) []float64 {
	if len(xs) > n {
		return xs[:n]
	}
	if cap(xs) < n {
		g := make([]float64, n, n)
		copy(g, xs)
		return g
	}
	old := len(xs)
	xs = xs[:n]
	for i := old; i < n; i++ {
		xs[i] = 0
	}
	return xs
}

// argmax reduces a probability row to its Result.
func argmax(probs []float64) Result {
	if len(probs) == 0 {
		return Result{Label: -1}
	}
	best := 0
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[best] {
			best = i
		}
	}
	return Result{Label: best, Prob: probs[best]}
}
