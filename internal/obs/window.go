package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Windowed metrics: rolling counters and histograms built from N rotating
// epoch buckets over the same atomic primitives the cumulative instruments
// use. A window of W split into N buckets rotates every W/N; reads merge
// the N most recent buckets, so a "last 10 s" rate or quantile reflects
// between (N-1)/N and N/N of the nominal window depending on how full the
// current epoch is — the standard rolling-window approximation.
//
// The hot path stays cheap by construction: a write is one atomic load of
// the current bucket index plus the same atomic adds a cumulative
// instrument pays, and never reads the clock. Rotation happens on the cold
// paths — every read advances the window first, and a shared package
// ticker (started lazily when the first rolling instrument is registered)
// advances all instruments a few times per epoch so writer traffic lands
// in the right bucket even when nothing is reading.

// timeNow is swapped by tests to drive epoch rotation deterministically.
var timeNow = time.Now

// windowTick is the shared rotator's period. It only needs to be
// comfortably below the smallest epoch in use (serve uses 1 s epochs).
const windowTick = 250 * time.Millisecond

type rotator interface{ rotate(nowNS int64) }

var (
	rotMu      sync.Mutex
	rotators   []rotator
	rotOnce    sync.Once
	rotStarted atomic.Bool // test hook: proves the ticker was launched
)

func registerRotator(r rotator) {
	rotMu.Lock()
	rotators = append(rotators, r)
	rotMu.Unlock()
	rotOnce.Do(func() {
		rotStarted.Store(true)
		go func() {
			tick := time.NewTicker(windowTick)
			defer tick.Stop()
			for now := range tick.C {
				rotMu.Lock()
				rs := rotators
				rotMu.Unlock()
				for _, r := range rs {
					r.rotate(now.UnixNano())
				}
			}
		}()
	})
}

// rollingClock owns the epoch bookkeeping shared by RollingCounter and
// RollingHistogram: the current epoch number and which of the n buckets it
// maps to. Writers load cur once; rotation zeroes the buckets the window
// slid past under a mutex that only the cold path takes.
type rollingClock struct {
	epochNS int64
	n       int64
	cur     atomic.Int64 // bucket index writers target
	epoch   atomic.Int64 // epoch number cur corresponds to

	mu sync.Mutex // serializes rotation
}

func (c *rollingClock) init(window time.Duration, buckets int, nowNS int64) {
	if buckets < 2 {
		buckets = 2
	}
	c.n = int64(buckets)
	c.epochNS = window.Nanoseconds() / c.n
	if c.epochNS <= 0 {
		c.epochNS = 1
	}
	e := nowNS / c.epochNS
	c.epoch.Store(e)
	c.cur.Store(e % c.n)
}

// advance rotates the window up to the epoch containing nowNS, calling
// clear for every bucket index the window slid past. The fast path — the
// common case for every call between epoch boundaries — is one atomic
// load.
func (c *rollingClock) advance(nowNS int64, clear func(idx int)) {
	e := nowNS / c.epochNS
	if c.epoch.Load() >= e {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.epoch.Load()
	if cur >= e {
		return
	}
	if e-cur >= c.n {
		for i := 0; i < int(c.n); i++ {
			clear(i)
		}
	} else {
		for x := cur + 1; x <= e; x++ {
			clear(int(x % c.n))
		}
	}
	c.epoch.Store(e)
	c.cur.Store(e % c.n)
}

// window returns the nominal window duration.
func (c *rollingClock) window() time.Duration {
	return time.Duration(c.epochNS * c.n)
}

// RollingCounter counts events over a sliding time window. The zero value
// is not usable; create instances through Registry.RollingCounter. All
// methods are nil-safe.
type RollingCounter struct {
	clk     rollingClock
	buckets []atomic.Int64
}

// NewRollingCounter returns a standalone rolling counter (not registered
// anywhere) covering window with the given bucket count (minimum 2).
func NewRollingCounter(window time.Duration, buckets int) *RollingCounter {
	c := newRollingCounter(window, buckets)
	registerRotator(c)
	return c
}

func newRollingCounter(window time.Duration, buckets int) *RollingCounter {
	c := &RollingCounter{}
	c.clk.init(window, buckets, timeNow().UnixNano())
	c.buckets = make([]atomic.Int64, c.clk.n)
	return c
}

func (c *RollingCounter) clear(idx int) { c.buckets[idx].Store(0) }

func (c *RollingCounter) rotate(nowNS int64) {
	if c != nil {
		c.clk.advance(nowNS, c.clear)
	}
}

// Inc adds one to the current epoch bucket.
func (c *RollingCounter) Inc() { c.Add(1) }

// Add adds n (n ≤ 0 is ignored) to the current epoch bucket: one atomic
// index load plus one atomic add, no clock read, no allocation.
func (c *RollingCounter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.buckets[c.clk.cur.Load()].Add(n)
}

// Total returns the windowed count: the sum over all live buckets after
// rotating the window to now.
func (c *RollingCounter) Total() int64 {
	if c == nil {
		return 0
	}
	c.rotate(timeNow().UnixNano())
	var sum int64
	for i := range c.buckets {
		sum += c.buckets[i].Load()
	}
	return sum
}

// Rate returns the windowed count normalized to events per second.
func (c *RollingCounter) Rate() float64 {
	if c == nil {
		return 0
	}
	return float64(c.Total()) / c.clk.window().Seconds()
}

// Window returns the nominal window duration.
func (c *RollingCounter) Window() time.Duration {
	if c == nil {
		return 0
	}
	return c.clk.window()
}

// reset zeroes every bucket (Registry.Reset).
func (c *RollingCounter) reset() {
	c.clk.mu.Lock()
	defer c.clk.mu.Unlock()
	for i := range c.buckets {
		c.buckets[i].Store(0)
	}
}

// RollingHistogram is a fixed-bucket histogram over a sliding time window:
// one bound-bucket row per epoch, merged across epochs at read time into a
// HistogramSnapshot with the same interpolated quantiles the cumulative
// Histogram reports. Create instances through Registry.RollingHistogram.
type RollingHistogram struct {
	clk    rollingClock
	bounds []float64
	stride int             // len(bounds)+1
	counts []atomic.Int64  // n × stride, row per epoch
	ns     []atomic.Int64  // per-epoch observation count
	sums   []atomic.Uint64 // per-epoch sum, float64 bits
}

// NewRollingHistogram returns a standalone rolling histogram covering
// window with the given epoch-bucket count and upper bound edges (sorted
// ascending; an implicit +Inf bucket catches overflow).
func NewRollingHistogram(window time.Duration, buckets int, bounds ...float64) *RollingHistogram {
	h := newRollingHistogram(window, buckets, bounds...)
	registerRotator(h)
	return h
}

func newRollingHistogram(window time.Duration, buckets int, bounds ...float64) *RollingHistogram {
	h := &RollingHistogram{
		bounds: append([]float64(nil), bounds...),
		stride: len(bounds) + 1,
	}
	h.clk.init(window, buckets, timeNow().UnixNano())
	n := int(h.clk.n)
	h.counts = make([]atomic.Int64, n*h.stride)
	h.ns = make([]atomic.Int64, n)
	h.sums = make([]atomic.Uint64, n)
	return h
}

func (h *RollingHistogram) clear(idx int) {
	row := h.counts[idx*h.stride : (idx+1)*h.stride]
	for i := range row {
		row[i].Store(0)
	}
	h.ns[idx].Store(0)
	h.sums[idx].Store(0)
}

func (h *RollingHistogram) rotate(nowNS int64) {
	if h != nil {
		h.clk.advance(nowNS, h.clear)
	}
}

// Observe records one sample into the current epoch: one atomic index
// load, one binary search, three atomic updates, no clock read, no
// allocation.
func (h *RollingHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := int(h.clk.cur.Load())
	bi := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx*h.stride+bi].Add(1)
	h.ns[idx].Add(1)
	s := &h.sums[idx]
	for {
		old := s.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot rotates the window to now and merges the live epochs into one
// HistogramSnapshot (bounds, summed bucket counts, interpolated
// p50/p95/p99).
func (h *RollingHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.rotate(timeNow().UnixNano())
	hs := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, h.stride),
	}
	for e := 0; e < int(h.clk.n); e++ {
		row := h.counts[e*h.stride : (e+1)*h.stride]
		for i := range row {
			hs.Counts[i] += row[i].Load()
		}
		hs.Count += h.ns[e].Load()
		hs.Sum += math.Float64frombits(h.sums[e].Load())
	}
	hs.summarize()
	return hs
}

// Window returns the nominal window duration.
func (h *RollingHistogram) Window() time.Duration {
	if h == nil {
		return 0
	}
	return h.clk.window()
}

// reset zeroes every epoch row (Registry.Reset).
func (h *RollingHistogram) reset() {
	h.clk.mu.Lock()
	defer h.clk.mu.Unlock()
	for i := 0; i < int(h.clk.n); i++ {
		h.clear(i)
	}
}

// WindowSnapshot is one rolling instrument's point-in-time windowed state:
// the nominal window, the windowed count, the count normalized to events
// per second, and (for rolling histograms) the merged bucket histogram
// with interpolated quantiles.
type WindowSnapshot struct {
	WindowMS int64              `json:"window_ms"`
	Count    int64              `json:"count"`
	Rate     float64            `json:"rate_per_s"`
	Hist     *HistogramSnapshot `json:"hist,omitempty"`
}
