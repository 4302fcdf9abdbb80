package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe so unregistered instrument sites
// cost one predictable branch.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. compute slots in use).
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add applies a delta (deltas may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 gauge (e.g. last epoch loss), stored as
// IEEE-754 bits.
type FloatGauge struct{ v atomic.Uint64 }

// Set stores the value.
func (g *FloatGauge) Set(f float64) {
	if g != nil {
		g.v.Store(math.Float64bits(f))
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram counts observations into fixed buckets chosen at registration.
// Bounds are upper bucket edges; an implicit +Inf bucket catches overflow.
// Observation is lock-free: one binary search plus two atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a histogram's point-in-time state. P50/P95/P99 are
// bucket-interpolated quantile summaries (see Quantile), populated at
// snapshot time so progress lines and run manifests can report tail
// latency directly instead of raw bucket dumps.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges; Counts has one extra entry for
	// the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50,omitempty"`
	P95    float64   `json:"p95,omitempty"`
	P99    float64   `json:"p99,omitempty"`
}

// Quantile returns the q-th quantile (0 < q ≤ 1) estimated by linear
// interpolation inside the bucket holding the target rank — the same
// estimator Prometheus's histogram_quantile uses. The first bucket
// interpolates from 0 when its upper edge is positive (observations are
// assumed non-negative there), from the edge itself otherwise; ranks
// landing in the +Inf overflow bucket clamp to the largest finite edge,
// so the result is always finite and JSON-safe. Degenerate inputs — an
// empty or zero-count histogram, no bounds, q out of range — return 0
// rather than NaN, so a quantile can flow into benchmark metrics,
// progress lines, and JSON manifests without every consumer re-guarding.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 || q <= 0 || q > 1 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, b := range h.Bounds {
		c := float64(h.Counts[i])
		if cum+c >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			} else if b <= 0 {
				lo = b
			}
			return lo + (b-lo)*(target-cum)/c
		}
		cum += c
	}
	return h.Bounds[len(h.Bounds)-1]
}

// summarize fills the quantile summary fields from the bucket counts.
// Quantile is total (degenerate histograms yield 0), so the fields are
// always JSON-safe.
func (h *HistogramSnapshot) summarize() {
	if h.Count == 0 {
		return
	}
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// Snapshot is a registry's point-in-time state, JSON-serializable and
// stable (maps marshal with sorted keys) so two snapshots diff cleanly.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Windows holds the rolling instruments' windowed state (counts,
	// rates, merged window histograms), keyed by instrument name.
	Windows map[string]WindowSnapshot `json:"windows,omitempty"`
}

// Registry is a named metrics store. Metric lookups are get-or-create and
// safe for concurrent use; instrument sites normally look up once at init
// and cache the pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	hists    map[string]*Histogram
	rollc    map[string]*RollingCounter
	rollh    map[string]*RollingHistogram
}

// Default is the process-wide registry every subsystem instruments.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fgauges:  make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
		rollc:    make(map[string]*RollingCounter),
		rollh:    make(map[string]*RollingHistogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given upper
// bucket bounds on first use (later calls reuse the first registration's
// bounds; bounds must be sorted ascending).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// RollingCounter returns the named rolling counter, creating it on first
// use with the given window and epoch-bucket count (later calls reuse the
// first registration's shape). Rolling and cumulative instruments share a
// name space in Snapshot.Windows, so give rolling instruments distinct
// names (the serve convention is a ".win." infix).
func (r *Registry) RollingCounter(name string, window time.Duration, buckets int) *RollingCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.rollc[name]
	if !ok {
		c = NewRollingCounter(window, buckets)
		r.rollc[name] = c
	}
	return c
}

// RollingHistogram returns the named rolling histogram, creating it on
// first use with the given window, epoch-bucket count, and upper bucket
// bounds (later calls reuse the first registration's shape).
func (r *Registry) RollingHistogram(name string, window time.Duration, buckets int, bounds ...float64) *RollingHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.rollh[name]
	if !ok {
		h = NewRollingHistogram(window, buckets, bounds...)
		r.rollh[name] = h
	}
	return h
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.fgauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Value())
	}
	for name, g := range r.fgauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		hs.summarize()
		s.Histograms[name] = hs
	}
	if len(r.rollc)+len(r.rollh) > 0 {
		s.Windows = make(map[string]WindowSnapshot, len(r.rollc)+len(r.rollh))
		for name, c := range r.rollc {
			s.Windows[name] = WindowSnapshot{
				WindowMS: c.Window().Milliseconds(),
				Count:    c.Total(),
				Rate:     c.Rate(),
			}
		}
		for name, h := range r.rollh {
			hs := h.Snapshot()
			w := h.Window()
			s.Windows[name] = WindowSnapshot{
				WindowMS: w.Milliseconds(),
				Count:    hs.Count,
				Rate:     float64(hs.Count) / w.Seconds(),
				Hist:     &hs,
			}
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteMetricsFile writes the default registry's snapshot to path.
func WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Reset zeroes every registered metric (registrations and cached pointers
// stay valid). Intended for tests and run boundaries.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, g := range r.fgauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
	for _, c := range r.rollc {
		c.reset()
	}
	for _, h := range r.rollh {
		h.reset()
	}
}

var expvarOnce sync.Once

// PublishExpvar exposes the default registry as the expvar variable "obs"
// (served at /debug/vars). Idempotent.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any { return Default.Snapshot() }))
	})
}
