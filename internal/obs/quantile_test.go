package obs

import (
	"math"
	"testing"
)

// snapOf observes vs into a fresh registry histogram with the given
// bounds and returns its snapshot.
func snapOf(t *testing.T, bounds []float64, vs ...float64) HistogramSnapshot {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("h", bounds...)
	for _, v := range vs {
		h.Observe(v)
	}
	s, ok := r.Snapshot().Histograms["h"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	return s
}

func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	// 100 observations spread uniformly through the (10, 20] bucket: the
	// interpolated median of that bucket is its midpoint.
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = 10 + 10*(float64(i)+0.5)/100
	}
	s := snapOf(t, []float64{10, 20, 30}, vs...)
	if got := s.Quantile(0.5); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p50 = %v, want 15", got)
	}
	if got := s.Quantile(1.0); math.Abs(got-20) > 1e-9 {
		t.Fatalf("p100 = %v, want 20 (bucket upper edge)", got)
	}
}

func TestQuantileAcrossBuckets(t *testing.T) {
	// 50 obs in (0,1], 30 in (1,2], 20 in (2,5].
	var vs []float64
	for i := 0; i < 50; i++ {
		vs = append(vs, 0.5)
	}
	for i := 0; i < 30; i++ {
		vs = append(vs, 1.5)
	}
	for i := 0; i < 20; i++ {
		vs = append(vs, 3)
	}
	s := snapOf(t, []float64{1, 2, 5}, vs...)
	// rank(0.5)=50 lands exactly at the end of bucket 1 → its upper edge.
	if got := s.Quantile(0.5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	// rank(0.95)=95 → 15 of 20 through bucket (2,5] → 2 + 3·(15/20).
	if got := s.Quantile(0.95); math.Abs(got-4.25) > 1e-9 {
		t.Fatalf("p95 = %v, want 4.25", got)
	}
	// rank(0.8)=80 → exactly the end of bucket 2.
	if got := s.Quantile(0.8); math.Abs(got-2) > 1e-9 {
		t.Fatalf("p80 = %v, want 2", got)
	}
}

func TestQuantileOverflowClampsFinite(t *testing.T) {
	s := snapOf(t, []float64{1, 2}, 0.5, 10, 20, 30)
	for _, q := range []float64{0.5, 0.99, 1} {
		got := s.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("q=%v: non-finite %v", q, got)
		}
	}
	if got := s.Quantile(0.99); got != 2 {
		t.Fatalf("overflow p99 = %v, want clamp to last edge 2", got)
	}
}

// Degenerate inputs — empty histograms, missing bounds, out-of-range q —
// must yield 0, never NaN or ±Inf: quantiles flow into benchmark metrics
// and JSON manifests, and the guard lives at the source rather than in
// every consumer.
func TestQuantileDegenerate(t *testing.T) {
	empty := snapOf(t, []float64{1, 2})
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	var noBounds HistogramSnapshot
	noBounds.Count = 5
	if got := noBounds.Quantile(0.5); got != 0 {
		t.Fatalf("boundless histogram p50 = %v, want 0", got)
	}
	s := snapOf(t, []float64{1, 2}, 0.5)
	for _, q := range []float64{0, -1, 1.5} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("q=%v: got %v, want 0", q, got)
		}
	}
}

// TestSnapshotSummaries checks Snapshot populates the JSON-safe p50/p95/p99
// fields and leaves empty histograms zeroed (omitted from JSON).
func TestSnapshotSummaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10, 100)
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	r.Histogram("idle", 1, 2)
	snap := r.Snapshot()
	lat := snap.Histograms["lat"]
	if lat.P50 == 0 || lat.P99 == 0 || lat.P99 > 10 {
		t.Fatalf("lat summary not populated sanely: %+v", lat)
	}
	if lat.P50 > lat.P95 || lat.P95 > lat.P99 {
		t.Fatalf("quantiles not monotone: %+v", lat)
	}
	idle := snap.Histograms["idle"]
	if idle.P50 != 0 || idle.P95 != 0 || idle.P99 != 0 {
		t.Fatalf("empty histogram summary should be zero: %+v", idle)
	}
}
