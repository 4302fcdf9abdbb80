package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives epoch rotation deterministically: instruments are
// created un-registered (no shared ticker) and advanced by hand.
type fakeClock struct{ ns int64 }

func (c *fakeClock) set(t *testing.T, ns int64) {
	t.Helper()
	c.ns = ns
}

// withFakeTime pins timeNow for the duration of the test. Instruments
// created inside are built against the fake clock's origin.
func withFakeTime(t *testing.T, c *fakeClock) {
	t.Helper()
	prev := timeNow
	timeNow = func() time.Time { return time.Unix(0, c.ns) }
	t.Cleanup(func() { timeNow = prev })
}

func TestRollingCounterWindow(t *testing.T) {
	clk := &fakeClock{ns: int64(100 * time.Second)}
	withFakeTime(t, clk)
	// 10 s window, 10 × 1 s epochs.
	c := newRollingCounter(10*time.Second, 10)

	c.Add(5)
	if got := c.Total(); got != 5 {
		t.Fatalf("fresh total = %d, want 5", got)
	}
	// Still inside the window 9 epochs later; plus new traffic.
	clk.set(t, int64(109*time.Second))
	c.rotate(clk.ns)
	c.Add(3)
	if got := c.Total(); got != 8 {
		t.Fatalf("total after 9 s = %d, want 8", got)
	}
	// The first burst's epoch slides out; the second survives.
	clk.set(t, int64(112*time.Second))
	if got := c.Total(); got != 3 {
		t.Fatalf("total after slide = %d, want 3", got)
	}
	if got := c.Rate(); got != 0.3 {
		t.Fatalf("rate = %v, want 0.3", got)
	}
	// A gap longer than the whole window empties it.
	clk.set(t, int64(500*time.Second))
	if got := c.Total(); got != 0 {
		t.Fatalf("total after long gap = %d, want 0", got)
	}
}

func TestRollingCounterWritesLandInRotatedBucket(t *testing.T) {
	clk := &fakeClock{ns: int64(50 * time.Second)}
	withFakeTime(t, clk)
	c := newRollingCounter(4*time.Second, 4)
	// Writes with a stale cur index land in the old epoch's bucket until
	// something rotates — the documented reader/ticker-driven contract.
	c.Add(1)
	clk.set(t, int64(51*int64(time.Second)))
	c.rotate(clk.ns)
	c.Add(1)
	clk.set(t, int64(53*int64(time.Second)))
	if got := c.Total(); got != 2 {
		t.Fatalf("total = %d, want 2 (both epochs alive)", got)
	}
	clk.set(t, int64(54*int64(time.Second)))
	if got := c.Total(); got != 1 {
		t.Fatalf("total = %d, want 1 (first epoch expired)", got)
	}
}

func TestRollingHistogramWindow(t *testing.T) {
	clk := &fakeClock{ns: int64(100 * time.Second)}
	withFakeTime(t, clk)
	h := newRollingHistogram(10*time.Second, 10, 1, 10, 100)

	for i := 0; i < 90; i++ {
		h.Observe(5) // (1,10] bucket
	}
	clk.set(t, int64(105*time.Second))
	h.rotate(clk.ns)
	for i := 0; i < 10; i++ {
		h.Observe(50) // (10,100] bucket
	}
	hs := h.Snapshot()
	if hs.Count != 100 {
		t.Fatalf("count = %d, want 100", hs.Count)
	}
	if hs.Counts[1] != 90 || hs.Counts[2] != 10 {
		t.Fatalf("bucket counts = %v", hs.Counts)
	}
	if hs.P99 <= 10 || hs.P99 > 100 {
		t.Fatalf("p99 = %v, want inside (10,100]", hs.P99)
	}
	if hs.Sum != 90*5+10*50 {
		t.Fatalf("sum = %v", hs.Sum)
	}
	// Slide the first burst out: only the second remains.
	clk.set(t, int64(112*time.Second))
	hs = h.Snapshot()
	if hs.Count != 10 || hs.Counts[1] != 0 || hs.Counts[2] != 10 {
		t.Fatalf("after slide: %+v", hs)
	}
}

func TestRegistryRollingSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	c := r.RollingCounter("win.reqs", 10*time.Second, 10)
	h := r.RollingHistogram("win.lat", 10*time.Second, 10, 1, 10, 100)
	if r.RollingCounter("win.reqs", time.Hour, 2) != c {
		t.Fatal("rolling counter not get-or-create")
	}
	if r.RollingHistogram("win.lat", time.Hour, 2) != h {
		t.Fatal("rolling histogram not get-or-create")
	}
	c.Add(7)
	h.Observe(5)
	snap := r.Snapshot()
	wc, ok := snap.Windows["win.reqs"]
	if !ok || wc.Count != 7 || wc.WindowMS != 10_000 || wc.Hist != nil {
		t.Fatalf("counter window snapshot: %+v (ok=%v)", wc, ok)
	}
	wh, ok := snap.Windows["win.lat"]
	if !ok || wh.Count != 1 || wh.Hist == nil || wh.Hist.Counts[1] != 1 {
		t.Fatalf("histogram window snapshot: %+v (ok=%v)", wh, ok)
	}
	if wc.Rate != 0.7 {
		t.Fatalf("rate = %v, want 0.7", wc.Rate)
	}
	r.Reset()
	snap = r.Snapshot()
	if snap.Windows["win.reqs"].Count != 0 || snap.Windows["win.lat"].Count != 0 {
		t.Fatalf("reset did not zero windows: %+v", snap.Windows)
	}
}

// The write path must stay allocation-free: that is the contract that
// lets serve's Classify hot path observe windowed metrics per request.
func TestRollingWriteAllocFree(t *testing.T) {
	c := NewRollingCounter(10*time.Second, 10)
	h := NewRollingHistogram(10*time.Second, 10, 1, 2, 5, 10)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("RollingCounter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3) }); n != 0 {
		t.Fatalf("RollingHistogram.Observe allocates %v/op", n)
	}
}

// Concurrent writers racing rotation and snapshots: run under -race in
// make race. The short-window instruments exercise writes racing epoch
// clears (their totals can only be bounded above); the hour-window ones
// never rotate during the test, so their counts must be exact.
func TestRollingConcurrent(t *testing.T) {
	c := NewRollingCounter(200*time.Millisecond, 4)
	h := NewRollingHistogram(200*time.Millisecond, 4, 1, 10, 100)
	cStable := NewRollingCounter(time.Hour, 4)
	hStable := NewRollingHistogram(time.Hour, 4, 1, 10, 100)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
				cStable.Inc()
				hStable.Observe(float64(i % 20))
				if i%256 == 0 {
					c.Total()
					h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Total(); got > writers*perWriter {
		t.Fatalf("windowed total %d exceeds writes %d", got, writers*perWriter)
	}
	if got := cStable.Total(); got != writers*perWriter {
		t.Fatalf("stable total %d, want %d", got, writers*perWriter)
	}
	hs := hStable.Snapshot()
	var bucketSum int64
	for _, n := range hs.Counts {
		bucketSum += n
	}
	if bucketSum != hs.Count || hs.Count != writers*perWriter {
		t.Fatalf("stable histogram: bucket sum %d, count %d, want %d",
			bucketSum, hs.Count, writers*perWriter)
	}
}

func BenchmarkRollingCounterAdd(b *testing.B) {
	c := NewRollingCounter(10*time.Second, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRollingHistogramObserve(b *testing.B) {
	h := NewRollingHistogram(10*time.Second, 10,
		1, 2, 5, 10, 20, 50, 100, 200, 500, 1e3, 2e3, 5e3, 1e4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 4000))
	}
}
