package obs

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// liveSnapshot builds a registry with every instrument kind populated and
// returns its snapshot.
func liveSnapshot(t testing.TB, salt int64) Snapshot {
	r := NewRegistry()
	r.Counter("a.count").Add(10 + salt)
	r.Counter("b.count").Add(3)
	r.Gauge("g.slots").Set(4 + salt)
	r.FloatGauge("g.loss").Set(0.25)
	h := r.Histogram("h.lat", 1, 10, 100)
	for i := int64(0); i < 40+salt; i++ {
		h.Observe(float64(i % 120))
	}
	rc := r.RollingCounter("win.reqs", 10*time.Second, 10)
	rc.Add(5 + salt)
	rh := r.RollingHistogram("win.lat", 10*time.Second, 10, 1, 10, 100)
	for i := int64(0); i < 7+salt; i++ {
		rh.Observe(float64(i * 3))
	}
	return r.Snapshot()
}

func testFrame(t testing.TB) *TelemetryFrame {
	f := FrameFromSnapshot("worker-1", 42, liveSnapshot(t, 0))
	f.Cells = []CellSummary{
		{Scenario: "table1/chrome/linux", WallMS: 12.5, Traces: 80, Folds: 2, Top1Mean: 0.91},
		{Scenario: "table2/quiet", WallMS: 3.25, Cached: true},
	}
	f.Spans = []SpanRecord{
		{ID: 1, Name: "cell", Start: time.Unix(100, 0).UTC(), DurationNS: 5000,
			Attrs: map[string]any{"scenario": "table1"}},
		{ID: 2, Parent: 1, Name: "collect", Start: time.Unix(100, 1).UTC(), DurationNS: 2500},
	}
	return f
}

func TestTelemetryFrameRoundTrip(t *testing.T) {
	f := testFrame(t)
	buf, err := AppendTelemetryFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTelemetryFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Version != TelemetryVersion || got.Seq != 42 || got.Source != "worker-1" {
		t.Fatalf("header: %+v", got)
	}
	if !reflect.DeepEqual(got.Metrics.Counters, f.Metrics.Counters) {
		t.Fatalf("counters: %v != %v", got.Metrics.Counters, f.Metrics.Counters)
	}
	if !reflect.DeepEqual(got.Metrics.Gauges, f.Metrics.Gauges) {
		t.Fatalf("gauges: %v != %v", got.Metrics.Gauges, f.Metrics.Gauges)
	}
	if !reflect.DeepEqual(got.Metrics.Histograms, f.Metrics.Histograms) {
		t.Fatalf("histograms: %v != %v", got.Metrics.Histograms, f.Metrics.Histograms)
	}
	if !reflect.DeepEqual(got.Metrics.Windows, f.Metrics.Windows) {
		t.Fatalf("windows: %v != %v", got.Metrics.Windows, f.Metrics.Windows)
	}
	if !reflect.DeepEqual(got.Cells, f.Cells) {
		t.Fatalf("cells: %v != %v", got.Cells, f.Cells)
	}
	if !reflect.DeepEqual(got.Spans, f.Spans) {
		t.Fatalf("spans: %v != %v", got.Spans, f.Spans)
	}
}

// Two frames from the same snapshot must be byte-identical: encoding is
// deterministic (sorted names), so frames diff and dedupe cleanly.
func TestTelemetryEncodeDeterministic(t *testing.T) {
	f := testFrame(t)
	a, err := AppendTelemetryFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendTelemetryFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("same frame encoded differently twice")
	}
}

func TestTelemetryDecodeRejects(t *testing.T) {
	f := testFrame(t)
	buf, err := AppendTelemetryFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated at every length: must error, never panic.
	for cut := 0; cut < len(buf); cut += 7 {
		if _, err := DecodeTelemetryFrame(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Over the size cap, refused before parsing.
	if _, err := DecodeTelemetryFrame(make([]byte, MaxTelemetrySize+1)); !errors.Is(err, ErrTelemetryTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	// Bad magic.
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xff
	if _, err := DecodeTelemetryFrame(bad); !errors.Is(err, ErrTelemetryBad) {
		t.Fatalf("bad magic: %v", err)
	}
	// Future version.
	ver := append([]byte(nil), buf...)
	ver[2] = TelemetryVersion + 1
	if _, err := DecodeTelemetryFrame(ver); !errors.Is(err, ErrTelemetryBad) {
		t.Fatalf("future version: %v", err)
	}
	// Trailing garbage.
	junk := append(append([]byte(nil), buf...), 0xAB)
	if _, err := DecodeTelemetryFrame(junk); !errors.Is(err, ErrTelemetryBad) {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// The encoder refuses a payload over the size cap and leaves dst as it was.
func TestTelemetryEncodeRejectsOversized(t *testing.T) {
	f := FrameFromSnapshot("w", 1, Snapshot{})
	for len(f.Cells) <= MaxTelemetrySize>>10 {
		f.Cells = append(f.Cells, CellSummary{Scenario: strings.Repeat("x", 1<<10)})
	}
	dst := []byte("prefix")
	got, err := AppendTelemetryFrame(dst, f)
	if !errors.Is(err, ErrTelemetryTooLarge) || string(got) != "prefix" {
		t.Fatalf("AppendTelemetryFrame = %d bytes, %v; want dst unchanged, ErrTelemetryTooLarge", len(got), err)
	}
}

// FuzzTelemetryDecode: the decoder must bound itself by the bytes present
// — no panic, and no allocation driven by a declared count the payload
// cannot back. A successful decode must re-encode.
func FuzzTelemetryDecode(f *testing.F) {
	seed, err := AppendTelemetryFrame(nil, &TelemetryFrame{Source: "s", Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	full, err := AppendTelemetryFrame(nil, FrameFromSnapshot("w", 2, liveSnapshot(f, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte{})
	f.Add(append(seed[:len(seed):len(seed)], 0xff, 0xff, 0xff, 0xff, 1))
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeTelemetryFrame(payload)
		if err != nil {
			if fr != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		// A decoded frame must be internally consistent enough to
		// re-encode (unless a name the fuzzer forged is oversized, which
		// encode legitimately rejects).
		if _, err := AppendTelemetryFrame(nil, fr); err != nil &&
			!errors.Is(err, ErrTelemetryBad) && !errors.Is(err, ErrTelemetryTooLarge) {
			t.Fatalf("re-encode of decoded frame: %v", err)
		}
	})
}
