package obs

import (
	"encoding/json"
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
	// Another version, older or newer.
	for _, v := range []int{TelemetryVersion - 1, TelemetryVersion + 1} {
		other, err := json.Marshal(&TelemetryFrame{Version: v, Seq: 1, Source: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeTelemetryFrame(other); !errors.Is(err, ErrTelemetryBad) {
			t.Fatalf("version %d: %v", v, err)
		}
	}
	// A histogram whose counts do not match its bounds, cumulative and
	// windowed: Quantile would index past its counts.
	short := testFrame(t)
	h := short.Metrics.Histograms["h.lat"]
	h.Counts = h.Counts[:len(h.Bounds)]
	short.Metrics.Histograms["h.lat"] = h
	longWin := testFrame(t)
	w := longWin.Metrics.Windows["win.lat"]
	wh := *w.Hist
	wh.Counts = append(wh.Counts, 0)
	w.Hist = &wh
	longWin.Metrics.Windows["win.lat"] = w
	for name, fr := range map[string]*TelemetryFrame{"cumulative": short, "windowed": longWin} {
		bad, err := AppendTelemetryFrame(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeTelemetryFrame(bad); !errors.Is(err, ErrTelemetryBad) {
			t.Fatalf("%s histogram with mismatched counts: %v", name, err)
		}
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
// and never panic. A frame it accepts must re-encode, merge with itself,
// and yield quantiles from every histogram, as the aggregator and obstop
// use it.
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
	f.Add(append(seed[:len(seed):len(seed)], '{', '}'))
	f.Add(full[:len(full)/2])
	f.Add([]byte(`{"version":2,"source":"s","metrics":{"histograms":{"h":{"bounds":[1,2],"counts":[1],"count":1}}}}`))
	f.Add([]byte(`{"version":2,"source":"s","metrics":{"windows":{"w":{"window_ms":1,"hist":{"bounds":[-1],"counts":[0,9],"count":-3}}}}}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeTelemetryFrame(payload)
		if err != nil {
			if fr != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		// Re-encoding can only grow past the cap, through string escapes.
		if _, err := AppendTelemetryFrame(nil, fr); err != nil && !errors.Is(err, ErrTelemetryTooLarge) {
			t.Fatalf("re-encode of decoded frame: %v", err)
		}
		merged := MergeSnapshots(fr.Metrics, fr.Metrics)
		for _, s := range []Snapshot{fr.Metrics, merged} {
			for _, h := range s.Histograms {
				h.Quantile(0.5)
				h.Quantile(1)
			}
			for _, w := range s.Windows {
				if w.Hist != nil {
					w.Hist.Quantile(0.5)
					w.Hist.Quantile(1)
				}
			}
		}
	})
}
