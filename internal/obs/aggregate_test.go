package obs

import (
	"reflect"
	"strings"
	"testing"
)

// mustFrame encodes-and-decodes a frame built from snap, i.e. the full
// wire round trip a remote source's telemetry takes.
func mustFrame(t *testing.T, source string, seq uint64, snap Snapshot) *TelemetryFrame {
	t.Helper()
	buf, err := AppendTelemetryFrame(nil, FrameFromSnapshot(source, seq, snap))
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeTelemetryFrame(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return f
}

// TestAggregatorMergeEquivalence is the round-trip property: exporting two
// live registries as TelemetryFrames (through the JSON payload) and
// merging them in the Aggregator must be bucket- and counter-identical to
// merging the registry snapshots directly.
func TestAggregatorMergeEquivalence(t *testing.T) {
	s1 := liveSnapshot(t, 0)
	s2 := liveSnapshot(t, 13)

	direct := MergeSnapshots(s1, s2)

	agg := NewAggregator()
	if err := agg.Ingest(mustFrame(t, "r1", 1, s1)); err != nil {
		t.Fatal(err)
	}
	if err := agg.Ingest(mustFrame(t, "r2", 1, s2)); err != nil {
		t.Fatal(err)
	}
	viaWire := agg.Merged()

	if !reflect.DeepEqual(viaWire.Counters, direct.Counters) {
		t.Fatalf("counters: %v != %v", viaWire.Counters, direct.Counters)
	}
	if !reflect.DeepEqual(viaWire.Gauges, direct.Gauges) {
		t.Fatalf("gauges: %v != %v", viaWire.Gauges, direct.Gauges)
	}
	if !reflect.DeepEqual(viaWire.Histograms, direct.Histograms) {
		t.Fatalf("histograms: %v != %v", viaWire.Histograms, direct.Histograms)
	}
	if !reflect.DeepEqual(viaWire.Windows, direct.Windows) {
		t.Fatalf("windows: %v != %v", viaWire.Windows, direct.Windows)
	}

	// Sanity on the merged numbers themselves, not just the equality.
	if got := viaWire.Counters["a.count"]; got != 10+10+13 {
		t.Fatalf("a.count = %d, want 33", got)
	}
	h := viaWire.Histograms["h.lat"]
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count || h.Count != 40+40+13 {
		t.Fatalf("merged histogram inconsistent: count=%d bucketSum=%d", h.Count, bucketSum)
	}
}

func TestAggregatorLatestSeqWins(t *testing.T) {
	agg := NewAggregator()
	r := NewRegistry()
	r.Counter("c").Add(1)
	agg.Ingest(mustFrame(t, "w", 5, r.Snapshot()))
	r.Counter("c").Add(1)
	agg.Ingest(mustFrame(t, "w", 6, r.Snapshot()))
	// Stale frame (old seq) after a reconnect must not roll state back.
	stale := NewRegistry()
	stale.Counter("c").Add(100)
	agg.Ingest(mustFrame(t, "w", 2, stale.Snapshot()))

	if got := agg.Merged().Counters["c"]; got != 2 {
		t.Fatalf("c = %d, want 2 (latest frame, absolute not summed)", got)
	}
	if srcs := agg.Sources(); len(srcs) != 1 || srcs[0] != "w" {
		t.Fatalf("sources = %v", srcs)
	}
	if err := agg.Ingest(&TelemetryFrame{}); err == nil {
		t.Fatal("sourceless frame accepted")
	}
}

func TestAggregatorMergedManifest(t *testing.T) {
	agg := NewAggregator()
	f1 := FrameFromSnapshot("w1", 1, liveSnapshot(t, 0))
	f1.Cells = []CellSummary{{Scenario: "b", WallMS: 1}, {Scenario: "a", WallMS: 2}}
	f2 := FrameFromSnapshot("w2", 1, liveSnapshot(t, 1))
	f2.Cells = []CellSummary{{Scenario: "a", WallMS: 3}}
	agg.Ingest(f1)
	agg.Ingest(f2)

	m := agg.MergedManifest("merged")
	if len(m.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(m.Cells))
	}
	want := []struct{ scenario, source string }{{"a", "w1"}, {"a", "w2"}, {"b", "w1"}}
	for i, w := range want {
		if m.Cells[i].Scenario != w.scenario || m.Cells[i].Source != w.source {
			t.Fatalf("cell %d = %s/%s, want %s/%s", i,
				m.Cells[i].Scenario, m.Cells[i].Source, w.scenario, w.source)
		}
	}
	if !strings.Contains(m.Config["telemetry.sources"], "w1") ||
		!strings.Contains(m.Config["telemetry.sources"], "w2") {
		t.Fatalf("sources config: %q", m.Config["telemetry.sources"])
	}
}
