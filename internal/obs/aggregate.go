package obs

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// Aggregator merges telemetry frames from N sources — scraped
// /debug/telemetry payloads or a dist coordinator's workers — into one
// registry-shaped snapshot and one merged set of manifest rows. Because
// frames carry absolute cumulative values, the aggregator simply keeps the
// newest frame per source (by sequence number) and sums at read time:
// ingest is idempotent, reordered or duplicated frames cannot
// double-count, and merge(export(r1), export(r2)) == merge(r1, r2)
// bucket-for-bucket (TestAggregatorMergeEquivalence).
type Aggregator struct {
	mu      sync.Mutex
	sources map[string]*TelemetryFrame // newest frame per source
}

// Aggregator-side observability (meta-telemetry): frames ingested and
// frames rejected, on the default registry of the aggregating process.
var (
	cAggFrames = Default.Counter("obs.aggregator.frames")
	cAggBad    = Default.Counter("obs.aggregator.rejected")
)

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{sources: make(map[string]*TelemetryFrame)}
}

// Ingest folds one frame in. Frames must name a source; a frame whose Seq
// is older than the retained one for the same source is dropped (a stale
// frame that arrived late), which is not an error.
func (a *Aggregator) Ingest(f *TelemetryFrame) error {
	if f == nil || f.Source == "" {
		cAggBad.Inc()
		return errors.New("obs: aggregator: frame without a source")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.sources[f.Source]; ok && old.Seq > f.Seq {
		return nil
	}
	a.sources[f.Source] = f
	cAggFrames.Inc()
	return nil
}

// Sources lists the source names seen so far, sorted.
func (a *Aggregator) Sources() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return sortedKeys(a.sources)
}

// frames returns the retained frames in source order.
func (a *Aggregator) frames() []*TelemetryFrame {
	a.mu.Lock()
	defer a.mu.Unlock()
	fs := make([]*TelemetryFrame, 0, len(a.sources))
	for _, k := range sortedKeys(a.sources) {
		fs = append(fs, a.sources[k])
	}
	return fs
}

// sortedKeys returns map keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merged sums every source's latest snapshot into one.
func (a *Aggregator) Merged() Snapshot {
	fs := a.frames()
	snaps := make([]Snapshot, len(fs))
	for i, f := range fs {
		snaps[i] = f.Metrics
	}
	return MergeSnapshots(snaps...)
}

// MergedCells concatenates every source's manifest rows, stamped with
// their source, sorted by scenario then source — the merged run manifest's
// cell table.
func (a *Aggregator) MergedCells() []CellSummary {
	var cells []CellSummary
	for _, f := range a.frames() {
		for _, c := range f.Cells {
			if c.Source == "" {
				c.Source = f.Source
			}
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Scenario != cells[j].Scenario {
			return cells[i].Scenario < cells[j].Scenario
		}
		return cells[i].Source < cells[j].Source
	})
	return cells
}

// MergedManifest builds one run manifest from everything ingested: merged
// metrics, merged per-cell rows, and the contributing sources recorded in
// the config so the merged artifact is self-describing.
func (a *Aggregator) MergedManifest(name string) *Manifest {
	m := NewManifest(name)
	m.Metrics = a.Merged()
	m.Cells = a.MergedCells()
	m.Config["telemetry.sources"] = strings.Join(a.Sources(), ",")
	m.Config["telemetry.frame_version"] = fmt.Sprint(TelemetryVersion)
	return m
}

// MergeSnapshots sums snapshots element-wise: counters and gauges add;
// histograms with identical bounds add bucket-for-bucket (mismatched
// bounds keep the first registration, mirroring Registry.Histogram's
// first-bounds-win rule); windows add counts and rates and merge their
// histograms the same way. Quantile summaries are recomputed from the
// merged buckets.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.Histograms {
			out.Histograms[k] = mergeHist(out.Histograms[k], h)
		}
		if len(s.Windows) > 0 && out.Windows == nil {
			out.Windows = make(map[string]WindowSnapshot)
		}
		for k, w := range s.Windows {
			acc := out.Windows[k]
			if acc.WindowMS == 0 {
				acc.WindowMS = w.WindowMS
			}
			acc.Count += w.Count
			acc.Rate += w.Rate
			if w.Hist != nil {
				var base HistogramSnapshot
				if acc.Hist != nil {
					base = *acc.Hist
				}
				merged := mergeHist(base, *w.Hist)
				acc.Hist = &merged
			}
			out.Windows[k] = acc
		}
	}
	return out
}

// mergeHist adds b into a bucket-for-bucket. An empty a (no bounds)
// adopts b's shape; mismatched bounds keep a unchanged.
func mergeHist(a, b HistogramSnapshot) HistogramSnapshot {
	if len(a.Bounds) == 0 {
		a.Bounds = append([]float64(nil), b.Bounds...)
		a.Counts = make([]int64, len(b.Bounds)+1)
	} else if !sameBounds(a.Bounds, b.Bounds) {
		return a
	}
	for i := range a.Counts {
		if i < len(b.Counts) {
			a.Counts[i] += b.Counts[i]
		}
	}
	a.Count += b.Count
	a.Sum += b.Sum
	a.P50, a.P95, a.P99 = 0, 0, 0
	a.summarize()
	return a
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DefaultTelemetrySource is the source name used when none is configured:
// host:pid, unique enough for one aggregation domain.
func DefaultTelemetrySource() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}
