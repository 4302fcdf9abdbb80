package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metrics it
// reports, with their units, and the end-to-end metrics' bounds. An
// end-to-end operation is one invocation (grid-cold), one
// coordinator-plus-workers run (grid-dist), one warm logreg-then-cnn
// re-run pair (cv-warm), or one request at the mid rate (serve-open).
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// manifest is the part of a cmd/experiments run manifest the per-layer
// metrics read.
type manifest struct {
	WallMS float64           `json:"wall_ms"`
	Config map[string]string `json:"config"`
	Cells  []struct {
		Scenario string  `json:"scenario"`
		WallMS   float64 `json:"wall_ms"`
		CPUMS    float64 `json:"cpu_ms"`
		Traces   float64 `json:"traces"`
		Cached   bool    `json:"cached"`
		Top1Mean float64 `json:"top1_mean"`
		Top5Mean float64 `json:"top5_mean"`
	} `json:"cells"`
	Sections struct {
		Slots struct {
			Capacity float64 `json:"capacity"`
		} `json:"slots"`
		Dist *struct {
			Retries       float64 `json:"retries"`
			DeadlineSheds float64 `json:"deadline_sheds"`
			LateResults   float64 `json:"late_results"`
		} `json:"dist"`
	} `json:"sections"`
	Metrics struct {
		Counters map[string]float64 `json:"counters"`
	} `json:"metrics"`
	Spans []struct {
		ID         uint64         `json:"id"`
		Parent     uint64         `json:"parent"`
		Name       string         `json:"name"`
		DurationNS float64        `json:"duration_ns"`
		Attrs      map[string]any `json:"attrs"`
	} `json:"spans"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// tally sums the raw per-layer quantities of one operation's manifests;
// metrics derives the per-layer values from the sums.
type tally struct {
	events, traces, slotBusyNS, slotCapNS float64
	cellCPUMS, cellTraces                 float64 // cells that simulated
	evalBusyNS, cellNS, cellChildNS       float64
	cellWallMaxMS                         float64
	misses, diskHits, evictedBytes        float64
	cachedNS                              float64
	fitNS, foldNS                         map[string]float64 // by classifier
	epochsCNN                             float64
	startMS                               float64
	retries, sheds, late                  float64
	laneIdleS                             float64
}

// add folds in the manifest of one invocation that took wall. lanes is the
// number of compute slots the run had: 0 reads the manifest's own slot
// capacity; a coordinator passes its workers' total lanes.
func (t *tally) add(m *manifest, wall time.Duration, lanes int) {
	if t.fitNS == nil {
		t.fitNS, t.foldNS = map[string]float64{}, map[string]float64{}
	}
	c := m.Metrics.Counters
	t.events += c["core.sim.events_processed"]
	t.traces += c["core.traces.collected"]
	t.slotBusyNS += c["core.slots.busy_ns"]
	slots := float64(lanes)
	if lanes == 0 {
		slots = m.Sections.Slots.Capacity
	}
	t.slotCapNS += m.WallMS * 1e6 * slots
	for _, cell := range m.Cells {
		if !cell.Cached {
			t.cellCPUMS += cell.CPUMS
			t.cellTraces += cell.Traces
		}
		t.cellWallMaxMS = max(t.cellWallMaxMS, cell.WallMS)
	}
	t.misses += c["core.dscache.misses"]
	t.diskHits += c["core.dscache.disk_hits"]
	t.evictedBytes += c["core.dscache.evicted_bytes"]
	clf := m.Config["classifier"]
	if clf == "cnn" {
		t.epochsCNN += c["ml.fit.epochs"]
	}
	cells := map[uint64]bool{}
	for _, s := range m.Spans {
		if s.Name == "cell" {
			cells[s.ID] = true
			t.cellNS += s.DurationNS
		}
	}
	for _, s := range m.Spans {
		switch s.Name {
		case "evaluate":
			busy, _ := s.Attrs["busy_ns"].(float64)
			t.evalBusyNS += busy
		case "collect":
			if cached, _ := s.Attrs["cached"].(bool); cached {
				t.cachedNS += s.DurationNS
			}
		case "ml.fit":
			t.fitNS[clf] += s.DurationNS
		case "fold":
			t.foldNS[clf] += s.DurationNS
		}
		if cells[s.Parent] && (s.Name == "collect" || s.Name == "evaluate") {
			t.cellChildNS += s.DurationNS
		}
	}
	t.startMS += float64(wall.Nanoseconds())/1e6 - m.WallMS
	if d := m.Sections.Dist; d != nil {
		t.retries += d.Retries
		t.sheds += d.DeadlineSheds
		t.late += d.LateResults
		t.laneIdleS += (float64(lanes)*m.WallMS*1e6 - c["core.slots.busy_ns"]) / 1e9
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *tally) metrics() map[string]float64 {
	out := map[string]float64{
		"sim.events":           t.events,
		"collect.traces":       t.traces,
		"sim.ns_per_event":     ratio(t.slotBusyNS, t.events),
		"collect.ms_per_trace": ratio(t.cellCPUMS, t.cellTraces),
		"evaluate.busy_s":      t.evalBusyNS / 1e9,
		"slots.utilization":    ratio(t.slotBusyNS, t.slotCapNS),
		"unattributed_pct":     100 * ratio(t.cellNS-t.cellChildNS, t.cellNS),
		"cell.wall_max_s":      t.cellWallMaxMS / 1e3,
		"dscache.misses":       t.misses,
		"dscache.evicted_mb":   t.evictedBytes / 1e6,
		"dscache.disk_hits":    t.diskHits,
		"collect.cached_ms":    t.cachedNS / 1e6,
		"fit.epochs.cnn":       t.epochsCNN,
		"proc.start_ms":        t.startMS,
		"dist.retries":         t.retries,
		"dist.deadline_sheds":  t.sheds,
		"dist.late_results":    t.late,
		"dist.lane_idle_s":     t.laneIdleS,
	}
	for _, clf := range []string{"logreg", "cnn"} {
		out["fit.ms."+clf] = t.fitNS[clf] / 1e6
		out["score.ms."+clf] = (t.foldNS[clf] - t.fitNS[clf]) / 1e6
	}
	return out
}

// layerSamples collects each traced operation's per-layer values; the
// reported value of each metric is the median over operations.
type layerSamples map[string][]float64

func (l layerSamples) add(m map[string]float64) {
	for k, v := range m {
		l[k] = append(l[k], v)
	}
}

func (l layerSamples) medians() map[string]float64 {
	out := map[string]float64{}
	for k, vs := range l {
		out[k] = median(vs)
	}
	return out
}

// opSamples collects the end-to-end cost of each operation.
type opSamples struct{ wall, cpu, rss []float64 }

func (s *opSamples) add(u usage) {
	s.wall = append(s.wall, float64(u.wall.Nanoseconds())/1e6)
	s.cpu = append(s.cpu, float64(u.cpu.Nanoseconds())/1e6)
	s.rss = append(s.rss, u.rssMB)
}

// e2e reports the operations' medians plus the median set-up time.
func (s *opSamples) e2e(setup []float64) map[string]float64 {
	return map[string]float64{
		"op_p50_ms":   median(s.wall),
		"rss_peak_mb": median(s.rss),
		"setup_s":     median(setup),
	}
}

// overheadPct is how much slower traced operations ran than untraced ones.
func overheadPct(traced, untraced *opSamples) float64 {
	if len(traced.wall) == 0 || len(untraced.wall) == 0 {
		return 0
	}
	return 100 * (median(traced.wall)/median(untraced.wall) - 1)
}
