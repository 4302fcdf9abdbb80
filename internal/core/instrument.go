package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Metric handles for the experiment pipeline. All of them are bare atomic
// updates on the order of a few per trace simulation (milliseconds of work
// each), so they stay unconditional; anything costing an allocation or a
// time.Now() — spans, slot-held timing — is gated on obs.On() at the call
// site. Simulation event counts come from reading Engine.Processed and
// Engine.Scheduled() after each trace rather than per-event hooks, which
// keeps the event hot path allocation- and instrumentation-free
// (sim.TestSteadyStateAllocFree).
var (
	gSlotCap       = obs.Default.Gauge("core.slots.capacity")
	gSlotsInUse    = obs.Default.Gauge("core.slots.in_use")
	cSlotsAcquired = obs.Default.Counter("core.slots.acquired")
	cSlotBusyNS    = obs.Default.Counter("core.slots.busy_ns")

	cDSHits         = obs.Default.Counter("core.dscache.hits")
	cDSMisses       = obs.Default.Counter("core.dscache.misses")
	cDSEvictions    = obs.Default.Counter("core.dscache.evictions")
	cDSBypass       = obs.Default.Counter("core.dscache.bypass")
	cDSEvictedBytes = obs.Default.Counter("core.dscache.evicted_bytes")
	cDSSpills       = obs.Default.Counter("core.dscache.spills")
	cDSDiskHits     = obs.Default.Counter("core.dscache.disk_hits")
	gDSResident     = obs.Default.Gauge("core.dscache.resident_bytes")

	cTraces       = obs.Default.Counter("core.traces.collected")
	cTrimmed      = obs.Default.Counter("core.traces.trimmed_samples")
	cSimScheduled = obs.Default.Counter("core.sim.events_scheduled")
	cSimProcessed = obs.Default.Counter("core.sim.events_processed")

	cCellsPlanned   = obs.Default.Counter("core.cells.planned")
	cCellsCompleted = obs.Default.Counter("core.cells.completed")
	cFolds          = obs.Default.Counter("core.folds.completed")
)

func init() {
	gSlotCap.Set(int64(cap(simSlots)))
}

// traceSpanSample is the per-trace span sampling stride: one visit in 64
// gets a "trace" span under its dataset's "collect" span. Full-scale cells
// simulate tens of thousands of visits, which would flood the bounded
// tracer and pay a span allocation per trace; the sample keeps exemplar
// per-trace timings in the manifest at negligible cost.
const traceSpanSample = 64

// ProgressLine renders the pipeline's live one-line status: cell and fold
// completion, traces simulated, dataset-cache effectiveness, compute slot
// occupancy, and the runner's inference tier. It is the render function
// cmd/experiments hands to obs.StartReporter.
func (r Runner) ProgressLine() string {
	hits, misses := cDSHits.Value(), cDSMisses.Value()
	line := fmt.Sprintf("cells %d/%d | traces %d | folds %d | cache %dh/%dm",
		cCellsCompleted.Value(), cCellsPlanned.Value(),
		cTraces.Value(), cFolds.Value(), hits, misses)
	if ev := cDSEvictions.Value(); ev > 0 {
		line += fmt.Sprintf("/%de", ev)
	}
	if sp := cDSSpills.Value(); sp > 0 {
		line += fmt.Sprintf("/%dsp", sp)
	}
	if dh := cDSDiskHits.Value(); dh > 0 {
		line += fmt.Sprintf("/%dd", dh)
	}
	line += fmt.Sprintf(" | slots %d/%d", gSlotsInUse.Value(), cap(simSlots))
	if busy := cSlotBusyNS.Value(); busy > 0 {
		line += fmt.Sprintf(" busy %.1fs", float64(busy)/1e9)
	}
	if tr := cTrimmed.Value(); tr > 0 {
		line += fmt.Sprintf(" | trimmed %d", tr)
	}
	return line + " | infer " + r.Tier.String()
}

// ManifestSections summarizes the pipeline's subsystems for the run
// manifest: slot-pool utilization (slot-held time over wall × capacity),
// dataset-cache effectiveness, simulated-event totals, and the runner's
// inference tier. wall is the run's elapsed time; pass 0 to omit the
// utilization ratio.
func (r Runner) ManifestSections(wall time.Duration) map[string]any {
	// The capacity gauge is re-stamped here because Registry.Reset zeroes
	// gauge values set during init.
	capacity := int64(cap(simSlots))
	gSlotCap.Set(capacity)
	slots := map[string]any{
		"capacity": capacity,
		"acquired": cSlotsAcquired.Value(),
		"busy_ms":  float64(cSlotBusyNS.Value()) / 1e6,
	}
	if wall > 0 {
		slots["utilization"] = float64(cSlotBusyNS.Value()) /
			(float64(wall.Nanoseconds()) * float64(capacity))
	}
	hits, misses := cDSHits.Value(), cDSMisses.Value()
	cache := map[string]any{
		"hits":           hits,
		"misses":         misses,
		"evictions":      cDSEvictions.Value(),
		"bypass":         cDSBypass.Value(),
		"evicted_bytes":  cDSEvictedBytes.Value(),
		"spills":         cDSSpills.Value(),
		"disk_hits":      cDSDiskHits.Value(),
		"resident_bytes": gDSResident.Value(),
	}
	if hits+misses > 0 {
		cache["hit_rate"] = float64(hits) / float64(hits+misses)
	}
	return map[string]any{
		"slots":         slots,
		"dataset_cache": cache,
		"sim": map[string]any{
			"events_scheduled": cSimScheduled.Value(),
			"events_processed": cSimProcessed.Value(),
		},
		"pipeline": map[string]any{
			"cells_planned":   cCellsPlanned.Value(),
			"cells_completed": cCellsCompleted.Value(),
			"traces":          cTraces.Value(),
			"trimmed_samples": cTrimmed.Value(),
			"folds":           cFolds.Value(),
		},
		// The configured tier; per-call fallbacks (models that fail to
		// compile or quantize) show up in the ml.infer.cache.* counters.
		"inference": map[string]any{"tier": r.Tier.String()},
	}
}
