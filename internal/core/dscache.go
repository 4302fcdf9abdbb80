package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DatasetCache memoizes collected datasets for a Runner. Experiment grids
// revisit (scenario, scale) points constantly — Table 1's rows share their
// closed-world cells with Figure 3's, significance tests re-run cells — and
// every revisit would otherwise re-simulate thousands of traces.
//
// It is a content-addressed, singleflight, LRU-bounded store: concurrent
// requests for the same key block on one collection. Capacity is
// two-dimensional: an entry count and a resident-byte budget measured from
// each entry's columnar store. Overflowing the budget demotes LRU entries
// to shard files under the spill directory (resident drops to metadata;
// the mmap'd values stay servable as a second cache tier) or, with no
// spill directory, evicts them. A nil *DatasetCache caches nothing.
type DatasetCache struct {
	mu       sync.Mutex
	cap      int
	budget   int64  // resident-byte budget; 0 = unlimited
	spillDir string // shard-file directory; "" = no disk tier
	entries  map[uint64]*dsEntry
	order    []uint64 // LRU order, most recently used last
}

type dsEntry struct {
	ready chan struct{} // closed when st/err are set
	st    *trace.Store
	err   error
}

// NewDatasetCache returns a cache retaining at most entries datasets (0
// re-simulates every request, as memory-constrained full-scale runs want)
// and at most budget resident bytes (0 = unlimited). Cold entries beyond
// the budget are demoted to shard files under spillDir, or evicted when
// spillDir is ""; datasets whose value block alone exceeds the budget are
// collected straight to disk through a bounded window (see SpillBuilder).
// Shard files are content-addressed by the cache key, so later runs (and
// evict-then-recollect cycles) reload them by mmap instead of
// re-simulating.
func NewDatasetCache(entries int, budget int64, spillDir string) *DatasetCache {
	return &DatasetCache{cap: entries, budget: budget, spillDir: spillDir, entries: make(map[uint64]*dsEntry)}
}

// shardPath returns the content-addressed shard file path for key, or ""
// when no spill directory is configured.
func (c *DatasetCache) shardPath(key uint64) string {
	if c == nil || c.spillDir == "" {
		return ""
	}
	return filepath.Join(c.spillDir, fmt.Sprintf("ds-%016x.trst", key))
}

// spillPlan tells collectDataset to collect straight to a shard file
// through a bounded window instead of a full in-memory arena.
type spillPlan struct {
	path       string
	windowRows int
}

// planSpill decides whether a dataset of nTraces×stride float64 values
// should be collected directly to disk: only when a budget and spill
// directory are configured and the value block alone would bust the
// budget. The window is sized to half the budget (at least two rows per
// CPU so collection still parallelizes).
func (c *DatasetCache) planSpill(key uint64, nTraces, stride int) *spillPlan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	valBytes := int64(nTraces) * int64(stride) * 8
	if c.budget <= 0 || c.spillDir == "" || valBytes <= c.budget {
		return nil
	}
	rows := int(c.budget / 2 / (int64(stride) * 8))
	if minRows := 2 * runtime.NumCPU(); rows < minRows {
		rows = minRows
	}
	if rows > nTraces {
		rows = nTraces
	}
	if err := os.MkdirAll(c.spillDir, 0o755); err != nil {
		obs.Warnf("core: dataset spill dir %s: %v", c.spillDir, err)
		return nil
	}
	return &spillPlan{path: c.shardPath(key), windowRows: rows}
}

// touchLocked moves key to the most-recently-used position.
func (c *DatasetCache) touchLocked(key uint64) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}

// entryBytes returns the resident bytes a finished entry's store pins.
func entryBytes(e *dsEntry) int64 {
	if e.st == nil {
		return 0
	}
	return e.st.ResidentBytes()
}

// residentLocked sums resident bytes over finished entries and refreshes
// the gauge.
func (c *DatasetCache) residentLocked() int64 {
	var total int64
	for _, e := range c.entries {
		select {
		case <-e.ready:
			total += entryBytes(e)
		default:
		}
	}
	gDSResident.Set(total)
	return total
}

// evictLocked enforces both capacity dimensions on finished entries,
// LRU-first. The entry cap drops entries outright; the byte budget first
// demotes heap-resident entries to mmap-backed shard files (when a spill
// directory is set) and evicts only what it cannot demote. In-flight
// entries are never touched: their waiters hold the entry pointer and
// eviction would let a duplicate collection start.
func (c *DatasetCache) evictLocked() {
	finished := func(e *dsEntry) bool {
		select {
		case <-e.ready:
			return true
		default:
			return false
		}
	}
	drop := func(i int, k uint64) {
		e := c.entries[k]
		bytes := entryBytes(e)
		delete(c.entries, k)
		c.order = append(c.order[:i:i], c.order[i+1:]...)
		cDSEvictions.Inc()
		cDSEvictedBytes.Add(bytes)
		obs.Eventf("cache_evict", "core: dataset cache evicted an entry (%d bytes, cap %d, %d retained)",
			bytes, c.cap, len(c.entries))
	}
	for over := len(c.entries) - c.cap; over > 0; {
		evicted := false
		for i, k := range c.order {
			if !finished(c.entries[k]) {
				continue // still collecting
			}
			drop(i, k)
			over--
			evicted = true
			break
		}
		if !evicted {
			break // everything in flight; nothing evictable
		}
	}
	if c.budget > 0 {
		for c.residentLocked() > c.budget {
			acted := false
			// Demote the coldest heap-resident entry first.
			for _, k := range c.order {
				e := c.entries[k]
				if !finished(e) || e.st == nil || e.st.Spilled() {
					continue
				}
				path := c.shardPath(k)
				if path == "" {
					continue
				}
				before := e.st.ResidentBytes()
				sp, err := e.st.Spill(path)
				if err != nil || !sp.Spilled() {
					if err != nil {
						obs.Warnf("core: dataset spill %s: %v", path, err)
					}
					continue
				}
				// Callers already holding the heap store keep reading it;
				// the heap block is freed once the last of them lets go.
				e.st = sp
				cDSSpills.Inc()
				obs.Eventf("dscache_spill", "core: dataset cache spilled %d bytes to %s", before, path)
				acted = true
				break
			}
			if acted {
				continue
			}
			// Nothing left to demote: evict the coldest finished entry.
			for i, k := range c.order {
				if !finished(c.entries[k]) {
					continue
				}
				drop(i, k)
				acted = true
				break
			}
			if !acted {
				break // everything in flight
			}
		}
	}
	c.residentLocked()
}

// getOrCollect returns the cached dataset for key, running collect exactly
// once per key (even under concurrent callers) and caching its result.
// Before collecting, the disk tier is consulted: a content-addressed shard
// file left by an earlier spill (or an earlier process) is mmap'd back
// instead of re-simulating. Failed collections are not cached.
func (c *DatasetCache) getOrCollect(key uint64, collect func() (*trace.Store, error)) (*trace.Store, error) {
	if c == nil {
		cDSBypass.Inc()
		return collect()
	}
	c.mu.Lock()
	if c.cap <= 0 {
		c.mu.Unlock()
		cDSBypass.Inc()
		return collect()
	}
	if e, ok := c.entries[key]; ok {
		c.touchLocked(key)
		c.mu.Unlock()
		cDSHits.Inc()
		<-e.ready
		// Re-read under the lock: a concurrent demotion may swap e.st for
		// its mmap-backed copy.
		c.mu.Lock()
		st, err := e.st, e.err
		c.mu.Unlock()
		return st, err
	}
	e := &dsEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.touchLocked(key)
	c.evictLocked()
	path := c.shardPath(key)
	c.mu.Unlock()

	var (
		st  *trace.Store
		err error
	)
	if path != "" {
		var oerr error
		if st, oerr = trace.OpenShardFile(path); oerr == nil {
			cDSDiskHits.Inc()
			obs.Eventf("dscache_disk_hit", "core: dataset cache loaded %s (%d traces) from disk", path, st.Len())
		} else if !os.IsNotExist(oerr) {
			obs.Warnf("core: dataset shard %s: %v", path, oerr)
		}
	}
	if st == nil {
		cDSMisses.Inc()
		st, err = collect()
	}

	c.mu.Lock()
	e.st, e.err = st, err
	c.mu.Unlock()
	close(e.ready)
	c.mu.Lock()
	if err != nil {
		if c.entries[key] == e {
			delete(c.entries, key)
			for i, k := range c.order {
				if k == key {
					c.order = append(c.order[:i:i], c.order[i+1:]...)
					break
				}
			}
		}
	} else {
		c.evictLocked()
	}
	c.mu.Unlock()
	return st, err
}

// datasetCacheKey hashes everything that determines a collected dataset's
// bytes: the scenario's fields (Name feeds traceSeed, so it is
// load-bearing, not a label), the collection scale, and a behavioral
// fingerprint of the timer. Folds and Parallelism are deliberately
// excluded — folds happen after collection, and collection is
// parallelism-invariant by construction (TestGoldenDeterminism).
func datasetCacheKey(scn Scenario, sc Scale) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%v|%d|%v|%d|%d|%g|%g|%v|%v|%v%v%v|",
		scn.Name, scn.OS, scn.Browser, scn.Attack, scn.Variant,
		scn.Period, scn.TraceDuration, scn.Dilation, scn.VisitJitter,
		scn.Isolation, scn.SoftirqPolicy != nil,
		scn.BackgroundNoise, scn.InterruptNoise, scn.CacheNoise)
	if scn.SoftirqPolicy != nil {
		fmt.Fprintf(h, "%d|", *scn.SoftirqPolicy)
	}
	// TimerMaker is a closure, so identity must come from behavior: probe a
	// throwaway instance at a fixed seed across the trace window. Read is
	// stateful but accepts nondecreasing arguments, which the ascending
	// probe grid satisfies.
	tm := scn.timer(0x7f1e57a7e5eed)
	io.WriteString(h, tm.Name())
	step := scn.TraceDuration / 64
	if step <= 0 {
		step = sim.Millisecond
	}
	for t := sim.Time(0); t <= scn.TraceDuration; t += step {
		fmt.Fprintf(h, "%d,%d;", tm.Read(t), tm.NextChange(t))
	}
	fmt.Fprintf(h, "|%d|%d|%d|%d", sc.Sites, sc.TracesPerSite, sc.OpenWorld, sc.Seed)
	return h.Sum64()
}
