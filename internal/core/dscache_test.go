package core

import (
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// shortScenario keeps cache tests fast: a 2-second trace instead of the
// browser default 15 s.
func shortScenario(name string) Scenario {
	scn := tinyScenario(name)
	scn.TraceDuration = 2 * sim.Second
	return scn
}

func TestDatasetCacheMemoizes(t *testing.T) {
	scn := shortScenario("dscache/hit")
	sc := Scale{Sites: 2, TracesPerSite: 1, Folds: 2, Seed: 17}
	r := Runner{Cache: NewDatasetCache(8, 0, "")}
	ds1, err := r.CollectDataset(scn, sc)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := r.CollectDataset(scn, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ds1 != ds2 {
		t.Fatal("repeat collection did not come from the cache (stores differ)")
	}
}

func TestDatasetCacheKeySensitivity(t *testing.T) {
	scn := shortScenario("dscache/key")
	sc := Scale{Sites: 2, TracesPerSite: 1, Folds: 2, Seed: 17}
	base := datasetCacheKey(scn, sc)

	seed := sc
	seed.Seed++
	if datasetCacheKey(scn, seed) == base {
		t.Fatal("key ignores Scale.Seed")
	}
	sites := sc
	sites.Sites++
	if datasetCacheKey(scn, sites) == base {
		t.Fatal("key ignores Scale.Sites")
	}
	named := scn
	named.Name = "dscache/other" // Name feeds traceSeed, so bytes change
	if datasetCacheKey(named, sc) == base {
		t.Fatal("key ignores scenario name")
	}
	noisy := scn
	noisy.BackgroundNoise = true
	if datasetCacheKey(noisy, sc) == base {
		t.Fatal("key ignores noise flags")
	}
	timer := scn
	timer.Period = 7 * sim.Millisecond
	if datasetCacheKey(timer, sc) == base {
		t.Fatal("key ignores sampling period")
	}
	// Folds and Parallelism do not affect collected bytes and must share.
	folds := sc
	folds.Folds = 5
	folds.Parallelism = 3
	if datasetCacheKey(scn, folds) != base {
		t.Fatal("key varies with folds/parallelism, defeating reuse across evaluations")
	}
}

func TestDatasetCacheSingleflight(t *testing.T) {
	cache := NewDatasetCache(4, 0, "")
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cache.getOrCollect(1, func() (*trace.Store, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return &trace.Store{}, nil
			})
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("collect ran %d times for one key, want 1", calls)
	}
}

func TestDatasetCacheEviction(t *testing.T) {
	cache := NewDatasetCache(2, 0, "")
	collected := 0
	get := func(key uint64) {
		_, _ = cache.getOrCollect(key, func() (*trace.Store, error) {
			collected++
			return &trace.Store{}, nil
		})
	}
	get(1)
	get(2)
	get(3) // evicts key 1 (LRU)
	get(2) // still cached
	if collected != 3 {
		t.Fatalf("collected %d, want 3 (key 2 should still be cached)", collected)
	}
	get(1) // was evicted: re-collects
	if collected != 4 {
		t.Fatalf("collected %d, want 4 (key 1 should have been evicted)", collected)
	}
}
