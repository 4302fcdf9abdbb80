package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestGoldenSpillEquivalence re-runs golden scenarios through the bounded
// spill window: collecting straight to an mmap-backed shard file (tiny
// window, serial and parallel) must reproduce the exact golden dataset
// bytes of the in-memory path.
func TestGoldenSpillEquivalence(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"golden/chrome-linux-loop", "golden/python-randomized"} {
		var scn Scenario
		for _, s := range goldenGrid() {
			if s.Name == name {
				scn = s
			}
		}
		if scn.Name == "" {
			t.Fatalf("scenario %s not in golden grid", name)
		}
		for i, par := range []int{1, max(4, runtime.NumCPU())} {
			sc := goldenScale
			sc.Parallelism = par
			plan := &spillPlan{
				path:       filepath.Join(dir, fmt.Sprintf("g%d-%d.trst", i, par)),
				windowRows: 3, // several Advance cycles over 8 traces
			}
			st, _, err := collectDataset(scn, sc, nil, plan)
			if err != nil {
				t.Fatal(err)
			}
			if h := hashDataset(st); h != goldenHashes[name] {
				t.Fatalf("%s par=%d: spilled collection hash %#x, golden %#x",
					name, par, h, goldenHashes[name])
			}
			if runtime.GOOS == "linux" && !st.Spilled() {
				t.Fatalf("%s: store not mmap-backed after windowed collection", name)
			}
		}
	}
}

// TestDatasetCacheBudgetDemotes drives the byte budget on a private cache:
// overflowing it must demote the LRU entry to a shard file (still
// servable) rather than dropping it, without changing the store a caller
// is still reading, and a fresh cache must reload the shard from disk
// instead of re-collecting.
func TestDatasetCacheBudgetDemotes(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("demotion keeps heap without mmap")
	}
	dir := t.TempDir()
	mkDS := func(seed int) *trace.Store {
		const n, stride = 4, 64
		b := trace.NewBuilder(n, stride)
		for i := 0; i < n; i++ {
			row := b.Row(i)
			for j := 0; j < stride; j++ {
				row = append(row, float64(seed*1000+i*stride+j))
			}
			b.Finish(i, trace.Trace{
				Domain: fmt.Sprintf("site-%d.com", i), Label: i % 2,
				Attack: "loop-counting", Period: 5 * sim.Millisecond, Values: row,
			})
		}
		st, err := b.Seal(2)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Budget: one resident entry fits, two do not.
	one := mkDS(1)
	c := NewDatasetCache(4, one.ResidentBytes()+one.ResidentBytes()/4, dir)

	ds1, err := c.getOrCollect(101, func() (*trace.Store, error) { return mkDS(1), nil })
	if err != nil {
		t.Fatal(err)
	}
	h1 := hashDataset(ds1)
	spillsBefore := cDSSpills.Value()

	// Read every row of ds1 over and over while the next collection
	// demotes its entry: the reader must see the original bytes throughout.
	stop, firstPass := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; ; pass++ {
			h := hashDataset(ds1)
			if pass == 0 {
				close(firstPass)
			}
			if h != h1 {
				t.Errorf("live reader pass %d: hash %#x, want %#x", pass, h, h1)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-firstPass
	_, err = c.getOrCollect(102, func() (*trace.Store, error) { return mkDS(2), nil })
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ds1.Spilled() || hashDataset(ds1) != h1 {
		t.Fatal("demotion changed the store its caller holds")
	}

	c.mu.Lock()
	e1 := c.entries[101]
	resident := c.residentLocked()
	budget := c.budget
	c.mu.Unlock()
	if e1 == nil {
		t.Fatal("budget overflow evicted instead of demoting (spill dir was set)")
	}
	if e1.st == ds1 || !e1.st.Spilled() {
		t.Fatal("LRU entry not demoted to an mmap-backed shard")
	}
	if resident > budget {
		t.Fatalf("resident %d still over budget %d after demotion", resident, budget)
	}
	if cDSSpills.Value() <= spillsBefore {
		t.Fatal("demotion did not count a spill")
	}
	if _, err := os.Stat(c.shardPath(101)); err != nil {
		t.Fatalf("demoted shard file missing: %v", err)
	}
	// The demoted entry still serves the exact original bytes.
	got, err := c.getOrCollect(101, func() (*trace.Store, error) {
		t.Fatal("demoted entry re-collected")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hashDataset(got) != h1 {
		t.Fatal("demoted dataset bytes differ from the original")
	}

	// A fresh cache (same spill dir) finds the shard on disk: the second
	// cache tier survives eviction and process restarts.
	c2 := NewDatasetCache(4, 0, dir)
	hitsBefore := cDSDiskHits.Value()
	reloaded, err := c2.getOrCollect(101, func() (*trace.Store, error) {
		t.Fatal("disk tier missed; re-collected")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hashDataset(reloaded) != h1 {
		t.Fatal("disk-tier dataset bytes differ from the original")
	}
	if cDSDiskHits.Value() <= hitsBefore {
		t.Fatal("disk reload did not count a disk hit")
	}
}

// TestLargeScaleSpillTraining is the acceptance gate for the spill tier at
// scale: a 1000-domain dataset (4 closed-world sites + 996 unique open-world
// domains) collected through a bounded window — resident value memory far
// below the dataset's total value bytes — must match the in-memory
// collection byte-for-byte, and a model trained on the spilled dataset must
// export weights bit-identical to one trained on the in-memory baseline.
func TestLargeScaleSpillTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-domain collection in -short mode")
	}
	scn := tinyScenario("spill/large-scale")
	scn.TraceDuration = 1 * sim.Second
	sc := Scale{Sites: 4, TracesPerSite: 1, OpenWorld: 996, Folds: 2, Seed: 23}

	base, _, err := collectDataset(scn, sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != 1000 {
		t.Fatalf("dataset has %d traces, want 1000", base.Len())
	}
	hBase := hashDataset(base)

	plan := &spillPlan{
		path:       filepath.Join(t.TempDir(), "large.trst"),
		windowRows: 64, // 64 of 1000 rows resident during collection
	}
	spilled, _, err := collectDataset(scn, sc, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	if h := hashDataset(spilled); h != hBase {
		t.Fatalf("spilled collection hash %#x, in-memory %#x", h, hBase)
	}
	if runtime.GOOS == "linux" {
		if !spilled.Spilled() {
			t.Fatal("large-scale store not mmap-backed")
		}
		if spilled.ResidentBytes() >= spilled.ValueBytes() {
			t.Fatalf("resident %d bytes not below value bytes %d",
				spilled.ResidentBytes(), spilled.ValueBytes())
		}
	}

	train := func(st *trace.Store) ml.Weights {
		s, err := ml.PackDataset(ml.Preprocessor{Smooth: 3}, st.All())
		if err != nil {
			t.Fatal(err)
		}
		model, err := ml.PaperNet(7, s.Size(), st.NumClasses(), 4, 6, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ml.FitConfig{Epochs: 1, BatchSize: 32, LR: 0.003, Seed: 7, Parallelism: 4}
		if err := model.Fit(s.X, s.Y, nil, nil, cfg); err != nil {
			t.Fatal(err)
		}
		return model.ExportWeights()
	}
	wBase := train(base)
	wSpill := train(spilled)
	if len(wBase.Blobs) != len(wSpill.Blobs) {
		t.Fatalf("blob count %d vs %d", len(wBase.Blobs), len(wSpill.Blobs))
	}
	for bi := range wBase.Blobs {
		for i := range wBase.Blobs[bi] {
			if wBase.Blobs[bi][i] != wSpill.Blobs[bi][i] {
				t.Fatalf("blob %d elem %d: spilled-trained %v != baseline %v",
					bi, i, wSpill.Blobs[bi][i], wBase.Blobs[bi][i])
			}
		}
	}
}
