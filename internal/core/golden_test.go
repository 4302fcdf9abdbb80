package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/defense"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hashDataset folds every byte of a dataset that experiments depend on into
// one FNV-64a value: class count, then per trace the domain, label, attack
// name, period, and the exact bit pattern of every sample.
func hashDataset(st *trace.Store) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(st.NumClasses()))
	for i := 0; i < st.Len(); i++ {
		io.WriteString(h, st.Domain(i))
		io.WriteString(h, st.Attack(i))
		put(uint64(st.Label(i)))
		put(uint64(st.Period(i)))
		vals := st.Values(i)
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// collectDatasetForTest bypasses the in-process dataset cache so both
// collections below genuinely re-simulate every trace.
func collectDatasetForTest(scn Scenario, sc Scale) (*trace.Store, error) {
	st, _, err := collectDataset(scn, sc, nil, nil)
	return st, err
}

// goldenScale is the grid's dataset size: small enough to run in seconds,
// large enough to cover closed- and open-world labeling and several visits.
var goldenScale = Scale{Sites: 3, TracesPerSite: 2, OpenWorld: 2, Folds: 2, Seed: 11}

// goldenGrid covers every major simulation path: both attacks, three OS
// personalities, Tor circuits, the slot-indexed randomized-timer attacker,
// the full isolation ladder, and all three noise countermeasures.
func goldenGrid() []Scenario {
	short := 2 * sim.Second
	return []Scenario{
		{Name: "golden/chrome-linux-loop", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: LoopCounting, TraceDuration: short},
		{Name: "golden/chrome-linux-sweep", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: SweepCounting, TraceDuration: short},
		{Name: "golden/firefox-windows-loop", OS: kernel.Windows, Browser: browser.Firefox,
			Attack: LoopCounting, TraceDuration: short},
		{Name: "golden/tor-linux-loop", OS: kernel.Linux, Browser: browser.TorBrowser,
			Attack: LoopCounting, TraceDuration: short},
		{Name: "golden/python-randomized", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: LoopCounting, Variant: attack.Python, TraceDuration: short,
			Timer: func(seed uint64) clockface.Timer {
				return defense.RandomizedTimer(sim.NewStream(seed, "rnd-timer"))
			}},
		{Name: "golden/isolation-ladder", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: LoopCounting, Variant: attack.Python, TraceDuration: short,
			Timer: func(uint64) clockface.Timer { return clockface.Python() },
			Isolation: kernel.Isolation{
				FixedFreqGHz: 2.4, PinCores: true, RemoveIRQs: true, SeparateVMs: true,
			}},
		{Name: "golden/noise-everything", OS: kernel.MacOS, Browser: browser.Safari,
			Attack: SweepCounting, TraceDuration: short,
			BackgroundNoise: true, InterruptNoise: true, CacheNoise: true},
	}
}

// goldenHashes pins the exact dataset bytes produced by the seed
// implementation (PR 1, commit 1e0be33) for the grid above. Any engine or
// machine-lifecycle change must reproduce these bit-identically.
var goldenHashes = map[string]uint64{
	"golden/chrome-linux-loop":    0xe308c2a4d5acc9fd,
	"golden/chrome-linux-sweep":   0x44c0238021060bd2,
	"golden/firefox-windows-loop": 0x85feeeb976824a86,
	"golden/tor-linux-loop":       0xa21d1058faaa7566,
	"golden/python-randomized":    0xfaeb107a91d4f560,
	"golden/isolation-ladder":     0xb77cd5e56d26898c,
	"golden/noise-everything":     0x7d46d74e51dbd745,
}

// TestGoldenDeterminism asserts that the simulated datasets for the golden
// grid are byte-identical to the pre-rewrite implementation, at both serial
// and fully parallel collection.
func TestGoldenDeterminism(t *testing.T) {
	for _, scn := range goldenGrid() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			serial := goldenScale
			serial.Parallelism = 1
			ds1, err := collectDatasetForTest(scn, serial)
			if err != nil {
				t.Fatal(err)
			}
			h1 := hashDataset(ds1)

			parallel := goldenScale
			// At least 4 workers so single-core hosts still exercise the
			// multi-worker path (worker interleaving, slot contention).
			parallel.Parallelism = max(4, runtime.NumCPU())
			dsN, err := collectDatasetForTest(scn, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if hN := hashDataset(dsN); hN != h1 {
				t.Fatalf("parallel collection diverged: par=1 %#x, par=%d %#x",
					h1, parallel.Parallelism, hN)
			}
			want, ok := goldenHashes[scn.Name]
			if !ok {
				t.Fatalf("no golden hash recorded for %s (got %#x)", scn.Name, h1)
			}
			if h1 != want {
				t.Fatalf("dataset bytes changed: got %#x, golden %#x", h1, want)
			}
		})
	}
}
