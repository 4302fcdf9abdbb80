package biggerfish

import (
	"testing"
)

// The facade must expose a working end-to-end path without touching
// internal packages directly.
func TestFacadeEndToEnd(t *testing.T) {
	scn := Scenario{
		Name:    "facade",
		OS:      Linux,
		Browser: Chrome,
		Attack:  LoopCounting,
	}
	sc := Scale{Sites: 3, TracesPerSite: 3, Folds: 3, Seed: 5}
	ds, err := Runner{}.CollectDataset(scn, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 9 {
		t.Fatalf("dataset size %d", ds.Len())
	}
	res, err := Evaluate(ds, sc, nil, "facade")
	if err != nil {
		t.Fatal(err)
	}
	if res.Top1.Mean <= 30 {
		t.Fatalf("facade accuracy %v", res.Top1)
	}
}

func TestFacadeExports(t *testing.T) {
	if len(ClosedWorldDomains()) != 100 {
		t.Fatal("domains")
	}
	if DefaultClassifier(1) == nil {
		t.Fatal("classifier")
	}
	tr, err := CollectTrace(Scenario{Name: "one", OS: Linux, Browser: Safari, Attack: SweepCounting},
		"github.com", 2, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Label != 2 || tr.Domain != "github.com" || tr.Attack != "sweep-counting" {
		t.Fatalf("trace metadata: %+v", tr)
	}
	if JSAttacker.IterCycles <= RustAttacker.IterCycles || CSSAttacker.IterCycles <= PythonAttacker.IterCycles {
		t.Fatal("variant costs ordering")
	}
	if TorBrowser.String() != "tor-browser-10" {
		t.Fatal("browser export")
	}
	if Windows.String() != "windows" {
		t.Fatal("os export")
	}
	// Experiment entry points are wired.
	if Figure3 == nil || Figure5 == nil || Figure6 == nil || Figure7 == nil ||
		Figure8 == nil {
		t.Fatal("experiment functions")
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	res, err := Runner{}.RunExperiment(Scenario{
		Name: "facade-run", OS: MacOS, Browser: Firefox, Attack: LoopCounting,
	}, Scale{Sites: 3, TracesPerSite: 3, Folds: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldTop1) != 3 {
		t.Fatal("folds")
	}
}
