package core

import (
	"fmt"
	"testing"

	"repro/internal/browser"
	"repro/internal/kernel"
)

func TestTorAccuracyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := Scale{Sites: 10, TracesPerSite: 8, Folds: 4, Seed: 5}
	scn := Scenario{Name: "torband", OS: kernel.Linux, Browser: browser.TorBrowser, Attack: LoopCounting}
	res, err := (Runner{}).RunExperiment(scn, sc)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("tor:", res)
	// Tor must be far below Chrome's ~90+ but clearly above the 10%
	// chance level, mirroring Table 1's 49.8% at paper scale.
	if res.Top1.Mean < 15 || res.Top1.Mean > 75 {
		t.Fatalf("tor accuracy %v outside plausible band", res.Top1)
	}
}
