// Figures: render paper-style artifacts in the terminal — Figure 3's
// grayscale trace strips for a handful of sites and Figure 4's loop-vs-
// sweep overlay, using the reproduction's render package.
//
//	go run ./examples/figures
package main

import (
	"fmt"
	"log"

	biggerfish "repro"
	"repro/internal/render"
	"repro/internal/stats"
)

func main() {
	scn := biggerfish.Scenario{
		Name:    "figures",
		OS:      biggerfish.Linux,
		Browser: biggerfish.Chrome,
		Attack:  biggerfish.LoopCounting,
	}
	sites := []string{"nytimes.com", "amazon.com", "weather.com", "github.com", "wikipedia.org", "twitch.tv"}

	rows := map[string][]float64{}
	for _, site := range sites {
		tr, err := biggerfish.CollectTrace(scn, site, 0, 0, 2022)
		if err != nil {
			log.Fatal(err)
		}
		rows[site] = tr.Values
	}
	fmt.Println("Figure 3 — loop-counting traces (darker = more interrupt time):")
	fmt.Println()
	fmt.Print(render.HeatMap(rows, sites, 76, "0s ─────────────────────────────── 15s"))

	// A mini Figure 4: averaged loop vs sweep for one site.
	fmt.Println("\nFigure 4 — normalized loop (●) vs sweep (○) traces, nytimes.com:")
	series, err := biggerfish.Runner{}.Figure4(4, 2022)
	if err != nil {
		log.Fatal(err)
	}
	s := series[0]
	fmt.Print(render.Overlay(stats.MovingAverage(s.Loop, 9), stats.MovingAverage(s.Sweep, 9), 76, 10))
	fmt.Printf("correlation r = %.2f (paper: 0.87)\n", s.Correlation)
}
