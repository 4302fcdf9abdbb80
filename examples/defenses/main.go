// Defenses: evaluate the paper's two countermeasures (§6) against the
// loop-counting attack — the randomized timer (Table 4) and spurious
// interrupt noise (Table 2) — and compare them with the cache-sweep noise
// baseline of Shusterman et al.
//
//	go run ./examples/defenses
package main

import (
	"fmt"
	"log"

	biggerfish "repro"
	"repro/internal/clockface"
	"repro/internal/sim"
)

func main() {
	scale := biggerfish.Scale{
		Sites:         10,
		TracesPerSite: 8,
		Folds:         4,
		Seed:          11,
	}
	base := biggerfish.Scenario{
		OS:      biggerfish.Linux,
		Browser: biggerfish.Chrome,
		Attack:  biggerfish.LoopCounting,
	}

	// The zero Runner evaluates with the default nearest-centroid
	// classifier and collects every dataset afresh.
	var runner biggerfish.Runner
	run := func(name string, mutate func(*biggerfish.Scenario)) biggerfish.Result {
		scn := base
		scn.Name = name
		mutate(&scn)
		res, err := runner.RunExperiment(scn, scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  ", res)
		return res
	}

	fmt.Println("loop-counting attack under countermeasures (chance = 10%):")
	undefended := run("undefended", func(*biggerfish.Scenario) {})

	// Cache-sweep noise barely helps: the attack is not a cache attack.
	run("cache-sweep noise", func(s *biggerfish.Scenario) { s.CacheNoise = true })

	// Spurious interrupts inject fake "activity" into the channel itself.
	run("interrupt noise", func(s *biggerfish.Scenario) { s.InterruptNoise = true })

	// The randomized timer (§6.1) denies the attacker its measurement:
	// every reported "5 ms" period spans a random real duration and
	// lands in a scrambled trace slot.
	randomized := run("randomized timer", func(s *biggerfish.Scenario) {
		s.Timer = func(seed uint64) biggerfish.Timer {
			return clockface.NewRandomized(sim.NewStream(seed, "defense"))
		}
	})

	fmt.Printf("\nrandomized timer removed %.0f accuracy points; interrupt noise costs only a %.0f%% page-load slowdown.\n",
		undefended.Top1.Mean-randomized.Top1.Mean, 15.7)
}
