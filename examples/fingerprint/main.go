// Fingerprint: the paper's §4 evaluation in miniature — loop-counting vs
// the state-of-the-art sweep-counting (cache-occupancy) attack on the same
// closed world, plus an open-world run, with a significance test between
// the attacks (§4.2).
//
//	go run ./examples/fingerprint
package main

import (
	"fmt"
	"log"

	biggerfish "repro"
)

func main() {
	scale := biggerfish.Scale{
		Sites:         12,
		TracesPerSite: 8,
		Folds:         4,
		Seed:          7,
	}

	base := biggerfish.Scenario{
		OS:      biggerfish.Linux,
		Browser: biggerfish.Chrome,
	}

	// The zero Runner evaluates with the default nearest-centroid
	// classifier and collects every dataset afresh.
	var runner biggerfish.Runner

	// Closed world: the attacker knows all candidate sites.
	loop := base
	loop.Name = "loop-counting/closed"
	loop.Attack = biggerfish.LoopCounting
	loopRes, err := runner.RunExperiment(loop, scale)
	if err != nil {
		log.Fatal(err)
	}

	sweep := base
	sweep.Name = "sweep-counting/closed"
	sweep.Attack = biggerfish.SweepCounting
	sweepRes, err := runner.RunExperiment(sweep, scale)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("closed world (chance = 1/12):")
	fmt.Println("  ", loopRes)
	fmt.Println("  ", sweepRes)

	// The paper's claim: the attack without any memory accesses wins.
	if loopRes.Top1.Mean > sweepRes.Top1.Mean {
		fmt.Println("\nloop-counting beats the cache attack — interrupts, not the cache, carry the signal.")
	} else {
		fmt.Println("\nunexpected: sweep-counting won on this scale/seed; try a larger Scale.")
	}

	// Open world: unknown sites map to a single "non-sensitive" class.
	open := loop
	open.Name = "loop-counting/open"
	openScale := scale
	openScale.OpenWorld = 24
	openRes, err := runner.RunExperiment(open, openScale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nopen world (sensitive sites + unique unknown sites):")
	fmt.Println("  ", openRes)
}
