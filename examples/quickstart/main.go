// Quickstart: mount the loop-counting website-fingerprinting attack on five
// sites end to end — collect traces on the simulated machine, train the
// default classifier with cross-validation, and print the accuracy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	biggerfish "repro"
)

func main() {
	// A scenario is one experimental configuration: here the paper's
	// headline setup — a JavaScript loop-counting attacker inside
	// Chrome 92 on Linux (Table 1, first row).
	scenario := biggerfish.Scenario{
		Name:    "quickstart",
		OS:      biggerfish.Linux,
		Browser: biggerfish.Chrome,
		Attack:  biggerfish.LoopCounting,
	}

	// Keep it tiny: 5 sites × 6 visits, 3-fold cross-validation.
	scale := biggerfish.Scale{
		Sites:         5,
		TracesPerSite: 6,
		Folds:         3,
		Seed:          2022,
	}

	fmt.Println("sites under attack:")
	for _, d := range biggerfish.ClosedWorldDomains()[:scale.Sites] {
		fmt.Println("  ", d)
	}

	// Collect simulates every page load: the victim's network cascade
	// raises NIC interrupts and softirqs, rendering raises GPU
	// interrupts, JS bursts trigger rescheduling IPIs — and the attacker
	// counts loop iterations through Chrome's jittered 0.1 ms timer.
	ds, err := biggerfish.Runner{}.CollectDataset(scenario, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncollected %d traces of %d samples each\n",
		ds.Len(), ds.TraceLen())

	// Evaluate trains the default correlation classifier per fold and
	// reports top-1/top-5 accuracy, as in §4.1.
	res, err := biggerfish.Evaluate(ds, scale, nil, scenario.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n" + res.String())
	fmt.Println("\nno memory accesses were made by the attacker — the signal is interrupts.")
}
