package biggerfish_test

import (
	"fmt"

	biggerfish "repro"
)

// Mount the paper's headline attack end to end on a tiny closed world:
// collect loop-counting traces in simulated Chrome on Linux, train the
// default classifier, and report cross-validated accuracy.
func Example() {
	scenario := biggerfish.Scenario{
		Name:    "example",
		OS:      biggerfish.Linux,
		Browser: biggerfish.Chrome,
		Attack:  biggerfish.LoopCounting,
	}
	scale := biggerfish.Scale{Sites: 3, TracesPerSite: 4, Folds: 2, Seed: 1}

	result, err := biggerfish.Runner{}.RunExperiment(scenario, scale)
	if err != nil {
		panic(err)
	}
	// The three easiest sites separate perfectly even at this tiny scale.
	fmt.Println(result.Top1.Mean >= 50)
	// Output: true
}

// Collect a single trace and inspect its shape: one counter value per
// 5 ms period over the 15-second page load.
func ExampleCollectTrace() {
	scenario := biggerfish.Scenario{
		Name:    "example-trace",
		OS:      biggerfish.Linux,
		Browser: biggerfish.Safari,
		Attack:  biggerfish.LoopCounting,
	}
	tr, err := biggerfish.CollectTrace(scenario, "wikipedia.org", 0, 0, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println(tr.Domain, len(tr.Values))
	// Output: wikipedia.org 3000
}

// The closed world is the paper's Appendix A list.
func ExampleClosedWorldDomains() {
	domains := biggerfish.ClosedWorldDomains()
	fmt.Println(len(domains), domains[0], domains[99])
	// Output: 100 1688.com zoom.us
}
