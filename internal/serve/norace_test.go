//go:build !race

package serve

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random, so a pooled path allocates.
const raceEnabled = false
