//go:build race

package fl

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation makes allocation counts meaningless.
const raceEnabled = true
