//go:build race

package exp

// raceEnabled reports whether the test binary runs under the race
// detector, which allocates where a plain build does not.
const raceEnabled = true
