//go:build !race

package wire

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation makes allocation counts meaningless
// (and which makes sync.Pool drop a share of its puts on purpose).
const raceEnabled = false
