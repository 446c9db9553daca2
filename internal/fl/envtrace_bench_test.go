package fl

import (
	"sync/atomic"
	"testing"

	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
)

// BenchmarkEnvTrace is the environment trace's cost on the paper's
// 200-device fleet over 300-round traces. record/<model> records fresh
// traces through a stable view, as the first run of an environment
// does (the draws, the permutation and the stable channel's bad-link
// counts), in ns per recorded device-round. second-channel/<model>
// reads a recorded trace through an unstable view that no run has read
// yet, as a recorded environment's first run under another channel
// does (it counts that channel's bad links), in ns per round.
//
//	go test -run '^$' -bench EnvTrace ./internal/fl
func BenchmarkEnvTrace(b *testing.B) {
	const n, rounds = 200, 300
	models := []struct {
		name string
		intf interfere.Model
	}{
		{"none", interfere.None()},
		{"web-browsing", interfere.Paper()},
		{"heavy-game@0.3", interfere.Model{Profile: interfere.HeavyGame(), ActiveFraction: 0.3}},
	}
	static := make([]DeviceState, n)
	for _, m := range models {
		key := envKey{seed: 1, n: n, intf: m.intf}
		b.Run("record/"+m.name, func(b *testing.B) {
			var bytes atomic.Int64
			for i := 0; i < b.N; i++ {
				var v traceView
				v.reset(newEnvTrace(key, &bytes), netsim.StableChannel())
				for r := 0; r < rounds; r++ {
					v.observe(r, static)
				}
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*n), "ns/device-round")
		})
		b.Run("second-channel/"+m.name, func(b *testing.B) {
			tr := newEnvTrace(key, new(atomic.Int64))
			var v traceView
			v.reset(tr, netsim.StableChannel())
			v.observe(rounds-1, static)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Forget the unstable channel's counts, so this view is
				// its first.
				tr.links = tr.links[:1]
				v.reset(tr, netsim.UnstableChannel())
				for r := 0; r < rounds; r++ {
					v.observe(r, static)
				}
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}
