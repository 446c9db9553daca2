package fl_test

import (
	"runtime"
	"testing"

	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// BenchmarkRound is the round kernel's cost under Static (8,10,20) on
// the paper's 200-device fleet, in ns/round and allocs/round, for the
// ideal and the realistic scenario. b.N counts rounds. They run as
// 200-round runs on one arena that a first run warmed, so every timed
// round replays the recorded environment trace and the per-run costs
// (the controller, the result's history) are spread over 200 rounds.
//
//	go test -run '^$' -bench Round ./internal/fl
func BenchmarkRound(b *testing.B) {
	const runRounds = 200
	for _, s := range []exp.ScenarioSpec{exp.Ideal(workload.CNNMNIST()), exp.Realistic(workload.CNNMNIST())} {
		b.Run(s.Name, func(b *testing.B) {
			s.Fleet.Size = 200
			cfg := s.Config(1)
			cfg.StopAtConvergence = false
			cfg.MaxRounds = runRounds
			p := fl.Params{B: 8, E: 10, K: 20}
			a := fl.NewArena()
			fl.RunWithArena(cfg, fl.NewStatic(p), a)

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for done := 0; done < b.N; done += cfg.MaxRounds {
				cfg.MaxRounds = min(runRounds, b.N-done)
				fl.RunWithArena(cfg, fl.NewStatic(p), a)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/round")
		})
	}
}
