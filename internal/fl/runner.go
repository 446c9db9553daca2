package fl

import "fedgpo/internal/device"

// Summary aggregates Results over multiple seeds.
type Summary struct {
	// Means over seeds.
	MeanPPW              float64
	MeanTimeToConvSec    float64
	MeanConvergenceRound float64
	MeanFinalAccuracy    float64
	MeanAvgRoundSec      float64
	EnergyByCategory     map[device.Category]float64
}

// Summarize aggregates per-seed results in slice order and averages
// the headline metrics; maxRounds is the round budget unconverged runs
// are charged, so convergence round is averaged over converged runs
// only. The parallel experiment runtime calls this on results it
// executed out-of-process or served from cache, so the aggregation
// (including float accumulation order) must stay byte-identical to a
// serial run of the seeds.
func Summarize(maxRounds int, results []Result) Summary {
	if len(results) == 0 {
		panic("fl: Summarize needs at least one result")
	}
	s := Summary{EnergyByCategory: make(map[device.Category]float64)}
	for _, r := range results {
		s.MeanPPW += r.PPW
		s.MeanTimeToConvSec += r.TimeToConvergenceSec
		s.MeanFinalAccuracy += r.FinalAccuracy
		s.MeanAvgRoundSec += r.AvgRoundSeconds
		if r.Converged {
			s.MeanConvergenceRound += float64(r.ConvergenceRound)
		} else {
			s.MeanConvergenceRound += float64(maxRounds)
		}
		for cat, e := range r.EnergyByCategory {
			s.EnergyByCategory[cat] += e
		}
	}
	n := float64(len(results))
	s.MeanPPW /= n
	s.MeanTimeToConvSec /= n
	s.MeanConvergenceRound /= n
	s.MeanFinalAccuracy /= n
	s.MeanAvgRoundSec /= n
	for cat := range s.EnergyByCategory {
		s.EnergyByCategory[cat] /= n
	}
	return s
}
