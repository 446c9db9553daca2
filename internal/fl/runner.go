package fl

import "fedgpo/internal/device"

// Summary aggregates Results over multiple seeds.
type Summary struct {
	Controller string
	Seeds      int
	// Means over seeds.
	MeanPPW              float64
	MeanTimeToConvSec    float64
	MeanEnergyToConvJ    float64
	MeanConvergenceRound float64
	MeanFinalAccuracy    float64
	MeanAvgRoundSec      float64
	MeanOverheadSec      float64
	ConvergedFraction    float64
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
	s := Summary{Seeds: len(results), EnergyByCategory: make(map[device.Category]float64)}
	for _, r := range results {
		s.Controller = r.Controller
		s.MeanPPW += r.PPW
		s.MeanTimeToConvSec += r.TimeToConvergenceSec
		s.MeanEnergyToConvJ += r.EnergyToConvergenceJ
		s.MeanFinalAccuracy += r.FinalAccuracy
		s.MeanAvgRoundSec += r.AvgRoundSeconds
		s.MeanOverheadSec += r.ControllerOverheadSec
		if r.Converged {
			s.ConvergedFraction++
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
	s.MeanEnergyToConvJ /= n
	s.MeanConvergenceRound /= n
	s.MeanFinalAccuracy /= n
	s.MeanAvgRoundSec /= n
	s.MeanOverheadSec /= n
	s.ConvergedFraction /= n
	for cat := range s.EnergyByCategory {
		s.EnergyByCategory[cat] /= n
	}
	return s
}
