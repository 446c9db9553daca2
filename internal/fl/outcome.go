package fl

import (
	"math"

	"fedgpo/internal/convmodel"
	"fedgpo/internal/workload"
)

// Outcome is what a run's round history says about it. OutcomeOf is
// the only code that computes it.
type Outcome struct {
	Converged bool
	// ConvergenceRound is 1-based, or -1 if the run never converged.
	ConvergenceRound int
	RoundsExecuted   int
	// TimeToConvergenceSec, EnergyToConvergenceJ and AvgRoundSeconds
	// cover the rounds through the convergence round, or every round
	// of an unconverged run.
	TimeToConvergenceSec float64
	EnergyToConvergenceJ float64
	FinalAccuracy        float64
	// PPW is the global performance-per-watt figure of merit; higher
	// is better, and the paper reports it normalized to Fixed (Best).
	PPW             float64
	AvgRoundSeconds float64
}

// OutcomeOf derives a run's outcome from the workload it trained and
// its round history; an empty history gives the zero Outcome.
//
// Convergence is convmodel.Tracker's rule (paper §5.1), dated to the
// first round of the settle window. PPW is 1/energy-to-convergence for
// a converged run. An unconverged run scores 1/(extrapolated energy):
// training closes a roughly constant fraction of the remaining
// accuracy gap per round, so the energy still needed scales the energy
// spent by log(initial gap / target gap) ÷ log(initial gap / final
// gap), never by less than 1. That punishes settings that are cheap
// per round but would take thousands of rounds to finish. A run with
// no measurable progress scores 1e-6/energy: effectively zero, yet
// positive, so normalized ratios stay finite.
func OutcomeOf(w workload.Workload, h []RoundRecord) Outcome {
	if len(h) == 0 {
		return Outcome{}
	}
	tracker := convmodel.NewTracker(w)
	for i := range h {
		tracker.Observe(h[i].Accuracy)
	}
	o := Outcome{
		Converged:        tracker.Converged(),
		ConvergenceRound: tracker.ConvergenceRound(),
		RoundsExecuted:   len(h),
		FinalAccuracy:    h[len(h)-1].Accuracy,
	}
	counted := len(h)
	if o.Converged {
		counted = o.ConvergenceRound
	}
	for i := range h[:counted] {
		o.TimeToConvergenceSec += h[i].RoundSeconds
		o.EnergyToConvergenceJ += h[i].EnergyJ
	}
	o.AvgRoundSeconds = o.TimeToConvergenceSec / float64(counted)

	l, e := w.Learn, o.EnergyToConvergenceJ
	gapInit, gapTarget := l.MaxAccuracy-l.InitialAccuracy, l.MaxAccuracy-l.TargetAccuracy
	gapFinal := l.MaxAccuracy - o.FinalAccuracy
	switch {
	case e <= 0:
	case o.Converged:
		o.PPW = 1 / e
	case gapInit <= 0 || gapTarget <= 0:
	case gapFinal >= gapInit || gapFinal <= 0 || math.Log(gapInit/gapFinal) <= 1e-9:
		o.PPW = 1e-6 / e
	default:
		scale := math.Log(gapInit/gapTarget) / math.Log(gapInit/gapFinal)
		o.PPW = 1 / (e * max(scale, 1))
	}
	return o
}
