package fl

import (
	"math"
	"testing"

	"fedgpo/internal/workload"
)

// history builds a hand-made run: one record per accuracy, with round
// i (1-based) taking i seconds and 10·i joules, so every prefix sum is
// distinct.
func history(accs ...float64) []RoundRecord {
	h := make([]RoundRecord, len(accs))
	for i, acc := range accs {
		h[i] = RoundRecord{Round: i + 1, Accuracy: acc, RoundSeconds: float64(i + 1), EnergyJ: 10 * float64(i+1)}
	}
	return h
}

func TestOutcomeOfEmptyHistory(t *testing.T) {
	w := workload.CNNMNIST()
	for _, h := range [][]RoundRecord{nil, {}} {
		if got := OutcomeOf(w, h); got != (Outcome{}) {
			t.Errorf("OutcomeOf(%v) = %+v, want the zero Outcome", h, got)
		}
	}
}

// A run that reaches the band only in its last Window rounds converges
// at the first of them; time and energy stop there, while
// RoundsExecuted and FinalAccuracy describe the whole run.
func TestOutcomeOfConvergesInFinalWindow(t *testing.T) {
	w := workload.CNNMNIST() // target 0.97, band 0.01, window 3
	got := OutcomeOf(w, history(0.5, 0.97, 0.8, 0.96, 0.975, 0.98))
	want := Outcome{
		Converged:            true,
		ConvergenceRound:     4,
		RoundsExecuted:       6,
		TimeToConvergenceSec: 1 + 2 + 3 + 4,
		EnergyToConvergenceJ: 10 + 20 + 30 + 40,
		FinalAccuracy:        0.98,
		PPW:                  1.0 / 100,
		AvgRoundSeconds:      10.0 / 4,
	}
	if got != want {
		t.Errorf("OutcomeOf = %+v\nwant        %+v", got, want)
	}
	// One in-band round short of the window is not convergence.
	if o := OutcomeOf(w, history(0.5, 0.97, 0.8, 0.96, 0.975)); o.Converged || o.ConvergenceRound != -1 {
		t.Errorf("a two-round streak converged: %+v", o)
	}
}

// An unconverged run charges every round and extrapolates its PPW from
// the log-gap progress it made.
func TestOutcomeOfUnconvergedExtrapolatesPPW(t *testing.T) {
	w := workload.CNNMNIST()
	got := OutcomeOf(w, history(0.5, 0.8, 0.9, 0.95))
	l := w.Learn
	scale := math.Log((l.MaxAccuracy-l.InitialAccuracy)/(l.MaxAccuracy-l.TargetAccuracy)) /
		math.Log((l.MaxAccuracy-l.InitialAccuracy)/(l.MaxAccuracy-0.95))
	want := Outcome{
		ConvergenceRound:     -1,
		RoundsExecuted:       4,
		TimeToConvergenceSec: 10,
		EnergyToConvergenceJ: 100,
		FinalAccuracy:        0.95,
		PPW:                  1 / (100 * scale),
		AvgRoundSeconds:      2.5,
	}
	if got != want {
		t.Errorf("OutcomeOf = %+v\nwant        %+v", got, want)
	}
	if scale <= 1 || got.PPW >= 1.0/100 {
		t.Errorf("extrapolation scale %v should make PPW %v worse than 1/energy", scale, got.PPW)
	}
	// No progress at all scores the tiny positive floor.
	if o := OutcomeOf(w, history(0.05, 0.1)); o.PPW != 1e-6/30 {
		t.Errorf("no-progress PPW = %v, want %v", o.PPW, 1e-6/30)
	}
}
