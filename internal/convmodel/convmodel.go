// Package convmodel is the statistical learning-dynamics model of the
// simulator: given the global parameters used in a round and the data
// heterogeneity of its participants, it advances the global model's
// test accuracy.
//
// It stands in for real DNN training: training actual networks on
// hundreds of devices for hundreds of rounds, once per configuration
// and seed, is out of reach, and the controllers only ever observe
// per-round accuracy. So the model reproduces how accuracy responds to
// the parameters rather than any weights — the qualitative response
// surface the paper characterizes in §2:
//
//   - B: a generalization sweet spot; effectiveness falls off
//     Gaussianly in log2(B) around the workload's optimum ("using
//     larger batch sizes usually yields poor generalizability").
//   - E: diminishing returns up to the optimum, over-fitting decay past
//     it; larger E also amplifies how much participant skew leaks into
//     the global model (client drift).
//   - K: diminishing-returns growth toward the optimum (global batch
//     size) plus a class-coverage effect; larger K under non-IID also
//     admits more skewed updates.
//   - Straggler drops: updates that miss the round deadline shrink the
//     aggregated data fraction, slowing and destabilizing progress.
//
// Each effect is an exported function so characterization tests can pin
// the shape directly.
package convmodel

import (
	"math"

	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// RoundInputs summarizes one aggregation round for the accuracy update.
type RoundInputs struct {
	// MeanB and MeanE are the sample-weighted means of the per-device
	// batch size and epoch count across participants (FedGPO assigns
	// per-device values; FedAvg baselines use one value fleet-wide).
	MeanB float64
	MeanE float64
	// K is the number of participants whose updates were aggregated.
	K int
	// Skew is the sample-weighted non-IID degree of the aggregated
	// participants in [0,1] (data.Partition.ParticipantSkew).
	Skew float64
	// Coverage is the fraction of classes represented in the
	// aggregated participants' data in [0,1].
	Coverage float64
	// DataFraction is the share of the selected participants' data
	// that actually arrived (1 - straggler drops) in [0,1].
	DataFraction float64
	// ChronicDropFraction is a long-run (EMA) measure of how much of
	// the federation's data keeps missing round deadlines. Straggler
	// drops are not random: the same slow/interfered devices miss
	// every deadline, so their data is systematically excluded from
	// the global model, which caps the reachable accuracy (the paper's
	// Fig. 10: baseline accuracy is "significantly degraded due to the
	// exacerbated straggler problems — previous works just drop the
	// gradient updates from the stragglers").
	ChronicDropFraction float64
}

// capDropCoef scales how strongly chronic straggler exclusion lowers
// the reachable accuracy asymptote.
const capDropCoef = 0.30

// Model advances a single training run's accuracy round by round.
// Create one per simulation run with New.
type Model struct {
	learn workload.Learning
	rng   *stats.RNG
	acc   float64
	round int
}

// New returns a model at the workload's initial accuracy. The RNG
// drives the per-round stochastic jitter; pass a Split() stream so runs
// are independent.
func New(w workload.Workload, rng *stats.RNG) *Model {
	return &Model{learn: w.Learn, rng: rng, acc: w.Learn.InitialAccuracy}
}

// Accuracy returns the current test accuracy in [0,1].
func (m *Model) Accuracy() float64 { return m.acc }

// Round returns the number of Step calls so far.
func (m *Model) Round() int { return m.round }

// BatchEffectiveness is the generalization factor of a batch size:
// a log2-Gaussian bump of width tol around the optimum, in (0,1].
func BatchEffectiveness(b, optB, tol float64) float64 {
	if b < 1 {
		b = 1
	}
	d := math.Log2(b) - math.Log2(optB)
	return math.Exp(-d * d / (2 * tol * tol))
}

// EpochEffectiveness models local-epoch returns: linear growth up to
// the optimum (each local epoch contributes its share of gradient
// progress — the under-fitting side), linear over-fitting decay past
// it, floored at 0.15 so progress never fully stalls.
func EpochEffectiveness(e, optE, overfit float64) float64 {
	if e < 1 {
		e = 1
	}
	if e <= optE {
		return e / optE
	}
	v := 1 - overfit*(e-optE)/optE
	if v < 0.15 {
		return 0.15
	}
	return v
}

// ParticipantEffectiveness models the global-batch effect of K with
// class coverage folded in: diminishing-returns growth toward the
// optimum (exponent 0.65, between gradient-noise sqrt scaling and
// linear data scaling), weighted by how much of the label space the
// participants actually cover.
func ParticipantEffectiveness(k int, optK, coverage float64) float64 {
	if k < 1 {
		return 0
	}
	kk := math.Min(float64(k), optK)
	base := math.Pow(kk/optK, 0.65)
	cov := 0.35 + 0.65*stats.Clamp(coverage, 0, 1)
	return base * cov
}

// SkewPenalty returns the multiplicative progress penalty of data
// heterogeneity for a round: sensitivity × skew, amplified by how many
// skewed participants K admits into the aggregate (paper §2.2: "K
// affects the number of non-IID devices participating for gradient
// updates"). The E side of the paper's mechanism — "E affects the
// number of iterations for parameter updates with the given data" —
// is modelled by DriftedOptimalE/DriftedOverfit shifting the epoch
// response curve. The result is a factor in (0, 1].
func SkewPenalty(skew, sens float64, k int, optK float64) float64 {
	if skew <= 0 || sens <= 0 {
		return 1
	}
	amp := 0.3 + 0.7*stats.Clamp(float64(k)/optK, 0, 1.5)
	p := 1 - sens*stats.Clamp(skew, 0, 1)*amp
	if p < 0.03 {
		return 0.03
	}
	return p
}

// DriftedOptimalE returns the epoch sweet spot under participant skew:
// client drift makes extra local iterations bake in non-IID bias, so
// the optimum slides toward fewer epochs (Fig. 7: the most
// energy-efficient setting shifts from (8,10,20) to (8,5,10) under
// non-IID data). Floored at 1.
func DriftedOptimalE(optE, skew float64) float64 {
	e := optE * (1 - 0.55*stats.Clamp(skew, 0, 1))
	if e < 1 {
		return 1
	}
	return e
}

// DriftedOverfit returns the over-fitting slope under participant skew:
// past the (already lowered) optimum, each extra epoch multiplies the
// drift damage.
func DriftedOverfit(overfit, skew float64) float64 {
	return overfit * (1 + stats.Clamp(skew, 0, 1))
}

// Gain returns the fraction of the remaining accuracy gap the round
// closes, before noise.
func (m *Model) Gain(in RoundInputs) float64 {
	l := m.learn
	g := l.BaseGain
	g *= BatchEffectiveness(in.MeanB, l.OptimalB, l.BTolerance)
	g *= EpochEffectiveness(in.MeanE,
		DriftedOptimalE(l.OptimalE, in.Skew),
		DriftedOverfit(l.EOverfit, in.Skew))
	g *= ParticipantEffectiveness(in.K, l.OptimalK, in.Coverage)
	g *= SkewPenalty(in.Skew, l.NonIIDSensitivity, in.K, l.OptimalK)
	g *= stats.Clamp(in.DataFraction, 0, 1)
	return g
}

// Step advances the accuracy by one aggregation round and returns the
// new accuracy. The update is a noisy geometric approach to the
// workload's asymptote:
//
//	acc' = acc + gain·(max − acc) + ε,  ε ~ N(0, σ·(1 − acc/max))
//
// so jitter anneals as training converges, the way real validation
// curves do.
func (m *Model) Step(in RoundInputs) float64 {
	m.round++
	effMax := EffectiveMax(m.learn.MaxAccuracy, in.ChronicDropFraction)
	gap := effMax - m.acc
	if gap < 0 {
		gap = 0
	}
	gain := m.Gain(in)
	noiseScale := m.learn.NoiseStd * (1 - m.acc/m.learn.MaxAccuracy)
	if noiseScale < 0 {
		noiseScale = 0
	}
	m.acc += gain*gap + m.rng.Gaussian(0, noiseScale)
	m.acc = stats.Clamp(m.acc, 0, effMax)
	return m.acc
}

// EffectiveMax returns the accuracy asymptote reachable when a chronic
// fraction of the federation's data keeps missing round deadlines.
func EffectiveMax(maxAcc, chronicDrop float64) float64 {
	return maxAcc * (1 - capDropCoef*stats.Clamp(chronicDrop, 0, 1))
}

// Tracker detects convergence the way the paper defines it (§5.1): the
// training accuracy settles into an error band around the target value.
type Tracker struct {
	// Target is the accuracy the run must reach.
	Target float64
	// Band is the tolerance below Target that still counts (the
	// "error range of the value achieved by the baseline").
	Band float64
	// Window is how many consecutive in-band rounds constitute
	// convergence.
	Window int

	streak    int
	converged int // round index, -1 until converged
	rounds    int
}

// NewTracker returns a tracker for a workload using its target accuracy,
// a 1-point band and a 3-round settle window.
func NewTracker(w workload.Workload) *Tracker {
	return &Tracker{Target: w.Learn.TargetAccuracy, Band: 0.01, Window: 3, converged: -1}
}

// Observe feeds one round's accuracy; it returns true once converged.
func (t *Tracker) Observe(acc float64) bool {
	t.rounds++
	if acc >= t.Target-t.Band {
		t.streak++
		if t.streak >= t.Window && t.converged < 0 {
			// Convergence is dated to the first round of the streak.
			t.converged = t.rounds - t.Window + 1
		}
	} else {
		t.streak = 0
	}
	return t.converged >= 0
}

// Converged reports whether the run has converged.
func (t *Tracker) Converged() bool { return t.converged >= 0 }

// ConvergenceRound returns the 1-based round at which convergence
// began, or -1 if not converged.
func (t *Tracker) ConvergenceRound() int { return t.converged }
