package core

import "fedgpo/internal/stats"

// RewardConfig weights the reward terms of paper Eq. 1: α scales the
// absolute accuracy term, β the round-over-round accuracy improvement.
type RewardConfig struct {
	Alpha, Beta float64
}

// DefaultRewardConfig returns α=0.1, β=16. The paper selects α and β by
// sensitivity analysis without publishing values, so the calibration
// here is our own, chosen to make the three Eq. 1 terms statistically
// balanced for tabular Q-learning:
//
//   - The improvement term uses the *fraction of the remaining accuracy
//     gap closed* (see Reward), which is stationary across a training
//     run — a raw accuracy delta shrinks a hundredfold between round 5
//     and round 100 and would keep reshuffling Q rankings. β=20 turns
//     the typical 1–4%-of-gap round progress into 20–80 reward units.
//   - Energy terms are EMA-normalized to ~10 nominal each, so they
//     decide between configurations with similar convergence value.
//   - α=0.1 keeps the absolute-accuracy term a gentle tiebreak (≤10
//     units over a whole run) rather than a drifting bias.
//
// An ablation bench sweeps α and β.
func DefaultRewardConfig() RewardConfig { return RewardConfig{Alpha: 0.1, Beta: 16} }

// Reward implements paper Eq. 1. Accuracies are in percent (0–100);
// energy terms arrive pre-normalized (dimensionless, ~10 nominal):
//
//	if R_accuracy − R_accuracy_prev <= 0:
//	    R = R_accuracy − 100
//	else:
//	    R = −R_energy_global − R_energy_local
//	        + α·R_accuracy + β·improvement
//
// where improvement is the paper's (R_accuracy − R_accuracy_prev)
// expressed as the percentage of the remaining accuracy headroom the
// round closed, 100·(acc − prev)/(100 − prev). The paper substitutes
// time-to-convergence with "the improvement in accuracy"; measuring the
// improvement relative to the remaining gap keeps that signal the same
// size at round 5 and round 100, which tabular Q-learning with a high
// learning rate needs (a raw percentage-point delta decays throughout
// training and would constantly reorder Q values stamped at different
// rounds).
//
// The first branch punishes any round that fails to improve accuracy
// with a large negative reward, which is what guarantees FedGPO never
// trades model quality for energy.
func Reward(cfg RewardConfig, accPct, prevAccPct, energyGlobal, energyLocal float64) float64 {
	if accPct-prevAccPct <= 0 {
		return accPct - 100
	}
	headroom := 100 - prevAccPct
	if headroom < 1e-9 {
		headroom = 1e-9
	}
	improvement := 100 * (accPct - prevAccPct) / headroom
	return -energyGlobal - energyLocal + cfg.Alpha*accPct + cfg.Beta*improvement
}

// EnergyNormalizer rescales raw joule measurements into the
// dimensionless ~10-nominal range Eq. 1's energy terms use: a round
// that burns the reference energy scores 10; cheaper rounds score
// proportionally less. The reference is an exponential moving average
// over the first FreezeAfter observations and is then locked. The lock
// matters: a continuously adapting reference would re-center on
// whatever the policy currently does, erasing the penalty difference
// between sustained policy choices (e.g. K=15 vs K=10, which differ by
// a constant 1.5× in round energy) — only transient deviations would
// ever be punished. The paper does not specify its normalization; this
// choice keeps the energy terms an absolute (post-calibration) scale.
type EnergyNormalizer struct {
	ema         *stats.EMA
	adds        int
	freezeAfter int
}

// energyNormFreezeAfter is the number of observations the reference
// averages before locking — sized to the 30–40-round learning phase
// (each round contributes several local observations).
const energyNormFreezeAfter = 60

// NewEnergyNormalizer returns a normalizer with a 0.2 smoothing factor
// (reacts within a few rounds) that locks its reference after the
// learning phase.
func NewEnergyNormalizer() *EnergyNormalizer {
	return &EnergyNormalizer{ema: stats.NewEMA(0.2), freezeAfter: energyNormFreezeAfter}
}

// Normalize folds the observation into the (unlocked) average and
// returns the normalized value (nominal 10 at the reference energy).
func (n *EnergyNormalizer) Normalize(joules float64) float64 {
	if joules < 0 {
		joules = 0
	}
	if n.adds < n.freezeAfter {
		n.ema.Add(joules)
		n.adds++
	}
	avg := n.ema.Value()
	if avg <= 0 {
		return 0
	}
	return 10 * joules / avg
}

// Value returns the current reference average in joules.
func (n *EnergyNormalizer) Value() float64 { return n.ema.Value() }

// NormalizerSnapshot is the serializable state of an EnergyNormalizer:
// the reference average and how many observations it has absorbed
// (which determines whether it is still adapting or locked).
type NormalizerSnapshot struct {
	Value float64
	Init  bool
	Adds  int
}

// Snapshot captures the normalizer's state.
func (n *EnergyNormalizer) Snapshot() NormalizerSnapshot {
	v, init := n.ema.State()
	return NormalizerSnapshot{Value: v, Init: init, Adds: n.adds}
}

// RestoreNormalizer rebuilds a normalizer from a snapshot.
func RestoreNormalizer(s NormalizerSnapshot) *EnergyNormalizer {
	n := NewEnergyNormalizer()
	n.ema.Restore(s.Value, s.Init)
	n.adds = s.Adds
	return n
}
