// Package fedex implements the FedEX baseline (Khodak et al., "Federated
// Hyperparameter Tuning: Challenges, Baselines, and Connections to
// Weight-Sharing", paper reference [29]): round-by-round FL parameter
// adjustment via exponentiated-gradient (Hedge/EXP3-style) updates over
// a discrete configuration set.
//
// The optimizer maintains a log-weight per configuration; each round it
// samples a configuration from the softmax distribution, observes a
// scalar reward, and applies an importance-weighted exponentiated
// gradient step. The paper characterizes FedEX as adapting E and K as
// well as B (robust to data heterogeneity) but with lower sample
// efficiency than FedGPO's Q-learning.
package fedex

import (
	"math"

	"fedgpo/internal/stats"
)

// The exponentiated-gradient update's moderate step sizes, as in the
// FedEX paper's experiments: the learning rate η, the smoothing of the
// reward baseline (variance reduction), and the floor of the sampling
// distribution, which keeps every arm's exploration probability
// nonzero.
const (
	stepSize      = 0.18
	baselineAlpha = 0.2
	minProb       = 1e-3
)

// Optimizer is a Hedge-style sampler over a discrete arm set. Not safe
// for concurrent use.
type Optimizer struct {
	logW     []float64
	rng      *stats.RNG
	baseline *stats.EMA
	lastArm  int
	scale    *stats.EMA // running reward magnitude for normalization
	p        []float64  // the distribution Suggest last drew from
}

// New builds an optimizer over n arms. It panics if n <= 0 or if n
// arms at the probability floor would take the whole distribution.
func New(n int, rng *stats.RNG) *Optimizer {
	if n <= 0 {
		panic("fedex: need at least one arm")
	}
	if minProb >= 1.0/float64(n) {
		panic("fedex: too many arms for the probability floor")
	}
	return &Optimizer{
		logW:     make([]float64, n),
		p:        make([]float64, n),
		rng:      rng,
		baseline: stats.NewEMA(baselineAlpha),
		lastArm:  -1,
		scale:    stats.NewEMA(0.1),
	}
}

// probabilities writes the current sampling distribution (softmax of
// the log-weights, floored at minProb and renormalized) into the
// optimizer's scratch slice and returns it; the next call overwrites
// it.
func (o *Optimizer) probabilities() []float64 {
	n := len(o.logW)
	maxW := o.logW[0]
	for _, w := range o.logW[1:] {
		if w > maxW {
			maxW = w
		}
	}
	p := o.p
	sum := 0.0
	for i, w := range o.logW {
		p[i] = math.Exp(w - maxW)
		sum += p[i]
	}
	for i := range p {
		p[i] = p[i]/sum*(1-float64(n)*minProb) + minProb
	}
	return p
}

// Suggest samples an arm from the current distribution.
func (o *Optimizer) Suggest() int {
	o.lastArm = o.rng.Categorical(o.probabilities())
	return o.lastArm
}

// Observe applies the exponentiated-gradient update for the reward of
// the last suggested arm. Rewards are internally normalized by a
// running magnitude so the step size is scale-free.
func (o *Optimizer) Observe(reward float64) {
	if o.lastArm < 0 {
		return
	}
	o.scale.Add(math.Abs(reward) + 1e-9)
	norm := o.scale.Value()
	if norm <= 0 {
		norm = 1
	}
	base := o.baseline.Value()
	advantage := (reward - base) / norm
	o.baseline.Add(reward)

	// The log-weights have not moved since Suggest drew lastArm, so the
	// distribution it drew from is still in o.p.
	p := o.p[o.lastArm]
	// Importance-weighted gradient: only the played arm's weight moves.
	o.logW[o.lastArm] += stepSize * advantage / p * p
	// (the p/p cancellation is kept explicit to mirror the EXP3 form
	// with full-information feedback on the played arm)
	o.lastArm = -1
	o.clampWeights()
}

// clampWeights keeps the log-weights bounded so the softmax never
// saturates into a degenerate one-hot distribution.
func (o *Optimizer) clampWeights() {
	const bound = 25.0
	maxW := o.logW[0]
	for _, w := range o.logW[1:] {
		if w > maxW {
			maxW = w
		}
	}
	for i := range o.logW {
		o.logW[i] -= maxW // re-center
		if o.logW[i] < -bound {
			o.logW[i] = -bound
		}
	}
}
