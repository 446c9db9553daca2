// Package abs implements the ABS baseline (Ma et al., "Adaptive Batch
// Size for Federated Learning in Resource-Constrained Edge Computing",
// paper reference [49]): a deep-RL agent that adjusts only the local
// minibatch size B round-by-round, leaving E and K at their defaults.
//
// The agent is a small DQN, a two-layer MLP in this package that maps a
// round-state feature vector to Q-values over the discrete B choices,
// trained from an experience-replay buffer against a periodically
// synchronized target network. The paper's comparison notes ABS "does
// not adjust E and K, which helps to deal with the straggler problem
// and data heterogeneity" — that structural limitation is exactly what
// this implementation reproduces.
package abs

import (
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/stats"
)

// The agent's operating point. E and K are the parameters ABS does not
// adapt; the rest size and train the DQN: the MLP hidden width, the
// Adam learning rate of the Q-network, the RL discount, the
// exploration rate (annealed by epsilonDecay per round down to
// epsilonMin), the experience replay and its minibatch, and how many
// updates pass between target-network syncs.
const (
	fixedE, fixedK                     = 10, 20
	hidden                             = 24
	lr                                 = 0.005
	gamma                              = 0.3
	epsilon0, epsilonMin, epsilonDecay = 0.5, 0.05, 0.97
	replayCap, batchSize               = 256, 16
	targetSync                         = 10
)

// Config seeds the ABS agent.
type Config struct {
	// Seed drives initialization and exploration.
	Seed int64
}

// DefaultConfig returns the operating point used in the experiments.
func DefaultConfig() Config { return Config{Seed: 1} }

const stateDim = 5

type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
}

// Controller is the ABS policy; it implements fl.Controller.
type Controller struct {
	rng     *stats.RNG
	bValues []int

	qNet    *mlp
	target  []float64 // the target network's parameters
	replay  []transition
	updates int

	// Minibatch scratch reused by train.
	xs, nexts, targets, dy []float64
	taken                  []int

	energyNorm *stats.EMA
	lastState  []float64
	lastAction int
	epsilon    float64
}

var _ fl.Controller = (*Controller)(nil)

// New builds an ABS controller.
func New(cfg Config) *Controller {
	rng := stats.NewRNG(cfg.Seed)
	bValues := fl.BValues()
	q := newMLP(stateDim, hidden, len(bValues), lr, rng.Split())
	return &Controller{
		rng:        rng,
		bValues:    bValues,
		qNet:       q,
		target:     append([]float64(nil), q.w...),
		xs:         make([]float64, batchSize*stateDim),
		nexts:      make([]float64, batchSize*stateDim),
		targets:    make([]float64, batchSize),
		dy:         make([]float64, batchSize*len(bValues)),
		taken:      make([]int, batchSize),
		energyNorm: stats.NewEMA(0.2),
		lastAction: -1,
		epsilon:    epsilon0,
	}
}

// Name identifies the controller.
func (c *Controller) Name() string { return "ABS" }

// stateVector summarizes the observation for the Q-network, reading
// the fleet's interfered and bad-link shares off the observation's
// counts.
func stateVector(obs fl.Observation) []float64 {
	n := float64(len(obs.Fleet))
	if n == 0 {
		n = 1
	}
	return []float64{
		obs.PrevAccuracy,
		float64(obs.Interfered) / n,
		float64(obs.BadLinks) / n,
		float64(obs.Round%50) / 50,
		1,
	}
}

// Plan selects B via the epsilon-greedy Q-network; E and K stay fixed.
func (c *Controller) Plan(obs fl.Observation) fl.Plan {
	state := stateVector(obs)
	var action int
	if c.rng.Bernoulli(c.epsilon) {
		action = c.rng.Intn(len(c.bValues))
	} else {
		action = stats.ArgMax(c.qNet.forward(c.qNet.w, state, 1))
	}
	c.lastState = state
	c.lastAction = action
	lp := fl.LocalParams{B: c.bValues[action], E: fixedE}
	return fl.Plan{K: fixedK, Local: func(*device.Device, *fl.DeviceState) fl.LocalParams {
		return lp
	}}
}

// Observe computes the reward (energy-normalized, improvement-gated,
// the same scalar objective shape the other adaptive baselines use),
// stores the transition, and trains the DQN from replay.
func (c *Controller) Observe(res fl.RoundResult) {
	if c.lastAction < 0 {
		return
	}
	eNorm := 10.0
	if avg := c.energyNorm.Add(res.EnergyGlobalJ); avg > 0 {
		eNorm = 10 * res.EnergyGlobalJ / avg
	}
	accPct := res.Accuracy * 100
	prevPct := res.PrevAccuracy * 100
	var reward float64
	if accPct <= prevPct {
		reward = accPct - 100
	} else {
		headroom := 100 - prevPct
		if headroom < 1e-9 {
			headroom = 1e-9
		}
		reward = -eNorm + 20*(100*(accPct-prevPct)/headroom)
	}
	next := append([]float64(nil), c.lastState...)
	next[0] = res.Accuracy
	c.push(transition{state: c.lastState, action: c.lastAction, reward: reward, next: next})
	c.train()
	c.lastAction = -1
	c.epsilon = c.epsilon * epsilonDecay
	if c.epsilon < epsilonMin {
		c.epsilon = epsilonMin
	}
}

func (c *Controller) push(t transition) {
	if len(c.replay) >= replayCap {
		copy(c.replay, c.replay[1:])
		c.replay = c.replay[:len(c.replay)-1]
	}
	c.replay = append(c.replay, t)
}

// train runs one minibatch DQN update.
func (c *Controller) train() {
	if len(c.replay) < batchSize {
		return
	}
	n := batchSize
	actions := len(c.bValues)
	for i := 0; i < n; i++ {
		t := c.replay[c.rng.Intn(len(c.replay))]
		copy(c.xs[i*stateDim:(i+1)*stateDim], t.state)
		copy(c.nexts[i*stateDim:(i+1)*stateDim], t.next)
		c.taken[i] = t.action
		c.targets[i] = t.reward
	}
	// Targets reward + γ·max Q' from the frozen network.
	nextQ := c.qNet.forward(c.target, c.nexts, n)
	for i := 0; i < n; i++ {
		maxNext := nextQ[i*actions]
		for j := 1; j < actions; j++ {
			if nextQ[i*actions+j] > maxNext {
				maxNext = nextQ[i*actions+j]
			}
		}
		c.targets[i] += gamma * maxNext
	}
	pred := c.qNet.forward(c.qNet.w, c.xs, n)
	tdGrad(c.dy, pred, c.taken, c.targets, actions)
	c.qNet.backward(c.xs, c.dy, n)
	c.qNet.adamStep()

	c.updates++
	if c.updates%targetSync == 0 {
		copy(c.target, c.qNet.w)
	}
}
