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
	"fmt"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/stats"
)

// Config tunes the ABS agent.
type Config struct {
	// FixedE and FixedK are the parameters ABS does not adapt.
	FixedE, FixedK int
	// Hidden is the MLP hidden width.
	Hidden int
	// LR is the Adam learning rate of the Q-network.
	LR float64
	// Gamma is the RL discount factor.
	Gamma float64
	// Epsilon is the exploration rate (annealed to EpsilonMin).
	Epsilon, EpsilonMin, EpsilonDecay float64
	// ReplayCap and BatchSize size the experience replay.
	ReplayCap, BatchSize int
	// TargetSync is how many updates between target-network syncs.
	TargetSync int
	// Seed drives initialization and exploration.
	Seed int64
}

// DefaultConfig returns the operating point used in the experiments.
func DefaultConfig() Config {
	return Config{
		FixedE: 10, FixedK: 20,
		Hidden: 24, LR: 0.005, Gamma: 0.3,
		Epsilon: 0.5, EpsilonMin: 0.05, EpsilonDecay: 0.97,
		ReplayCap: 256, BatchSize: 16, TargetSync: 10,
		Seed: 1,
	}
}

// withDefaults returns the config New runs: the zero value stands for
// DefaultConfig.
func (c Config) withDefaults() Config {
	if c.FixedE == 0 {
		return DefaultConfig()
	}
	return c
}

// Validate reports a config the agent cannot run, checking the values
// New will actually use.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Hidden <= 0:
		return fmt.Errorf("abs: Hidden must be positive, got %d", c.Hidden)
	case !(c.LR > 0):
		return fmt.Errorf("abs: LR must be positive, got %g", c.LR)
	case c.BatchSize <= 0:
		return fmt.Errorf("abs: BatchSize must be positive, got %d", c.BatchSize)
	case c.ReplayCap < c.BatchSize:
		return fmt.Errorf("abs: ReplayCap %d cannot hold a BatchSize %d minibatch", c.ReplayCap, c.BatchSize)
	case c.TargetSync <= 0:
		return fmt.Errorf("abs: TargetSync must be positive, got %d", c.TargetSync)
	}
	return nil
}

const stateDim = 5

type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
}

// Controller is the ABS policy; it implements fl.Controller.
type Controller struct {
	cfg     Config
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

// New builds an ABS controller. It panics on a config Validate rejects.
func New(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	bValues := fl.BValues()
	q := newMLP(stateDim, cfg.Hidden, len(bValues), cfg.LR, rng.Split())
	n := cfg.BatchSize
	return &Controller{
		cfg:        cfg,
		rng:        rng,
		bValues:    bValues,
		qNet:       q,
		target:     append([]float64(nil), q.w...),
		xs:         make([]float64, n*stateDim),
		nexts:      make([]float64, n*stateDim),
		targets:    make([]float64, n),
		dy:         make([]float64, n*len(bValues)),
		taken:      make([]int, n),
		energyNorm: stats.NewEMA(0.2),
		lastAction: -1,
		epsilon:    cfg.Epsilon,
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
	lp := fl.LocalParams{B: c.bValues[action], E: c.cfg.FixedE}
	return fl.Plan{K: c.cfg.FixedK, Local: func(*device.Device, *fl.DeviceState) fl.LocalParams {
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
	c.epsilon = c.epsilon * c.cfg.EpsilonDecay
	if c.epsilon < c.cfg.EpsilonMin {
		c.epsilon = c.cfg.EpsilonMin
	}
}

func (c *Controller) push(t transition) {
	if len(c.replay) >= c.cfg.ReplayCap {
		copy(c.replay, c.replay[1:])
		c.replay = c.replay[:len(c.replay)-1]
	}
	c.replay = append(c.replay, t)
}

// train runs one minibatch DQN update.
func (c *Controller) train() {
	if len(c.replay) < c.cfg.BatchSize {
		return
	}
	n := c.cfg.BatchSize
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
		c.targets[i] += c.cfg.Gamma * maxNext
	}
	pred := c.qNet.forward(c.qNet.w, c.xs, n)
	tdGrad(c.dy, pred, c.taken, c.targets, actions)
	c.qNet.backward(c.xs, c.dy, n)
	c.qNet.adamStep()

	c.updates++
	if c.updates%c.cfg.TargetSync == 0 {
		copy(c.target, c.qNet.w)
	}
}
