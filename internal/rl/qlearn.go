// Package rl is the tabular reinforcement-learning substrate of
// FedGPO: a Q-table with epsilon-greedy action selection and the
// Q-learning update of paper Algorithm 2,
//
//	Q(S,A) ← Q(S,A) + γ[R + µ·max_A' Q(S',A') − Q(S,A)]
//
// where γ is the learning rate and µ the discount factor (the paper's
// naming; note it swaps the conventional α/γ letters). The paper uses
// lookup tables for their sub-microsecond decision latency (§3.3,
// §5.4). States and actions are both dense indices: a Space interns
// each pre-discretized state name once, and every table built on that
// space reaches a state's Q row by its index. Names only matter at the
// edges — a table's Snapshot and Restore, and its MemoryBytes
// footprint.
package rl

import (
	"fedgpo/internal/stats"
)

// Space interns state names as dense indices, in first-seen order.
// Tables built on one space address their rows by the same indices,
// so a caller resolves a state once and reuses the index across
// tables. It is not safe for concurrent use.
type Space struct {
	index map[string]int
	names []string
}

// NewSpace returns an empty state space.
func NewSpace() *Space { return &Space{index: make(map[string]int)} }

// Index returns name's index, interning the name on first sight.
func (s *Space) Index(name string) int {
	i, ok := s.index[name]
	if !ok {
		i = len(s.names)
		s.index[name] = i
		s.names = append(s.names, name)
	}
	return i
}

// Name returns the name interned as index i.
func (s *Space) Name(i int) string { return s.names[i] }

// Config holds the Q-learning hyperparameters. The paper selects
// γ=0.9, µ=0.1, ϵ=0.1 by sensitivity analysis (§4.1, footnote 3).
type Config struct {
	// LearningRate is γ in Algorithm 2.
	LearningRate float64
	// Discount is µ in Algorithm 2.
	Discount float64
	// Epsilon is the exploration probability of the epsilon-greedy
	// policy.
	Epsilon float64
	// InitLo/InitHi bound the random initialization of Q values
	// ("Initialize Q(S,A) as random values").
	InitLo, InitHi float64
}

// PaperConfig returns the hyperparameters the paper settles on
// (γ=0.9, µ=0.1, ϵ=0.1). The initialization range is optimistic —
// above the best achievable reward — so the greedy policy sweeps every
// untried action once before settling; with the paper's plain random
// init the first positive-reward action becomes sticky and the 30-way
// (B, E) action set is never properly explored within a training run.
func PaperConfig() Config {
	return Config{LearningRate: 0.9, Discount: 0.1, Epsilon: 0.1, InitLo: 110, InitHi: 120}
}

// QTable is a tabular action-value function over the states of a
// Space and a fixed, dense action set. It is not safe for concurrent
// use.
type QTable struct {
	cfg     Config
	actions int
	rng     *stats.RNG
	space   *Space
	// rows holds each materialized state's Q row by state index; a nil
	// row is a state the table has not seen. states counts the rows.
	rows   [][]float64
	states int
	// mask, when set, restricts both greedy selection and exploration
	// to allowed actions (see SetMask).
	mask []bool
	// deltaEMA tracks the magnitude of recent updates; it is the
	// convergence signal ("the largest Q(S,A) value is converged").
	deltaEMA *stats.EMA
	updates  int
}

// NewQTable builds a table with the given number of actions over the
// states of space. rng drives both random initialization and
// exploration. It panics if actions <= 0.
func NewQTable(actions int, cfg Config, rng *stats.RNG, space *Space) *QTable {
	if actions <= 0 {
		panic("rl: need at least one action")
	}
	if cfg.LearningRate <= 0 || cfg.LearningRate > 1 {
		panic("rl: learning rate must be in (0,1]")
	}
	if cfg.Discount < 0 || cfg.Discount >= 1 {
		panic("rl: discount must be in [0,1)")
	}
	if cfg.Epsilon < 0 || cfg.Epsilon > 1 {
		panic("rl: epsilon must be in [0,1]")
	}
	return &QTable{
		cfg:      cfg,
		actions:  actions,
		rng:      rng,
		space:    space,
		deltaEMA: stats.NewEMA(0.1),
	}
}

// Values returns the Q-row for state index s of the table's space,
// lazily initializing an unseen state with random values in [InitLo,
// InitHi). The returned slice is the live row; callers must not modify
// it.
func (t *QTable) Values(s int) []float64 {
	if s < len(t.rows) && t.rows[s] != nil {
		return t.rows[s]
	}
	row := make([]float64, t.actions)
	span := t.cfg.InitHi - t.cfg.InitLo
	for i := range row {
		row[i] = t.cfg.InitLo + span*t.rng.Float64()
	}
	if s >= len(t.rows) {
		t.rows = append(t.rows, make([][]float64, s+1-len(t.rows))...)
	}
	t.rows[s] = row
	t.states++
	return row
}

// SetMask restricts action selection to the allowed set: masked-out
// actions are never chosen greedily nor explored (they can still be
// updated if forced externally). FedGPO uses this to prune per-category
// parameter combinations whose predicted local training time cannot
// meet any reasonable round budget — Table 2's discrete values are
// themselves "a feasible range for resource-constrained edge devices",
// and the profile-informed mask extends that feasibility screen per
// device category. SetMask panics if the mask length mismatches the
// action set or allows nothing.
func (t *QTable) SetMask(allowed []bool) {
	if len(allowed) != t.actions {
		panic("rl: mask length must equal action count")
	}
	any := false
	for _, a := range allowed {
		if a {
			any = true
			break
		}
	}
	if !any {
		panic("rl: mask must allow at least one action")
	}
	t.mask = append([]bool(nil), allowed...)
}

// allowed reports whether an action is selectable.
func (t *QTable) allowed(a int) bool {
	return t.mask == nil || t.mask[a]
}

// best returns the greedy action in a state's row, honoring the mask.
func (t *QTable) best(row []float64) int {
	best := -1
	for a, v := range row {
		if !t.allowed(a) {
			continue
		}
		if best == -1 || v > row[best] {
			best = a
		}
	}
	return best
}

// Select picks an action epsilon-greedily: with probability ϵ a uniform
// random allowed action (exploration), otherwise the greedy one
// (exploitation).
func (t *QTable) Select(s int) int {
	if t.rng.Bernoulli(t.cfg.Epsilon) {
		if t.mask == nil {
			return t.rng.Intn(t.actions)
		}
		for {
			a := t.rng.Intn(t.actions)
			if t.mask[a] {
				return a
			}
		}
	}
	return t.best(t.Values(s))
}

// SelectOf picks epsilon-greedily within the intersection of the table
// mask and the supplied allowed set (falling back to the table mask if
// the intersection is empty). FedGPO uses this with its per-observation
// feasibility set: actions whose predicted time under the *currently
// observed* interference would straggle the round are excluded from
// both exploitation and exploration.
//
// It draws from CandidatesOf's set in place — counting it, then
// walking to the drawn or greedy member — so a state the table has
// already seen selects without allocating; for a seen state the count
// and the greedy pick share one pass. Its draws are Bernoulli, then,
// when exploring, Intn over the set's size; an unseen state's row
// materializes only when the pick is greedy.
func (t *QTable) SelectOf(s int, allowed []bool) int {
	allowed = allowed[:min(len(allowed), t.actions)]
	var row []float64
	if s < len(t.rows) {
		row = t.rows[s]
	}
	n, best := 0, -1
	for a := range allowed {
		if t.candidate(a, allowed) {
			n++
			if row != nil && (best == -1 || row[a] > row[best]) {
				best = a
			}
		}
	}
	if n == 0 {
		return t.Select(s)
	}
	if t.rng.Bernoulli(t.cfg.Epsilon) {
		i := t.rng.Intn(n)
		for a := range allowed {
			if t.candidate(a, allowed) {
				if i == 0 {
					return a
				}
				i--
			}
		}
	}
	if row == nil {
		row = t.Values(s)
		for a := range allowed {
			if t.candidate(a, allowed) && (best == -1 || row[a] > row[best]) {
				best = a
			}
		}
	}
	return best
}

// candidate reports whether action a is in SelectOf's set.
func (t *QTable) candidate(a int, allowed []bool) bool {
	return t.allowed(a) && a < len(allowed) && allowed[a]
}

// CandidatesOf returns the action set SelectOf draws from: the
// intersection of the table mask and the supplied per-call allowed
// set, in action order. It consumes no randomness and mutates nothing,
// so callers (e.g. decision tracing) can inspect the masked action set
// without perturbing the selection stream.
func (t *QTable) CandidatesOf(allowed []bool) []int {
	candidates := make([]int, 0, t.actions)
	for a := 0; a < t.actions; a++ {
		if t.candidate(a, allowed) {
			candidates = append(candidates, a)
		}
	}
	return candidates
}

// AllowedActions returns the actions the table mask admits, in action
// order (every action for an unmasked table).
func (t *QTable) AllowedActions() []int {
	actions := make([]int, 0, t.actions)
	for a := 0; a < t.actions; a++ {
		if t.allowed(a) {
			actions = append(actions, a)
		}
	}
	return actions
}

// Update applies the Algorithm 2 rule for a transition
// (s, action, reward, next), state indices of the table's space, and
// returns the applied Q-delta (learning-rate-scaled TD error). It
// reaches each of the two rows once; an unseen state materializes s
// before next.
func (t *QTable) Update(s, action int, reward float64, next int) float64 {
	if action < 0 || action >= t.actions {
		panic("rl: action out of range")
	}
	row := t.Values(s)
	nextRow := t.Values(next)
	target := reward + t.cfg.Discount*nextRow[t.best(nextRow)]
	delta := t.cfg.LearningRate * (target - row[action])
	row[action] += delta
	t.deltaEMA.Add(abs(delta))
	t.updates++
	return delta
}

// Updates returns the number of Update calls so far.
func (t *QTable) Updates() int { return t.updates }

// Converged reports whether recent updates have settled below the
// threshold. It returns false until a minimum number of updates has
// accumulated, so an untouched table never reads as converged.
func (t *QTable) Converged(threshold float64, minUpdates int) bool {
	return t.updates >= minUpdates && t.deltaEMA.Value() < threshold
}

// States returns the number of distinct states materialized so far.
func (t *QTable) States() int { return t.states }

// MemoryBytes estimates the table's resident size: 8 bytes per Q value
// plus state-name storage — the §5.4 footprint figure.
func (t *QTable) MemoryBytes() int {
	total := 0
	for s, row := range t.rows {
		if row != nil {
			total += len(t.space.Name(s)) + t.actions*8
		}
	}
	return total
}

// SetEpsilon changes the exploration rate; FedGPO drops to pure
// exploitation once the learning phase completes (§3.3).
func (t *QTable) SetEpsilon(eps float64) {
	if eps < 0 || eps > 1 {
		panic("rl: epsilon must be in [0,1]")
	}
	t.cfg.Epsilon = eps
}

// Epsilon returns the current exploration rate.
func (t *QTable) Epsilon() float64 { return t.cfg.Epsilon }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TableSnapshot is the serializable learned state of a QTable: the
// materialized Q rows under their state names, plus everything that shapes future selection and
// convergence tracking. It deliberately excludes the RNG — snapshots
// are restored into a fresh deterministic stream (see Restore), which
// only matters for lazily initializing states the table has not seen.
type TableSnapshot struct {
	Q         map[string][]float64
	Mask      []bool
	Epsilon   float64
	Updates   int
	Delta     float64
	DeltaInit bool
}

// Snapshot captures the table's learned state. The returned rows are
// deep copies; mutating the table afterwards does not affect them.
func (t *QTable) Snapshot() TableSnapshot {
	q := make(map[string][]float64, t.states)
	for s, row := range t.rows {
		if row != nil {
			q[t.space.Name(s)] = append([]float64(nil), row...)
		}
	}
	delta, init := t.deltaEMA.State()
	return TableSnapshot{
		Q:         q,
		Mask:      append([]bool(nil), t.mask...),
		Epsilon:   t.cfg.Epsilon,
		Updates:   t.updates,
		Delta:     delta,
		DeltaInit: init,
	}
}

// Restore builds a table over space from a snapshot, interning the
// snapshot's state names. cfg supplies the learning
// hyperparameters (the snapshot's epsilon overrides cfg's — a frozen
// table comes back frozen); rng drives lazy initialization of states
// the snapshot has not materialized, so restoration from an identical
// snapshot with an identically seeded rng behaves identically.
func Restore(actions int, cfg Config, rng *stats.RNG, space *Space, snap TableSnapshot) *QTable {
	cfg.Epsilon = snap.Epsilon
	t := NewQTable(actions, cfg, rng, space)
	top := -1
	for name := range snap.Q {
		top = max(top, t.space.Index(name))
	}
	t.rows = make([][]float64, top+1)
	for name, row := range snap.Q {
		t.rows[t.space.Index(name)] = append([]float64(nil), row...)
	}
	t.states = len(snap.Q)
	if len(snap.Mask) > 0 {
		t.SetMask(snap.Mask)
	}
	t.updates = snap.Updates
	t.deltaEMA.Restore(snap.Delta, snap.DeltaInit)
	return t
}
