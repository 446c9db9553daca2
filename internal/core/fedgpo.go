package core

import (
	"fmt"
	"time"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/rl"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// Config parameterizes a FedGPO controller.
type Config struct {
	// RL holds the Q-learning hyperparameters (paper: γ=0.9, µ=0.1,
	// ϵ=0.1).
	RL rl.Config
	// Reward weights Eq. 1's α and β.
	Reward RewardConfig
	// PerDeviceTables switches from shared per-category Q-tables to
	// one table per device — the paper's footnote-2 privacy variant
	// (better prediction accuracy, slower convergence).
	PerDeviceTables bool
	// FreezeThreshold, when positive, drops exploration to zero once
	// every table's smoothed update magnitude falls below it —
	// "when the learning phase is completed ... FedGPO uses the shared
	// Q-tables to select A" (§3.3). Zero disables the delta criterion.
	FreezeThreshold float64
	// FreezeMinUpdates guards the freeze against firing before the
	// tables have seen meaningful traffic.
	FreezeMinUpdates int
	// FreezeAfterRounds unconditionally ends the learning phase after
	// this many rounds, matching the paper's observation that the
	// reward converges after 30–40 aggregation rounds (§5.4). Zero
	// disables the round criterion.
	FreezeAfterRounds int
	// Seed drives exploration and table initialization.
	Seed int64
}

// DefaultConfig returns this reproduction's operating point. It
// follows the paper except for the Q learning rate: the paper's
// sensitivity analysis selected γ=0.9 on its testbed, while the same
// analysis on this simulator (see the ablation bench) selects a lower
// γ — the per-round reward here carries more cross-category noise (all
// categories share the global accuracy-improvement term), so Q values
// must average several samples to rank actions reliably.
func DefaultConfig() Config {
	rlCfg := rl.PaperConfig()
	rlCfg.LearningRate = 0.25
	return Config{
		RL:                rlCfg,
		Reward:            DefaultRewardConfig(),
		FreezeThreshold:   0, // delta criterion off by default (noisy rewards)
		FreezeMinUpdates:  200,
		FreezeAfterRounds: 40, // paper §5.4: reward converges in 30–40 rounds
		Seed:              1,
	}
}

// choice records an action taken for one device in the current round.
type choice struct {
	tableKey string
	state    string
	action   int
}

// pending is a transition awaiting its next-round state S'.
type pending struct {
	tableKey string
	state    string
	action   int
	reward   float64
}

// OverheadBreakdown mirrors the paper's §5.4 cost accounting for one
// run: cumulative wall time in each controller phase.
type OverheadBreakdown struct {
	IdentifyStates time.Duration
	ChooseParams   time.Duration
	CalcReward     time.Duration
	UpdateTables   time.Duration
	Rounds         int
}

// Controller is the FedGPO policy. It implements fl.Controller.
// Not safe for concurrent use; create one per run.
type Controller struct {
	cfg Config
	rng *stats.RNG

	localActions []fl.LocalParams // Table 2 (B, E) grid
	kActions     []int            // Table 2 K values

	localTables map[string]*rl.QTable // per category (or per device)
	kTable      *rl.QTable

	globalNorm *EnergyNormalizer
	kLocalNorm *EnergyNormalizer
	localNorm  map[device.Category]*EnergyNormalizer

	roundChoices map[int]choice // deviceID -> this round's action
	pendingLocal []pending
	pendingK     pending
	hasPendingK  bool
	dynMasks     map[dynMaskKey][]bool
	// deadline is the server round deadline observed from the
	// deployment; the feasibility envelope is capped below it. A
	// change (e.g. warm-up on a different scenario) invalidates masks.
	deadline      float64
	tableProfiles map[string]device.Profile

	rewardHistory []float64
	frozen        bool
	frozenRound   int
	overhead      OverheadBreakdown

	// tracing/trace hold the opt-in per-round decision record (see
	// trace.go). Recording never perturbs decisions or randomness.
	tracing bool
	trace   []RoundTrace

	// Per-round scratch the controller owns and reuses, so a learned
	// controller's round allocates only what it newly learns.
	// roundAction memoizes this round's action per (table, state);
	// succ is flushPending's successor state per table; deviceKeys,
	// globalKeys and devTableKeys intern state and table keys.
	roundAction  map[tableState]int
	succ         map[string]string
	roundRewards []float64
	deviceKeys   map[deviceKey]string
	globalKeys   map[globalKey]string
	devTableKeys []string
	// planWorkload is the workload of the round being planned; local
	// reads it, so Plan hands out one method value instead of building
	// a closure each round.
	planWorkload workload.Workload
	localFn      func(device.Device, fl.DeviceState) fl.LocalParams
}

// tableState names one (Q-table, state) pair.
type tableState struct{ table, state string }

var _ fl.Controller = (*Controller)(nil)

// New returns a FedGPO controller with the given configuration.
func New(cfg Config) *Controller {
	if cfg.RL.LearningRate == 0 { // zero-value convenience
		cfg = DefaultConfig()
	}
	c := &Controller{
		cfg:           cfg,
		rng:           stats.NewRNG(cfg.Seed),
		localActions:  fl.AllLocalParams(),
		kActions:      fl.KValues(),
		localTables:   make(map[string]*rl.QTable),
		localNorm:     make(map[device.Category]*EnergyNormalizer),
		globalNorm:    NewEnergyNormalizer(),
		roundChoices:  make(map[int]choice),
		kLocalNorm:    NewEnergyNormalizer(),
		dynMasks:      make(map[dynMaskKey][]bool),
		tableProfiles: make(map[string]device.Profile),
		roundAction:   make(map[tableState]int),
		succ:          make(map[string]string),
		deviceKeys:    make(map[deviceKey]string),
		globalKeys:    make(map[globalKey]string),
	}
	c.localFn = c.local
	return c
}

// Name identifies the controller in reports.
func (c *Controller) Name() string {
	if c.cfg.PerDeviceTables {
		return "FedGPO(per-device)"
	}
	return "FedGPO"
}

// tableKeyFor returns the Q-table identity a device's actions are
// learned under: its performance category (shared tables, the default)
// or its unique ID (footnote-2 variant).
func (c *Controller) tableKeyFor(d device.Device) string {
	if !c.cfg.PerDeviceTables {
		return d.Profile.Category.String()
	}
	if d.ID >= len(c.devTableKeys) {
		c.devTableKeys = append(c.devTableKeys, make([]string, d.ID+1-len(c.devTableKeys))...)
	}
	if c.devTableKeys[d.ID] == "" {
		c.devTableKeys[d.ID] = fmt.Sprintf("dev%d", d.ID)
	}
	return c.devTableKeys[d.ID]
}

// deviceStateKey returns a device's Q-table state key in the round
// being planned, interned: the Table 1 state space is small, so a
// learned controller builds each key string once.
func (c *Controller) deviceStateKey(st fl.DeviceState) string {
	k := deviceStateBytes(archBands(c.planWorkload), st)
	s, ok := c.deviceKeys[k]
	if !ok {
		s = string(k[:])
		c.deviceKeys[k] = s
	}
	return s
}

// globalStateKey returns the K table's state key in the round being
// planned, interned like deviceStateKey.
func (c *Controller) globalStateKey(states []fl.DeviceState) string {
	k := globalStateBytes(archBands(c.planWorkload), states)
	s, ok := c.globalKeys[k]
	if !ok {
		s = string(k[:])
		c.globalKeys[k] = s
	}
	return s
}

// table returns the local-action Q-table for a key, if it exists.
func (c *Controller) table(key string) *rl.QTable { return c.localTables[key] }

// tableFor lazily creates the Q-table for a device, applying the
// profile-informed feasibility mask: actions whose predicted clean
// compute time exceeds feasibleBudgetFactor × the mid-category
// reference (B=8, E=10) can never meet a sane round deadline on this
// hardware and are pruned from selection. Without the mask, optimistic
// exploration forces every category — including low-end devices — to
// trial (B=1, E=20)-class monsters that stall entire rounds.
func (c *Controller) tableFor(d device.Device, w workload.Workload) *rl.QTable {
	key := c.tableKeyFor(d)
	if t, ok := c.localTables[key]; ok {
		return t
	}
	t := rl.NewQTable(len(c.localActions), c.cfg.RL, c.rng.Split())
	t.SetMask(c.feasibleActions(d.Profile, w, device.Interference{}))
	c.localTables[key] = t
	c.tableProfiles[key] = d.Profile
	return t
}

// observeDeadline records the deployment's round deadline; a change
// invalidates every feasibility mask (warm-up and evaluation can run
// under different deadlines).
func (c *Controller) observeDeadline(deadlineSec float64, w workload.Workload) {
	if deadlineSec == c.deadline {
		return
	}
	c.deadline = deadlineSec
	c.dynMasks = make(map[dynMaskKey][]bool)
	for key, t := range c.localTables {
		t.SetMask(c.feasibleActions(c.tableProfiles[key], w, device.Interference{}))
	}
}

// feasibleBudgetFactor bounds per-category action pruning (see
// tableFor).
const feasibleBudgetFactor = 1.5

// referenceE returns the epoch count anchoring a workload's
// feasibility envelope. Architectures with recurrent layers train with
// more local iterations at smaller batches (the paper's §2.1
// characterization of LSTM-Shakespeare), so their envelope budgets for
// a higher epoch count. This is FedGPO conditioning on the same
// NN-architecture state (S_RC) its Q-tables key on.
func referenceE(w workload.Workload) int {
	if w.RCLayers > 0 {
		return 20
	}
	return 10
}

// feasibleActions computes the action mask for a profile under the
// given (possibly zero) interference: an action is feasible if its
// predicted time stays within feasibleBudgetFactor × the mid-category
// reference running (B=8, E=referenceE) clean — the straggler-
// equalization envelope. If the screen would reject everything
// (crushing interference), it falls back to the single fastest action.
func (c *Controller) feasibleActions(p device.Profile, w workload.Workload, intf device.Interference) []bool {
	ref := device.Profiles()[device.Mid]
	budget := feasibleBudgetFactor * device.ComputeSeconds(ref, w.Shape, 8, referenceE(w),
		w.SamplesPerDevice, device.Interference{})
	// A server round deadline caps the envelope: an action predicted to
	// run past it would only be dropped.
	if c.deadline > 0 && budget > 0.8*c.deadline {
		budget = 0.8 * c.deadline
	}
	// The envelope is two-sided: actions predicted to blow the budget
	// would straggle the round; actions predicted to finish far before
	// it would leave the device waiting at near-busy power for the
	// stragglers — both waste energy. The floor is soft (devices whose
	// fastest options are all quick keep their fastest few).
	floor := feasibleFloorFraction * budget
	allowed := make([]bool, len(c.localActions))
	any := false
	fastest, fastestT := 0, -1.0
	for i, lp := range c.localActions {
		t := device.ComputeSeconds(p, w.Shape, lp.B, lp.E, w.SamplesPerDevice, intf)
		fits := device.FitsInMemory(p, w.Shape, lp.B)
		allowed[i] = t <= budget && t >= floor && fits
		any = any || allowed[i]
		if fits && (fastestT < 0 || t < fastestT) {
			fastest, fastestT = i, t
		}
	}
	if !any {
		// Nothing inside the band: allow everything under the budget,
		// or the single fastest action if even that fails.
		for i, lp := range c.localActions {
			t := device.ComputeSeconds(p, w.Shape, lp.B, lp.E, w.SamplesPerDevice, intf)
			allowed[i] = t <= budget && device.FitsInMemory(p, w.Shape, lp.B)
			any = any || allowed[i]
		}
		if !any {
			allowed[fastest] = true
		}
	}
	return allowed
}

// feasibleFloorFraction is the lower edge of the equalization envelope
// as a fraction of the budget.
const feasibleFloorFraction = 0.3

// dynMaskKey caches per-observation feasibility sets: the mask depends
// only on the device category and the discretized interference bands,
// so the expensive compute-time predictions run once per combination.
type dynMaskKey struct {
	cat      device.Category
	cpu, mem byte
}

// dynFeasible returns (computing and caching) the feasibility set for a
// device under its currently observed interference. This is FedGPO
// using the state it already identifies (§3.1: "the usage of resources"
// per device) together with the known device profile to exclude
// parameter choices that would straggle the round — the Q-table then
// optimizes energy/accuracy within the feasible set.
func (c *Controller) dynFeasible(d device.Device, w workload.Workload, st fl.DeviceState) []bool {
	key := dynMaskKey{
		cat: d.Profile.Category,
		cpu: UsageBand(st.Interference.CPUUsage),
		mem: UsageBand(st.Interference.MemUsage),
	}
	if m, ok := c.dynMasks[key]; ok {
		return m
	}
	// Predict with the band midpoint rather than the raw sample so the
	// cache stays small and decisions depend only on observable bands.
	m := c.feasibleActions(d.Profile, w, device.Interference{
		CPUUsage: bandMidpoint(key.cpu),
		MemUsage: bandMidpoint(key.mem),
	})
	c.dynMasks[key] = m
	return m
}

// bandMidpoint maps a Table 1 usage band back to a representative
// fraction.
func bandMidpoint(band byte) float64 {
	switch band {
	case 'n':
		return 0
	case 's':
		return 0.12
	case 'm':
		return 0.50
	default: // 'l'
		return 0.85
	}
}

// Plan implements steps 1–2 of the paper's design loop: identify the
// global and local execution states, then select actions from the
// Q-tables.
func (c *Controller) Plan(obs fl.Observation) fl.Plan {
	c.observeDeadline(obs.DeadlineSec, obs.Workload)
	c.planWorkload = obs.Workload

	// The global state is both last round's K successor S' and this
	// round's K state.
	t0 := time.Now()
	globalState := c.globalStateKey(obs.States)
	c.overhead.IdentifyStates += time.Since(t0)

	// Complete last round's Q-updates now that S' is observable
	// (Algorithm 2's "Observe new state S'").
	t0 = time.Now()
	c.flushPending(obs, globalState)
	c.overhead.UpdateTables += time.Since(t0)

	t0 = time.Now()
	if c.kTable == nil {
		c.kTable = rl.NewQTable(len(c.kActions), c.cfg.RL, c.rng.Split())
	}
	kAction := c.kTable.Select(globalState)
	c.pendingK = pending{state: globalState, action: kAction}
	c.hasPendingK = true
	clear(c.roundChoices)
	// Within a round, all devices that share a Q-table and a state take
	// the same action: the shared table makes one (possibly exploring)
	// decision per (table, state) pair. This keeps the category's
	// behaviour coherent, so the round-level reward actually reflects
	// the choice — per-device independent exploration would dilute the
	// credit over K participants.
	clear(c.roundAction)
	c.overhead.ChooseParams += time.Since(t0)
	c.overhead.Rounds++
	if c.tracing {
		c.trace = append(c.trace, RoundTrace{
			Round:       obs.Round,
			GlobalState: globalState,
			K: KDecision{
				State:   globalState,
				Action:  kAction,
				K:       c.kActions[kAction],
				Allowed: c.kTable.AllowedActions(),
			},
		})
	}
	return fl.Plan{K: c.kActions[kAction], Local: c.localFn}
}

// local is the Plan's per-participant assignment: the (B, E) the
// device's Q-table picks for its observed state this round.
func (c *Controller) local(d device.Device, st fl.DeviceState) fl.LocalParams {
	ts := time.Now()
	stateKey := c.deviceStateKey(st)
	c.overhead.IdentifyStates += time.Since(ts)

	ts = time.Now()
	key := c.tableKeyFor(d)
	memo := tableState{key, stateKey}
	action, ok := c.roundAction[memo]
	if !ok {
		tab := c.tableFor(d, c.planWorkload)
		dyn := c.dynFeasible(d, c.planWorkload, st)
		action = tab.SelectOf(stateKey, dyn)
		c.roundAction[memo] = action
		if cur := c.traceCurrent(); cur != nil {
			lp := c.localActions[action]
			cur.Local = append(cur.Local, LocalDecision{
				Table: key, State: stateKey, Action: action,
				B: lp.B, E: lp.E, Allowed: tab.CandidatesOf(dyn),
			})
		}
	}
	c.roundChoices[d.ID] = choice{tableKey: key, state: stateKey, action: action}
	c.overhead.ChooseParams += time.Since(ts)
	return c.localActions[action]
}

// Observe implements steps 4–5: measure the round, compute Eq. 1
// rewards, and queue Q-table updates (completed next round when S' is
// seen).
func (c *Controller) Observe(res fl.RoundResult) {
	t0 := time.Now()
	accPct := res.Accuracy * 100
	prevPct := res.PrevAccuracy * 100
	eGlobal := c.globalNorm.Normalize(res.EnergyGlobalJ)

	roundRewards := c.roundRewards[:0]
	for _, p := range res.Participants {
		ch, ok := c.roundChoices[p.DeviceID]
		if !ok {
			continue
		}
		norm, okN := c.localNorm[p.Category]
		if !okN {
			norm = NewEnergyNormalizer()
			c.localNorm[p.Category] = norm
		}
		eLocal := norm.Normalize(p.EnergyJ)
		r := Reward(c.cfg.Reward, accPct, prevPct, eGlobal, eLocal)
		if p.Dropped {
			// A dropped update contributed nothing: for this device's
			// action the round produced no accuracy improvement, so it
			// earns Eq. 1's no-improvement punishment. This is the
			// signal that teaches interfered/slow states to choose
			// lighter parameters that fit the round deadline.
			r = accPct - 100
		}
		roundRewards = append(roundRewards, r)
		c.pendingLocal = append(c.pendingLocal, pending{
			tableKey: ch.tableKey, state: ch.state, action: ch.action, reward: r,
		})
	}
	// The K agent's reward uses the mean participant energy as its
	// local term (K is a fleet-level action).
	meanLocal := 0.0
	if len(res.Participants) > 0 {
		var s float64
		for _, p := range res.Participants {
			s += p.EnergyJ
		}
		meanLocal = s / float64(len(res.Participants))
	}
	if c.hasPendingK {
		kNorm := c.kLocalNorm.Normalize(meanLocal)
		c.pendingK.reward = Reward(c.cfg.Reward, accPct, prevPct, eGlobal, kNorm)
	}
	c.roundRewards = roundRewards
	if len(roundRewards) > 0 {
		c.rewardHistory = append(c.rewardHistory, stats.Mean(roundRewards))
	} else {
		c.rewardHistory = append(c.rewardHistory, accPct-100)
	}
	if cur := c.traceCurrent(); cur != nil {
		cur.Reward = c.rewardHistory[len(c.rewardHistory)-1]
		if c.hasPendingK {
			cur.K.Reward = c.pendingK.reward
		}
	}
	c.overhead.CalcReward += time.Since(t0)

	c.maybeFreeze(res.Round)
}

// flushPending applies queued updates using this round's observation as
// the successor state S'; globalState is the K table's S'.
func (c *Controller) flushPending(obs fl.Observation, globalState string) {
	if len(c.pendingLocal) > 0 {
		// Successor state per table: the first fleet device under that
		// table key, observed in this round's environment. Only existing
		// tables take updates, so a key with no table yet is skipped and
		// the walk stops once every table has its successor.
		succ := c.succ
		clear(succ)
		for _, d := range obs.Fleet {
			if len(succ) == len(c.localTables) {
				break
			}
			key := c.tableKeyFor(d)
			if _, ok := succ[key]; ok || c.table(key) == nil {
				continue
			}
			succ[key] = c.deviceStateKey(obs.States[d.ID])
		}
		for _, p := range c.pendingLocal {
			next, ok := succ[p.tableKey]
			if !ok {
				next = p.state
			}
			if t := c.table(p.tableKey); t != nil {
				delta := t.Update(p.state, p.action, p.reward, next)
				// Updates grade the previous round's decisions: trace
				// them on the entry that recorded those decisions (the
				// current last entry — this round's is appended later in
				// Plan).
				if cur := c.traceCurrent(); cur != nil {
					cur.Updates = append(cur.Updates, QUpdate{
						Table: p.tableKey, State: p.state, Action: p.action,
						Reward: p.reward, Next: next, Delta: delta,
					})
				}
			}
		}
		c.pendingLocal = c.pendingLocal[:0]
	}
	if c.hasPendingK && c.kTable != nil {
		next := globalState
		delta := c.kTable.Update(c.pendingK.state, c.pendingK.action, c.pendingK.reward, next)
		if cur := c.traceCurrent(); cur != nil {
			cur.Updates = append(cur.Updates, QUpdate{
				Table: "K", State: c.pendingK.state, Action: c.pendingK.action,
				Reward: c.pendingK.reward, Next: next, Delta: delta,
			})
		}
		c.hasPendingK = false
	}
}

// maybeFreeze ends the learning phase once every table has settled
// (delta criterion) or the round budget for learning has elapsed
// (round criterion), whichever fires first.
func (c *Controller) maybeFreeze(round int) {
	if c.frozen {
		return
	}
	if len(c.localTables) == 0 || c.kTable == nil {
		return
	}
	byRounds := c.cfg.FreezeAfterRounds > 0 && round >= c.cfg.FreezeAfterRounds
	byDelta := false
	if c.cfg.FreezeThreshold > 0 {
		byDelta = c.kTable.Converged(c.cfg.FreezeThreshold, c.cfg.FreezeMinUpdates)
		for _, t := range c.localTables {
			if !t.Converged(c.cfg.FreezeThreshold, c.cfg.FreezeMinUpdates) {
				byDelta = false
				break
			}
		}
	}
	if !byRounds && !byDelta {
		return
	}
	for _, t := range c.localTables {
		t.SetEpsilon(0)
	}
	c.kTable.SetEpsilon(0)
	c.frozen = true
	c.frozenRound = round
}

// FinishLearning declares the learning phase complete: exploration
// drops to zero and the policy becomes purely greedy, as §3.3
// prescribes once "the largest Q(S,A) value is converged for each S".
// Q-table updates continue, so the policy still adapts to shifts in the
// environment. Call it after a warm-up run (see Pretrained).
func (c *Controller) FinishLearning() {
	for _, t := range c.localTables {
		t.SetEpsilon(0)
	}
	if c.kTable != nil {
		c.kTable.SetEpsilon(0)
	}
	c.frozen = true
	if c.frozenRound == 0 {
		c.frozenRound = c.overhead.Rounds
	}
}

// RewardHistory returns the mean participant reward per round — the
// §5.4 reward-convergence trace.
func (c *Controller) RewardHistory() []float64 {
	return append([]float64(nil), c.rewardHistory...)
}

// Frozen reports whether the learning phase has been declared complete,
// and at which round.
func (c *Controller) Frozen() (bool, int) { return c.frozen, c.frozenRound }

// MemoryBytes estimates the total Q-table footprint (§5.4 reports
// 0.4 MB for three device categories).
func (c *Controller) MemoryBytes() int {
	total := 0
	for _, t := range c.localTables {
		total += t.MemoryBytes()
	}
	if c.kTable != nil {
		total += c.kTable.MemoryBytes()
	}
	return total
}

// Overhead returns the per-phase wall-time accounting.
func (c *Controller) Overhead() OverheadBreakdown { return c.overhead }

// TableStats summarizes the learned tables for reports.
type TableStats struct {
	Tables      int
	States      int
	Updates     int
	MemoryBytes int
}

// Stats returns aggregate table statistics.
func (c *Controller) Stats() TableStats {
	s := TableStats{MemoryBytes: c.MemoryBytes()}
	for _, t := range c.localTables {
		s.Tables++
		s.States += t.States()
		s.Updates += t.Updates()
	}
	if c.kTable != nil {
		s.Tables++
		s.States += c.kTable.States()
		s.Updates += c.kTable.Updates()
	}
	return s
}
