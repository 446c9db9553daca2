package core

import (
	"fmt"
	"math"
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

// Validate reports a config a controller cannot run on: a Q-learning
// rate outside [0, 1], an inverted Q initialization range, a negative
// reward weight or freeze threshold, a negative freeze count, or a
// float that is NaN or infinite.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name      string
		v, lo, hi float64
	}{
		{"RL.LearningRate", c.RL.LearningRate, 0, 1},
		{"RL.Discount", c.RL.Discount, 0, 1},
		{"RL.Epsilon", c.RL.Epsilon, 0, 1},
		{"RL.InitHi", c.RL.InitHi, math.Inf(-1), math.Inf(1)},
		{"RL.InitLo", c.RL.InitLo, math.Inf(-1), c.RL.InitHi},
		{"Reward.Alpha", c.Reward.Alpha, 0, math.Inf(1)},
		{"Reward.Beta", c.Reward.Beta, 0, math.Inf(1)},
		{"FreezeThreshold", c.FreezeThreshold, 0, math.Inf(1)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("core: config %s is %v, want a finite value in [%g, %g]", f.name, f.v, f.lo, f.hi)
		}
	}
	if c.FreezeMinUpdates < 0 || c.FreezeAfterRounds < 0 {
		return fmt.Errorf("core: config freeze counts must be non-negative, got FreezeMinUpdates %d, FreezeAfterRounds %d",
			c.FreezeMinUpdates, c.FreezeAfterRounds)
	}
	return nil
}

// localTable is one (B, E) Q-table: a device category's under shared
// tables, one device's under per-device tables.
type localTable struct {
	// key names the table in snapshots and decision traces: the
	// category label, or "dev<ID>".
	key string
	// index is the table's slot in Controller.byIndex (the category, or
	// the device ID), or -1 for a restored table no device maps to.
	index int
	q     *rl.QTable
	// memo holds, by state index, the action the table chose in that
	// state during the round memo[s].round.
	memo []roundAction
}

// roundAction is an action taken in one round.
type roundAction struct{ round, action int32 }

// minMemo is the smallest memo a table allocates.
const minMemo = 8

// choice records the action a device took in round round.
type choice struct {
	round  int32
	state  int32
	action int32
	table  *localTable
}

// pending is a transition awaiting its next-round state S' (in the K
// table when table is nil).
type pending struct {
	table  *localTable
	state  int
	action int
	reward float64
}

// OverheadBreakdown mirrors the paper's §5.4 cost accounting for one
// run: cumulative wall time in each controller phase. The phases are
// timed on one round in overheadSample (the controller's rounds 1,
// 1+overheadSample, ...) and scaled to all Rounds, so each is an
// estimate of the whole run's time; Rounds is exact.
type OverheadBreakdown struct {
	IdentifyStates time.Duration
	ChooseParams   time.Duration
	CalcReward     time.Duration
	UpdateTables   time.Duration
	Rounds         int
}

// overheadSample is the §5.4 timers' sampling period: the controller
// reads the clock on one round in overheadSample only, because the
// reads (3 per participant) cost as much as the work they time.
const overheadSample = 16

// Controller is the FedGPO policy. It implements fl.Controller.
// Not safe for concurrent use; create one per run.
//
// A round's decision path works on indices: states are interned once
// per controller in two rl.Spaces (device states for the local tables,
// global states for the K table) and cached by band code, tables are
// reached by category or device ID, and the round's memos are slices.
// Names appear only in snapshots, decision traces and Stats.
type Controller struct {
	cfg Config
	rng *stats.RNG

	localActions []fl.LocalParams // Table 2 (B, E) grid
	kActions     []int            // Table 2 K values

	// localTables holds every local table by key, restored tables no
	// device maps to included; byIndex reaches a device's table by its
	// category (shared tables) or ID (per-device tables), filled as
	// devices first reach their table.
	localTables map[string]*localTable
	byIndex     []*localTable
	kTable      *rl.QTable

	globalNorm *EnergyNormalizer
	kLocalNorm *EnergyNormalizer
	localNorm  map[device.Category]*EnergyNormalizer

	// round counts Plan calls; roundChoices holds each fleet device's
	// choice by device ID, current when its round equals round.
	round        int32
	roundChoices []choice
	pendingLocal []pending
	pendingK     pending
	hasPendingK  bool
	// dynMasks caches per-observation feasibility sets (see
	// dynFeasible) by category and co-runner CPU and memory band.
	dynMasks [device.NumCategories * 4 * 4][]bool
	// deadline is the server round deadline observed from the
	// deployment; the feasibility envelope is capped below it. A
	// change (e.g. warm-up on a different scenario) invalidates masks.
	deadline      float64
	tableProfiles map[string]device.Profile

	rewardHistory []float64
	frozen        bool
	frozenRound   int
	// overhead sums the timed rounds' phases; overhead.Rounds counts
	// every round. timing is set for a round whose phases are timed,
	// and timedRounds counts those rounds.
	overhead    OverheadBreakdown
	timing      bool
	timedRounds int

	// tracing/trace hold the opt-in per-round decision record (see
	// trace.go). Recording never perturbs decisions or randomness.
	tracing bool
	trace   []RoundTrace

	// deviceStates and globalStates intern state keys; arch is the
	// architecture bands of the workload being planned, and deviceIdx
	// and globalIdx cache, per band code under arch, the state's index
	// plus one (0 = not yet interned).
	deviceStates *rl.Space
	globalStates *rl.Space
	arch         [3]byte
	deviceIdx    [deviceCodes]int32
	globalIdx    [globalCodes]int32

	// fleet is the fleet successor was built for; successor holds, by
	// table index, the ID of the first fleet device under that index
	// (-1 for none): the device whose state is a table's S'.
	fleet     []device.Device
	successor []int

	roundRewards []float64
	// epoch anchors clock.
	epoch time.Time
	// planWorkload is the workload of the round being planned; local
	// reads it, so Plan hands out one method value instead of building
	// a closure each round.
	planWorkload workload.Workload
	localFn      func(*device.Device, *fl.DeviceState) fl.LocalParams
}

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
		localTables:   make(map[string]*localTable),
		localNorm:     make(map[device.Category]*EnergyNormalizer),
		globalNorm:    NewEnergyNormalizer(),
		kLocalNorm:    NewEnergyNormalizer(),
		tableProfiles: make(map[string]device.Profile),
		deviceStates:  rl.NewSpace(),
		globalStates:  rl.NewSpace(),
		epoch:         time.Now(),
	}
	c.localFn = c.local
	return c
}

// clock reads the monotonic clock as the time since the controller was
// built: the §5.4 phase timers take one such read per phase boundary.
// On a round that is not timed it reads nothing and returns 0, so the
// phases add nothing.
func (c *Controller) clock() time.Duration {
	if !c.timing {
		return 0
	}
	return time.Since(c.epoch)
}

// Name identifies the controller in reports.
func (c *Controller) Name() string {
	if c.cfg.PerDeviceTables {
		return "FedGPO(per-device)"
	}
	return "FedGPO"
}

// tableIndex returns the slot of a device's table in byIndex: its
// performance category (shared tables, the default) or its unique ID
// (footnote-2 variant).
func (c *Controller) tableIndex(d *device.Device) int {
	if c.cfg.PerDeviceTables {
		return d.ID
	}
	return int(d.Profile.Category)
}

// tableKey names the table at slot i.
func (c *Controller) tableKey(i int) string {
	if c.cfg.PerDeviceTables {
		return fmt.Sprintf("dev%d", i)
	}
	return device.Category(i).String()
}

// setSlot makes t the table at slot i.
func (c *Controller) setSlot(t *localTable, i int) {
	if i >= len(c.byIndex) {
		c.byIndex = append(c.byIndex, make([]*localTable, i+1-len(c.byIndex))...)
	}
	c.byIndex[i] = t
	t.index = i
}

// planFor makes w the workload being planned. Its architecture bands
// lead every state key, so a new architecture empties the band-code
// caches.
func (c *Controller) planFor(w *workload.Workload) {
	c.planWorkload = *w
	if arch := archBands(w); arch != c.arch {
		c.arch = arch
		c.deviceIdx = [deviceCodes]int32{}
		c.globalIdx = [globalCodes]int32{}
	}
}

// deviceState returns a device's state index in the round being
// planned. The Table 1 state space is small, so a learned controller
// builds each key string once.
func (c *Controller) deviceState(st *fl.DeviceState) int {
	code := deviceCode(st)
	if i := c.deviceIdx[code]; i > 0 {
		return int(i - 1)
	}
	k := deviceStateBytes(c.arch, *st)
	i := c.deviceStates.Index(string(k[:]))
	c.deviceIdx[code] = int32(i + 1)
	return i
}

// globalState returns the K table's state index in the round being
// planned, cached like deviceState.
func (c *Controller) globalState(obs *fl.Observation) int {
	intf, bad, class := globalSignals(obs)
	code := globalCode(intf, bad, class)
	if i := c.globalIdx[code]; i > 0 {
		return int(i - 1)
	}
	k := globalStateBytes(c.arch, intf, bad, class)
	i := c.globalStates.Index(string(k[:]))
	c.globalIdx[code] = int32(i + 1)
	return i
}

// tableFor returns a device's local table. The first device to reach
// a slot finds a table restored from a snapshot by key, or creates the
// table with the profile-informed feasibility mask: actions whose
// predicted clean compute time exceeds feasibleBudgetFactor × the
// mid-category reference (B=8, E=10) can never meet a sane round
// deadline on this hardware and are pruned from selection. Without the
// mask, optimistic exploration forces every category — including
// low-end devices — to trial (B=1, E=20)-class monsters that stall
// entire rounds.
func (c *Controller) tableFor(d *device.Device, w *workload.Workload) *localTable {
	i := c.tableIndex(d)
	if i < len(c.byIndex) && c.byIndex[i] != nil {
		return c.byIndex[i]
	}
	key := c.tableKey(i)
	t := c.localTables[key]
	if t == nil {
		q := rl.NewQTable(len(c.localActions), c.cfg.RL, c.rng.Split(), c.deviceStates)
		q.SetMask(c.feasibleActions(d.Profile, *w, device.Interference{}))
		t = &localTable{key: key, q: q}
		c.localTables[key] = t
		c.tableProfiles[key] = d.Profile
	}
	c.setSlot(t, i)
	return t
}

// observeDeadline records the deployment's round deadline; a change
// invalidates every feasibility mask (warm-up and evaluation can run
// under different deadlines).
func (c *Controller) observeDeadline(deadlineSec float64, w *workload.Workload) {
	if deadlineSec == c.deadline {
		return
	}
	c.deadline = deadlineSec
	clear(c.dynMasks[:])
	for key, t := range c.localTables {
		t.q.SetMask(c.feasibleActions(c.tableProfiles[key], *w, device.Interference{}))
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
	budget := feasibleBudgetFactor * device.ComputeSeconds(&ref, w.Shape, 8, referenceE(w),
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
		t := device.ComputeSeconds(&p, w.Shape, lp.B, lp.E, w.SamplesPerDevice, intf)
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
			t := device.ComputeSeconds(&p, w.Shape, lp.B, lp.E, w.SamplesPerDevice, intf)
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

// dynFeasible returns (computing and caching) the feasibility set for a
// device under its currently observed interference. This is FedGPO
// using the state it already identifies (§3.1: "the usage of resources"
// per device) together with the known device profile to exclude
// parameter choices that would straggle the round — the Q-table then
// optimizes energy/accuracy within the feasible set. The mask depends
// only on the device category and the discretized interference bands,
// so the expensive compute-time predictions run once per combination.
func (c *Controller) dynFeasible(d *device.Device, w *workload.Workload, st *fl.DeviceState) []bool {
	cpu, mem := usageLevel(st.Interference.CPUUsage), usageLevel(st.Interference.MemUsage)
	m := &c.dynMasks[(int(d.Profile.Category)*4+cpu)*4+mem]
	if *m == nil {
		// Predict with the band midpoint rather than the raw sample so
		// decisions depend only on observable bands.
		*m = c.feasibleActions(d.Profile, *w, device.Interference{
			CPUUsage: bandMidpoint(usageBands[cpu]),
			MemUsage: bandMidpoint(usageBands[mem]),
		})
	}
	return *m
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
// Q-tables. On a timed round (see overheadSample) the §5.4 timers read
// the clock once per phase boundary.
func (c *Controller) Plan(obs fl.Observation) fl.Plan {
	c.timing = c.overhead.Rounds%overheadSample == 0
	if c.timing {
		c.timedRounds++
	}
	c.observeDeadline(obs.DeadlineSec, &obs.Workload)
	c.planFor(&obs.Workload)
	if len(c.roundChoices) < len(obs.Fleet) {
		c.roundChoices = make([]choice, len(obs.Fleet))
	}

	// The global state is both last round's K successor S' and this
	// round's K state.
	t0 := c.clock()
	globalState := c.globalState(&obs)
	t1 := c.clock()
	c.overhead.IdentifyStates += t1 - t0

	// Complete last round's Q-updates now that S' is observable
	// (Algorithm 2's "Observe new state S'").
	c.flushPending(&obs, globalState)
	t2 := c.clock()
	c.overhead.UpdateTables += t2 - t1

	if c.kTable == nil {
		c.kTable = rl.NewQTable(len(c.kActions), c.cfg.RL, c.rng.Split(), c.globalStates)
	}
	kAction := c.kTable.Select(globalState)
	c.pendingK = pending{state: globalState, action: kAction}
	c.hasPendingK = true
	// Within a round, all devices that share a Q-table and a state take
	// the same action: the shared table makes one (possibly exploring)
	// decision per (table, state) pair. This keeps the category's
	// behaviour coherent, so the round-level reward actually reflects
	// the choice — per-device independent exploration would dilute the
	// credit over K participants. Advancing the round retires every
	// memoized action and device choice of the last one.
	c.round++
	c.overhead.ChooseParams += c.clock() - t2
	c.overhead.Rounds++
	if c.tracing {
		name := c.globalStates.Name(globalState)
		c.trace = append(c.trace, RoundTrace{
			Round:       obs.Round,
			GlobalState: name,
			K: KDecision{
				State:   name,
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
func (c *Controller) local(d *device.Device, st *fl.DeviceState) fl.LocalParams {
	t0 := c.clock()
	state := c.deviceState(st)
	t1 := c.clock()
	c.overhead.IdentifyStates += t1 - t0

	tab := c.tableFor(d, &c.planWorkload)
	if state >= len(tab.memo) {
		// Grown in steps of at least minMemo, so a memo is never a tiny
		// allocation sharing a block with a long-lived state name.
		n := max(state+1, 2*len(tab.memo), minMemo)
		tab.memo = append(tab.memo, make([]roundAction, n-len(tab.memo))...)
	}
	memo := &tab.memo[state]
	if memo.round != c.round {
		dyn := c.dynFeasible(d, &c.planWorkload, st)
		action := tab.q.SelectOf(state, dyn)
		*memo = roundAction{round: c.round, action: int32(action)}
		if cur := c.traceCurrent(); cur != nil {
			lp := c.localActions[action]
			cur.Local = append(cur.Local, LocalDecision{
				Table: tab.key, State: c.deviceStates.Name(state), Action: action,
				B: lp.B, E: lp.E, Allowed: tab.q.CandidatesOf(dyn),
			})
		}
	}
	c.roundChoices[d.ID] = choice{round: c.round, state: int32(state), action: memo.action, table: tab}
	c.overhead.ChooseParams += c.clock() - t1
	return c.localActions[memo.action]
}

// Observe implements steps 4–5: measure the round, compute Eq. 1
// rewards, and queue Q-table updates (completed next round when S' is
// seen).
func (c *Controller) Observe(res fl.RoundResult) {
	t0 := c.clock()
	accPct := res.Accuracy * 100
	prevPct := res.PrevAccuracy * 100
	eGlobal := c.globalNorm.Normalize(res.EnergyGlobalJ)

	roundRewards := c.roundRewards[:0]
	for i := range res.Participants {
		p := &res.Participants[i]
		if p.DeviceID >= len(c.roundChoices) {
			continue
		}
		ch := c.roundChoices[p.DeviceID]
		if ch.round != c.round || ch.table == nil {
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
			table: ch.table, state: int(ch.state), action: int(ch.action), reward: r,
		})
	}
	// The K agent's reward uses the mean participant energy as its
	// local term (K is a fleet-level action).
	meanLocal := 0.0
	if len(res.Participants) > 0 {
		var s float64
		for i := range res.Participants {
			s += res.Participants[i].EnergyJ
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
	c.overhead.CalcReward += c.clock() - t0

	c.maybeFreeze(res.Round)
}

// flushPending applies queued updates using this round's observation as
// the successor state S'; globalState is the K table's S'. A local
// table's S' is the state of the first fleet device under it (see
// observeFleet); a table no fleet device maps to keeps its own state.
func (c *Controller) flushPending(obs *fl.Observation, globalState int) {
	if len(c.pendingLocal) > 0 {
		c.observeFleet(obs.Fleet)
		for _, p := range c.pendingLocal {
			next := p.state
			if i := p.table.index; i >= 0 && i < len(c.successor) && c.successor[i] >= 0 {
				st := obs.State(c.successor[i])
				next = c.deviceState(&st)
			}
			delta := p.table.q.Update(p.state, p.action, p.reward, next)
			// Updates grade the previous round's decisions: trace them
			// on the entry that recorded those decisions (the current
			// last entry — this round's is appended later in Plan).
			if cur := c.traceCurrent(); cur != nil {
				cur.Updates = append(cur.Updates, QUpdate{
					Table: p.table.key, State: c.deviceStates.Name(p.state), Action: p.action,
					Reward: p.reward, Next: c.deviceStates.Name(next), Delta: delta,
				})
			}
		}
		c.pendingLocal = c.pendingLocal[:0]
	}
	if c.hasPendingK && c.kTable != nil {
		next := globalState
		delta := c.kTable.Update(c.pendingK.state, c.pendingK.action, c.pendingK.reward, next)
		if cur := c.traceCurrent(); cur != nil {
			cur.Updates = append(cur.Updates, QUpdate{
				Table: "K", State: c.globalStates.Name(c.pendingK.state), Action: c.pendingK.action,
				Reward: c.pendingK.reward, Next: c.globalStates.Name(next), Delta: delta,
			})
		}
		c.hasPendingK = false
	}
}

// observeFleet rebuilds the successor table when the fleet differs
// from the one it was built for — once per run: for each table slot,
// the ID of the first device in fleet order under it.
func (c *Controller) observeFleet(fleet []device.Device) {
	if len(fleet) == len(c.fleet) && (len(fleet) == 0 || &fleet[0] == &c.fleet[0]) {
		return
	}
	c.fleet = fleet
	c.successor = c.successor[:0]
	for j := range fleet {
		d := &fleet[j]
		i := c.tableIndex(d)
		for len(c.successor) <= i {
			c.successor = append(c.successor, -1)
		}
		if c.successor[i] < 0 {
			c.successor[i] = d.ID
		}
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
			if !t.q.Converged(c.cfg.FreezeThreshold, c.cfg.FreezeMinUpdates) {
				byDelta = false
				break
			}
		}
	}
	if !byRounds && !byDelta {
		return
	}
	for _, t := range c.localTables {
		t.q.SetEpsilon(0)
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
		t.q.SetEpsilon(0)
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
		total += t.q.MemoryBytes()
	}
	if c.kTable != nil {
		total += c.kTable.MemoryBytes()
	}
	return total
}

// Overhead returns the per-phase wall-time accounting: each phase's
// timed-round sum scaled by Rounds over the timed rounds.
func (c *Controller) Overhead() OverheadBreakdown {
	o := c.overhead
	if c.timedRounds > 0 {
		scale := func(d time.Duration) time.Duration {
			return d * time.Duration(o.Rounds) / time.Duration(c.timedRounds)
		}
		o.IdentifyStates = scale(o.IdentifyStates)
		o.ChooseParams = scale(o.ChooseParams)
		o.CalcReward = scale(o.CalcReward)
		o.UpdateTables = scale(o.UpdateTables)
	}
	return o
}

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
		s.States += t.q.States()
		s.Updates += t.q.Updates()
	}
	if c.kTable != nil {
		s.Tables++
		s.States += c.kTable.States()
		s.Updates += c.kTable.Updates()
	}
	return s
}
