package fl

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"fedgpo/internal/convmodel"
	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// Config describes one simulated FL deployment.
type Config struct {
	// Workload is the NN training task.
	Workload workload.Workload
	// Fleet is the device population (paper: 200 devices, 30/70/100),
	// at most 65,535 devices, each at the position its ID names
	// (Fleet[i].ID == i): the simulator and the controllers index
	// per-device state by ID. It is read-only: runs may share one
	// fleet (see SharedFleet), so neither the simulator nor any
	// controller writes through it.
	Fleet []device.Device
	// Partition assigns data to devices; Partition.NumDevices must
	// equal len(Fleet). Like Fleet it is read-only and may be shared
	// (see SharedPartition).
	Partition data.Partition
	// Channel is the wireless model (stable or unstable).
	Channel netsim.Channel
	// Interference is the co-runner model (None or Paper).
	Interference interfere.Model
	// MaxRounds bounds the simulation.
	MaxRounds int
	// DeadlineSec, when positive, is the server's absolute round
	// deadline: participants whose compute+communication exceeds it
	// have their updates dropped (the straggler-drop practice the
	// paper attributes to prior work; production FL systems close
	// rounds on a fixed time budget). Zero waits for every
	// participant.
	DeadlineSec float64
	// AggregationOverheadSec is the fixed per-round cost of server-side
	// aggregation and scheduling (model validation, participant
	// coordination). Participants wait it out at WaitWatts; the rest of
	// the fleet idles. It is the term that makes "many tiny rounds"
	// strategies pay their communication/coordination tax, as they do
	// in real FL deployments.
	AggregationOverheadSec float64
	// Seed makes the run reproducible.
	Seed int64
	// StopAtConvergence ends the run once the tracker fires (plus its
	// settle window); disable to collect full-length histories.
	StopAtConvergence bool
	// Telemetry, when non-nil, receives the run's wall-clock phase
	// timings, once per run: the round loop (PhaseRounds, two clock
	// reads per run) and the serial merges (PhaseMerge, timed on one
	// round in 16 and scaled), each counting the rounds executed. A nil
	// collector makes the loop read no clock at all. It is
	// observational only: Config is never hashed into cache keys and
	// the collector cannot influence the run's outcome, which stays
	// byte-identical with or without it.
	Telemetry *telemetry.Collector
}

// maxFleet is the largest fleet a run accepts: environment traces
// store selection permutations as uint16 device indices.
const maxFleet = math.MaxUint16

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if len(c.Fleet) == 0 {
		return fmt.Errorf("fl: empty fleet")
	}
	if len(c.Fleet) > maxFleet {
		return fmt.Errorf("fl: fleet has %d devices, at most %d allowed", len(c.Fleet), maxFleet)
	}
	for i := range c.Fleet {
		if c.Fleet[i].ID != i {
			return fmt.Errorf("fl: fleet position %d holds device ID %d; IDs must equal positions", i, c.Fleet[i].ID)
		}
	}
	if c.Partition.NumDevices() != len(c.Fleet) {
		return fmt.Errorf("fl: partition covers %d devices, fleet has %d",
			c.Partition.NumDevices(), len(c.Fleet))
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("fl: MaxRounds must be positive")
	}
	if c.DeadlineSec < 0 {
		return fmt.Errorf("fl: DeadlineSec must be >= 0")
	}
	if c.AggregationOverheadSec < 0 {
		return fmt.Errorf("fl: AggregationOverheadSec must be >= 0")
	}
	return nil
}

// RoundRecord is one row of a run's history.
type RoundRecord struct {
	Round        int
	Accuracy     float64
	RoundSeconds float64
	EnergyJ      float64
	MeanB, MeanE float64
	PlannedK     int
	AggregatedK  int
	Dropped      int
}

// Result summarizes one simulated run.
//
// Results may share memory, so no caller writes through, or decodes
// into, a Result's History or EnergyByCategory (a json.Unmarshal into a
// non-empty slice writes into that slice's array):
//   - The Results of one RunHorizons call may share one History array.
//     Each is a prefix of the longest budget's History whose len equals
//     its cap, so an append copies it instead of writing into another
//     Result's rounds.
//   - runtime.Executor.RunAll hands every copy of a key repeated within
//     a batch the first copy's Result, slices and maps included.
type Result struct {
	Controller string
	// Outcome is OutcomeOf(workload, History). JSON carries its fields
	// in place; the binary form leaves them out (see codec.go).
	Outcome
	// EnergyByCategory splits the total energy across H/M/L.
	EnergyByCategory map[device.Category]float64
	// ControllerOverheadSec is always zero: Run measures no wall-clock
	// time, so a Result's bytes depend only on its inputs. The binary
	// form still carries the field, so cache entries keep their format.
	//
	// Deprecated: always zero; kept only because the benchmark module
	// names it.
	ControllerOverheadSec float64
	// History holds per-round records.
	History []RoundRecord
}

// Run executes one simulated FL training run under the given controller.
// It panics on an invalid config (programmer error); stochastic outcomes
// are all derived from cfg.Seed.
//
// Run draws its scratch arena from a process-wide pool, so an outer
// worker goroutine executing many cells back-to-back reuses one arena
// across all of them. Reuse never changes results — see Arena.
func Run(cfg Config, ctrl Controller) Result {
	a := arenaPool.Get().(*Arena)
	res := RunWithArena(cfg, ctrl, a)
	arenaPool.Put(a)
	return res
}

// RunWithArena is Run against a caller-owned arena. The result is
// byte-identical whether a is fresh or dirty from any number of prior
// runs; callers that hold an arena explicitly (benchmarks, tests) can
// measure or exercise steady-state reuse deterministically.
func RunWithArena(cfg Config, ctrl Controller, a *Arena) Result {
	horizon := [1]int{cfg.MaxRounds}
	var out [1]Result
	runHorizons(cfg, ctrl, a, horizon[:], out[:])
	return out[0]
}

// RunHorizons runs cfg once, to cfg.MaxRounds, and returns for each
// round budget in horizons (at least one, each in [1, cfg.MaxRounds],
// in any order) the Result that Run would return with cfg.MaxRounds
// set to it, byte for byte: the history up to that round and the
// energy spent by its end. A budget past the round the run converged
// at (see Config.StopAtConvergence) gets the run's final state, as a
// run that converges before its budget stops there. The Results share
// one History array, sized for the longest budget (see Result); each
// has its own map. Run is the one-horizon case.
//
// The prefix contract: a run's first h rounds do not depend on its
// round budget. The loop bound is the only reader of MaxRounds, so no
// controller, convergence model or environment trace may read it, or
// learn the horizon any other way; one that did would make a short
// budget's result differ from the same run cut short.
func RunHorizons(cfg Config, ctrl Controller, horizons []int) []Result {
	for _, h := range horizons {
		if h < 1 || h > cfg.MaxRounds {
			panic(fmt.Sprintf("fl: horizon %d outside [1, MaxRounds=%d]", h, cfg.MaxRounds))
		}
	}
	out := make([]Result, len(horizons))
	a := arenaPool.Get().(*Arena)
	runHorizons(cfg, ctrl, a, horizons, out)
	arenaPool.Put(a)
	return out
}

// runHorizons is RunHorizons on a caller-owned arena, writing
// horizons' results into out (len(out) == len(horizons)). Within the
// loop a horizon costs a check per round and a copy of the category
// energies at its round; the Results are built after the loop.
func runHorizons(cfg Config, ctrl Controller, a *Arena, horizons []int, out []Result) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(cfg.Fleet)
	a.beginRun(&cfg)
	model := convmodel.New(cfg.Workload, a.accRNG)
	tracker := convmodel.NewTracker(cfg.Workload)
	name := ctrl.Name()

	// catEnergy accumulates the per-category energy across rounds in a
	// fixed array; each Result's map form is built once at the end so
	// its JSON bytes are unchanged from the per-round-map era. atHorizon
	// holds catEnergy as it stood at the end of each horizon's round;
	// one horizon's copy lives on the stack.
	var catEnergy [device.NumCategories]float64
	var oneHorizon [1][device.NumCategories]float64
	atHorizon := oneHorizon[:]
	if len(horizons) > 1 {
		atHorizon = make([][device.NumCategories]float64, len(horizons))
	}
	prevAcc := cfg.Workload.Learn.InitialAccuracy
	prevParticipants := []int(nil)
	// chronicDrop tracks the long-run fraction of selected data that
	// misses round deadlines (see convmodel.RoundInputs).
	chronicDrop := stats.NewEMA(0.05)

	// The phase clocks run only for a collector: the loop is timed
	// whole, and the merge on sampled rounds (see mergeSample).
	timed := cfg.Telemetry != nil
	var loopStart time.Time
	var mergeSec time.Duration
	if timed {
		loopStart = time.Now()
	}
	// obs and rr are written in place each round: obs's run-constant
	// fields once here, the rest before Plan; rr's every field by
	// executeRound and the loop.
	obs := Observation{
		Workload:          cfg.Workload,
		Fleet:             cfg.Fleet,
		DeadlineSec:       cfg.DeadlineSec,
		MeanClassFraction: a.meanClass,
	}
	var rr RoundResult
	for round := 1; round <= cfg.MaxRounds; round++ {
		// 1. Observe the environment, replayed from the trace.
		devices, perm, interfered, badLinks := a.env.observe(round-1, a.static)
		obs.Round = round
		obs.PrevAccuracy = prevAcc
		obs.PrevParticipants = prevParticipants
		obs.Interfered, obs.BadLinks = interfered, badLinks
		obs.devices = devices

		// 2. Controller decides.
		plan := ctrl.Plan(obs)

		k := plan.K
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}

		// 3. Random participant selection (paper Algorithm 1): the
		// first k of the round's uniform permutation, marked in the
		// selection bitmap and read back in ascending device order. The
		// double-buffered selection slice keeps the previous round's
		// PrevParticipants intact while this round's is written.
		selBits := a.selBits
		clear(selBits)
		for _, id := range perm[:k] {
			selBits[id>>6] |= 1 << (id & 63)
		}
		selected := a.sel[round&1][:0]
		for w, word := range selBits {
			for ; word != 0; word &= word - 1 {
				selected = append(selected, w<<6|bits.TrailingZeros64(word))
			}
		}

		// 4. Execute the round.
		mergeSec += executeRound(&cfg, plan, selected, &devices, a, &rr, timed && round%mergeSample == 1)
		rr.Round = round
		rr.PlannedK = k
		rr.PrevAccuracy = prevAcc
		rr.devices = devices

		// 5. Advance the learning model with what was aggregated.
		in := aggregateInputs(&rr, a)
		in.ChronicDropFraction = chronicDrop.Add(1 - in.DataFraction)
		acc := model.Step(in)
		rr.Accuracy = acc

		// 6. Feed the controller.
		ctrl.Observe(rr)

		// 7. Bookkeeping.
		prevAcc = acc
		prevParticipants = selected
		a.history = append(a.history, RoundRecord{
			Round:        round,
			Accuracy:     acc,
			RoundSeconds: rr.RoundSeconds,
			EnergyJ:      rr.EnergyGlobalJ,
			MeanB:        rr.MeanB,
			MeanE:        rr.MeanE,
			PlannedK:     k,
			AggregatedK:  rr.AggregatedK,
			Dropped:      len(selected) - rr.AggregatedK,
		})
		// Per-category adds happen key-by-key in round order, exactly
		// as they did when this was a map-over-map accumulation.
		for cat := range catEnergy {
			catEnergy[cat] += rr.EnergyByCategory[cat]
		}
		for i, h := range horizons {
			if h == round {
				atHorizon[i] = catEnergy
			}
		}

		if tracker.Observe(acc) && cfg.StopAtConvergence {
			break
		}
	}
	rounds := len(a.history)
	if timed {
		cfg.Telemetry.RecordPhaseN(telemetry.PhaseRounds, time.Since(loopStart), rounds)
		// Rounds 1, 1+mergeSample, ... were timed: scale their sum to
		// all rounds.
		sampled := (rounds + mergeSample - 1) / mergeSample
		cfg.Telemetry.RecordPhaseN(telemetry.PhaseMerge, mergeSec*time.Duration(rounds)/time.Duration(sampled), rounds)
	}

	// The history is copied out of the arena once, as far as the
	// longest budget reaches; each Result is a capped prefix of it (see
	// Result).
	full := make([]RoundRecord, min(slices.Max(horizons), rounds))
	copy(full, a.history)
	for i, h := range horizons {
		energy := &catEnergy
		if h < rounds {
			energy = &atHorizon[i]
		}
		res := &out[i]
		res.Controller = name
		n := min(h, rounds)
		res.History = full[:n:n]
		res.Outcome = OutcomeOf(cfg.Workload, res.History)
		// The result's map keys are the categories present in the
		// fleet — the same key set the old per-round maps accumulated —
		// so the marshalled Result bytes are unchanged.
		res.EnergyByCategory = make(map[device.Category]float64, device.NumCategories)
		for _, cat := range device.Categories() {
			if len(a.idle[cat]) > 0 {
				res.EnergyByCategory[cat] = energy[cat]
			}
		}
	}
}

// mergeSample is the merge timer's sampling period: a run with a
// collector times executeRound's merge on rounds 1, 1+mergeSample,
// 1+2·mergeSample, ... only, because two clock reads cost about as
// much as a small round's merge.
const mergeSample = 16

// executeRound runs the selected devices' local training and computes
// the round's timing and fleet-wide energy into rr (every field but
// the ones RunWithArena sets: Round, PlannedK, PrevAccuracy, Accuracy
// and the device view). Its cost is O(K) for K participants plus the
// idle sum: per idle run (see idleRun), one product, then one add per
// non-participant in a loop over the run's count, with no walk over
// the fleet. When timeMerge is set it returns the merge phase's wall
// time, else 0.
//
// It executes in two phases. Phase 1 walks the participants serially
// in selected-device order: it reads each one's state from the round's
// trace record, asks the controller for its local parameters —
// controllers are stateful and may draw randomness, so the call order
// is part of the reproducibility contract — and evaluates the
// deterministic device/channel models for it. Phase 2 merges in fixed
// device order (straggler semantics, energy accounting, aggregation),
// so every float accumulation happens in the same order.
func executeRound(cfg *Config, plan Plan, selected []int, devices *deviceView, a *Arena, rr *RoundResult, timeMerge bool) time.Duration {
	k := len(selected)
	parts := a.parts[:k]
	commJoules := a.commJoules[:k]
	modelBytes := cfg.Workload.Shape.ModelBytes

	// Phase 1. Each participant's DeviceRound is written field by
	// field in its arena slot; the merge writes the rest (Dropped,
	// EnergyJ), so arena reuse cannot leak a previous round's values.
	// The state is read into one arena slot that Local sees by pointer.
	// The round trip is computed once per participant and reused for
	// both its seconds and its joules: the two are one physical
	// transfer, and a second model call would silently diverge the
	// moment the channel model becomes stochastic per call.
	st := &a.state
	for i, id := range selected {
		d := &cfg.Fleet[id]
		devices.read(id, st)
		lp := plan.Local(d, st)
		if lp.B < 1 {
			lp.B = 1
		}
		if lp.E < 1 {
			lp.E = 1
		}
		comp := device.ComputeSeconds(&d.Profile, cfg.Workload.Shape, lp.B, lp.E, st.Samples, st.Interference)
		rt := a.comm.RoundTrip(modelBytes, st.Network)
		p := &parts[i]
		p.DeviceID = id
		p.Category = d.Profile.Category
		p.Local = lp
		p.ComputeSec = comp
		p.CommSec = rt.Seconds
		p.TotalSec = comp + rt.Seconds
		p.Samples = st.Samples
		p.SkewDegree = a.part.NonIIDDegree(id)
		p.Interfered = st.Interference.CPUUsage > 0 || st.Interference.MemUsage > 0
		p.NetworkBad = !st.Network.Regular()
		commJoules[i] = rt.Joules
	}

	// Phase 2: merge in fixed device order.
	var mergeStart time.Time
	if timeMerge {
		mergeStart = time.Now()
	}
	// Straggler semantics: the round lasts until the slowest surviving
	// participant, or closes at the deadline when one is set.
	execSec := 0.0
	deadline := cfg.DeadlineSec
	for i := range parts {
		p := &parts[i]
		if i == 0 || p.TotalSec > execSec {
			execSec = p.TotalSec
		}
		p.Dropped = deadline > 0 && p.TotalSec > deadline
	}
	if deadline > 0 && execSec > deadline {
		execSec = deadline
	}
	// The server-side aggregation tax extends the round for everyone.
	roundSec := execSec + cfg.AggregationOverheadSec

	// Energy accounting (paper Eqs. 2–6). The per-category split lives
	// in a fixed-size array (zeroed on the stack each round): the
	// participants' energy first, in selected-device order, then each
	// category's non-participants in ascending device order, priced run
	// by run, so totals are bit-identical to one walk over the fleet.
	// The participant pass also counts, dropped ones included, the
	// participants of each idle run.
	var energyByCat [device.NumCategories]float64
	aggK := 0
	var wB, wE, wSamples float64
	for i := range parts {
		p := &parts[i]
		prof := &cfg.Fleet[p.DeviceID].Profile
		busyComp, commJ := p.ComputeSec, commJoules[i]
		waitIdle := roundSec - p.TotalSec
		if p.Dropped {
			// The device worked until it was cut off at the deadline;
			// its energy up to that point is still burned (this is the
			// redundant energy the paper says stragglers waste), and it
			// then sits through the aggregation overhead like everyone
			// else.
			frac := 1.0
			if p.TotalSec > 0 {
				frac = stats.Clamp(execSec/p.TotalSec, 0, 1)
			}
			busyComp *= frac
			commJ *= frac
			waitIdle = cfg.AggregationOverheadSec
		}
		if waitIdle < 0 {
			waitIdle = 0
		}
		p.EnergyJ = device.ParticipantJoulesAt(a.busyWatts[p.DeviceID], prof.WaitWatts, busyComp, waitIdle) + commJ
		energyByCat[prof.Category] += p.EnergyJ
		a.idle[prof.Category][a.runOf[p.DeviceID]].taken++
		if !p.Dropped {
			aggK++
			wB += float64(p.Samples) * float64(p.Local.B)
			wE += float64(p.Samples) * float64(p.Local.E)
			wSamples += float64(p.Samples)
		}
	}
	for cat, runs := range a.idle {
		sum := energyByCat[cat]
		for r := range runs {
			run := &runs[r]
			idleJ := device.IdleJoules(run.watts, roundSec)
			for m := run.size - run.taken; m > 0; m-- {
				sum += idleJ
			}
			run.taken = 0
		}
		energyByCat[cat] = sum
	}
	// Sum in fixed category order (array index order == the canonical
	// device.Categories() order): a varying float addition order would
	// make runs non-reproducible (the total feeds the controllers'
	// rewards).
	totalEnergy := 0.0
	for cat := range energyByCat {
		totalEnergy += energyByCat[cat]
	}

	meanB, meanE := 0.0, 0.0
	if wSamples > 0 {
		meanB = wB / wSamples
		meanE = wE / wSamples
	}
	rr.Participants = parts
	rr.AggregatedK = aggK
	rr.RoundSeconds = roundSec
	rr.EnergyGlobalJ = totalEnergy
	rr.EnergyByCategory = energyByCat
	rr.MeanB, rr.MeanE = meanB, meanE
	if timeMerge {
		return time.Since(mergeStart)
	}
	return 0
}

// aggregateInputs converts a round's aggregation outcome into the
// convergence model's inputs. The aggregated-ID list and the partition
// signals come from the arena (the partition memo returns bit-identical
// values to the Partition methods it shadows).
func aggregateInputs(rr *RoundResult, a *Arena) convmodel.RoundInputs {
	aggIDs := a.aggIDs[:0]
	selSamples, aggSamples := 0, 0
	for i := range rr.Participants {
		p := &rr.Participants[i]
		selSamples += p.Samples
		if !p.Dropped {
			aggIDs = append(aggIDs, p.DeviceID)
			aggSamples += p.Samples
		}
	}
	frac := 0.0
	if selSamples > 0 {
		frac = float64(aggSamples) / float64(selSamples)
	}
	return convmodel.RoundInputs{
		MeanB:        rr.MeanB,
		MeanE:        rr.MeanE,
		K:            rr.AggregatedK,
		Skew:         a.part.ParticipantSkew(aggIDs),
		Coverage:     a.part.ParticipantCoverage(aggIDs),
		DataFraction: frac,
	}
}
