package fl

import (
	"math"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// testConfig builds a small, fast deployment: 20 devices, IID data,
// stable network, no interference.
func testConfig() Config {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(20))
	return Config{
		Workload:          w,
		Fleet:             fleet,
		Partition:         data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:           netsim.StableChannel(),
		Interference:      interfere.None(),
		MaxRounds:         300,
		Seed:              1,
		StopAtConvergence: true,
	}
}

func TestParamsGridMatchesTable2(t *testing.T) {
	if got := len(AllParams()); got != 150 {
		t.Fatalf("grid size = %d, want 6*5*5 = 150", got)
	}
	if got := len(AllLocalParams()); got != 30 {
		t.Fatalf("local grid = %d, want 30", got)
	}
	wantB := []int{1, 2, 4, 8, 16, 32}
	for i, b := range BValues() {
		if b != wantB[i] {
			t.Fatalf("B values = %v", BValues())
		}
	}
	wantEK := []int{1, 5, 10, 15, 20}
	for i := range wantEK {
		if EValues()[i] != wantEK[i] || KValues()[i] != wantEK[i] {
			t.Fatalf("E/K values = %v / %v", EValues(), KValues())
		}
	}
}

// AllParams is the arm set the grid baselines index into: position
// (bi·|E| + ei)·|K| + ki holds (B[bi], E[ei], K[ki]).
func TestParamIndexRoundTrips(t *testing.T) {
	all := AllParams()
	if len(all) != len(bValues)*len(eValues)*len(kValues) {
		t.Fatalf("AllParams has %d entries", len(all))
	}
	for bi, b := range bValues {
		for ei, e := range eValues {
			for ki, k := range kValues {
				i := (bi*len(eValues)+ei)*len(kValues) + ki
				if want := (Params{B: b, E: e, K: k}); all[i] != want {
					t.Fatalf("AllParams[%d] = %v, want %v", i, all[i], want)
				}
			}
		}
	}
}

func TestParamsStringAndValid(t *testing.T) {
	p := Params{B: 8, E: 10, K: 20}
	if p.String() != "(8,10,20)" {
		t.Errorf("String = %q", p.String())
	}
}

func TestRunConvergesWithReasonableStatic(t *testing.T) {
	cfg := testConfig()
	res := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds (acc=%v)", cfg.MaxRounds, res.FinalAccuracy)
	}
	if res.ConvergenceRound <= 0 || res.ConvergenceRound > res.RoundsExecuted {
		t.Errorf("convergence round %d out of range", res.ConvergenceRound)
	}
	if res.TimeToConvergenceSec <= 0 || res.EnergyToConvergenceJ <= 0 {
		t.Errorf("non-positive time/energy: %v / %v", res.TimeToConvergenceSec, res.EnergyToConvergenceJ)
	}
	if math.Abs(res.PPW-1/res.EnergyToConvergenceJ) > 1e-15 {
		t.Errorf("converged PPW should be 1/energy")
	}
	if res.FinalAccuracy < cfg.Workload.Learn.TargetAccuracy-0.02 {
		t.Errorf("final accuracy %v below target", res.FinalAccuracy)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := testConfig()
	a := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	b := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	if a.ConvergenceRound != b.ConvergenceRound ||
		a.EnergyToConvergenceJ != b.EnergyToConvergenceJ ||
		a.FinalAccuracy != b.FinalAccuracy {
		t.Error("same-seed runs diverged")
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c := Run(cfg2, NewStatic(Params{B: 8, E: 10, K: 10}))
	if a.EnergyToConvergenceJ == c.EnergyToConvergenceJ && a.ConvergenceRound == c.ConvergenceRound {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 0
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid config")
		}
	}()
	Run(cfg, NewStatic(DefaultParams()))
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Fleet = nil
	if bad.Validate() == nil {
		t.Error("empty fleet should fail")
	}
	bad = good
	bad.Partition = data.IID(5, 10, 100)
	if bad.Validate() == nil {
		t.Error("partition/fleet mismatch should fail")
	}
	bad = good
	bad.DeadlineSec = -1
	if bad.Validate() == nil {
		t.Error("negative deadline factor should fail")
	}
	// The kernel and the controllers index per-device state by ID, so
	// a fleet out of ID order would read other devices' states.
	bad = good
	bad.Fleet = append([]device.Device(nil), good.Fleet...)
	bad.Fleet[3], bad.Fleet[7] = bad.Fleet[7], bad.Fleet[3]
	if bad.Validate() == nil {
		t.Error("a fleet with devices 3 and 7 swapped should fail")
	}
	for i := range bad.Fleet {
		bad.Fleet[i].ID = i + 1
	}
	if bad.Validate() == nil {
		t.Error("a fleet numbered from 1 should fail")
	}
}

// A deadline never lengthens a round: a Static run selects the same
// participants with the same states whatever happens to its accuracy,
// so every round under a deadline lasts at most as long as the same
// round of the same seed without one (the deadline cuts the slowest
// participant off; it never waits longer).
func TestDeadlineNeverLengthensRound(t *testing.T) {
	for _, deadline := range []float64{12, 40, 200} {
		cfg := dirtyConfig()
		cfg.DeadlineSec = 0
		free := Run(cfg, NewStatic(Params{B: 4, E: 20, K: 15}))
		cfg.DeadlineSec = deadline
		cut := Run(cfg, NewStatic(Params{B: 4, E: 20, K: 15}))
		if len(cut.History) != len(free.History) {
			t.Fatalf("deadline %g: %d rounds, %d without a deadline", deadline, len(cut.History), len(free.History))
		}
		shorter := 0
		for i, rec := range cut.History {
			if rec.RoundSeconds > free.History[i].RoundSeconds {
				t.Errorf("deadline %g, round %d: %g s, %g s without a deadline",
					deadline, rec.Round, rec.RoundSeconds, free.History[i].RoundSeconds)
			}
			if rec.RoundSeconds < free.History[i].RoundSeconds {
				shorter++
			}
		}
		if shorter == 0 {
			t.Errorf("deadline %g cut no round short; the case checks nothing", deadline)
		}
	}
}

// The run's phase records: one collector over two runs counts every
// round of both in PhaseRounds and in PhaseMerge (whose time is
// sampled and scaled), and both phases read a positive time.
func TestPhaseRecordsCountEveryRound(t *testing.T) {
	col := telemetry.NewCollector()
	rounds := 0
	for _, cfg := range []Config{testConfig(), dirtyConfig()} {
		cfg.Telemetry = col
		rounds += len(Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10})).History)
	}
	m := col.Snapshot()
	for _, name := range []string{telemetry.PhaseRounds, telemetry.PhaseMerge} {
		p := m.Phases[name]
		if p.Count != int64(rounds) {
			t.Errorf("%s counts %d rounds, the runs executed %d", name, p.Count, rounds)
		}
		if p.Seconds <= 0 {
			t.Errorf("%s reads %g s", name, p.Seconds)
		}
	}
}

func TestKClampedToFleet(t *testing.T) {
	cfg := testConfig()
	res := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 500}))
	for _, rec := range res.History {
		if rec.PlannedK > len(cfg.Fleet) {
			t.Fatalf("K %d exceeds fleet %d", rec.PlannedK, len(cfg.Fleet))
		}
	}
}

func TestRoundTimeIsSlowestParticipant(t *testing.T) {
	// With no deadline, round time must equal the max participant time.
	cfg := testConfig()
	cfg.MaxRounds = 3
	cfg.StopAtConvergence = false
	var seen []RoundResult
	probe := &probeController{inner: NewStatic(Params{B: 8, E: 10, K: 10}), sink: &seen}
	Run(cfg, probe)
	for _, rr := range seen {
		maxT := 0.0
		for _, p := range rr.Participants {
			if p.TotalSec > maxT {
				maxT = p.TotalSec
			}
		}
		if math.Abs(rr.RoundSeconds-maxT) > 1e-9 {
			t.Errorf("round %d: roundSec %v != slowest %v", rr.Round, rr.RoundSeconds, maxT)
		}
	}
}

func TestDeadlineDropsStragglers(t *testing.T) {
	cfg := testConfig()
	cfg.Interference = interfere.Paper()
	cfg.DeadlineSec = 12
	cfg.MaxRounds = 30
	cfg.StopAtConvergence = false
	var seen []RoundResult
	probe := &probeController{inner: NewStatic(Params{B: 8, E: 10, K: 15}), sink: &seen}
	Run(cfg, probe)
	drops := 0
	for _, rr := range seen {
		for _, p := range rr.Participants {
			if p.Dropped {
				drops++
				if p.TotalSec <= rr.RoundSeconds {
					t.Errorf("dropped device finished within the round: %v <= %v",
						p.TotalSec, rr.RoundSeconds)
				}
			}
		}
		if rr.AggregatedK > len(rr.Participants) {
			t.Error("aggregated more than selected")
		}
	}
	if drops == 0 {
		t.Error("tight deadline with interference should drop someone")
	}
}

func TestEnergyAccountsForWholeFleet(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 2
	cfg.StopAtConvergence = false
	var seen []RoundResult
	Run(cfg, &probeController{inner: NewStatic(Params{B: 8, E: 10, K: 5}), sink: &seen})
	for _, rr := range seen {
		var sum float64
		for _, e := range rr.EnergyByCategory {
			sum += e
		}
		if math.Abs(sum-rr.EnergyGlobalJ) > 1e-6 {
			t.Errorf("category energies %v != global %v", sum, rr.EnergyGlobalJ)
		}
		// Idlers must contribute: global energy must exceed the sum of
		// participant energies.
		var parts float64
		for _, p := range rr.Participants {
			parts += p.EnergyJ
		}
		if rr.EnergyGlobalJ <= parts {
			t.Errorf("global energy %v should exceed participants' %v (idle devices burn too)",
				rr.EnergyGlobalJ, parts)
		}
	}
}

func TestSmallerLocalParamsNarrowStragglerGap(t *testing.T) {
	// The Fig. 5 mechanism: assigning smaller B/E to slower devices
	// should reduce the round time versus a uniform setting.
	cfg := testConfig()
	cfg.MaxRounds = 5
	cfg.StopAtConvergence = false

	uniform := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	adaptive := Run(cfg, &categoryController{k: 10})
	if adaptive.AvgRoundSeconds >= uniform.AvgRoundSeconds {
		t.Errorf("adaptive per-category params should shorten rounds: %v >= %v",
			adaptive.AvgRoundSeconds, uniform.AvgRoundSeconds)
	}
}

func TestRunSeedsAveragesAndConvergence(t *testing.T) {
	cfg := testConfig()
	sum := runSeeds(cfg, func() Controller { return NewStatic(Params{B: 8, E: 10, K: 10}) },
		[]int64{1, 2, 3})
	if sum.Seeds != 3 {
		t.Fatalf("Seeds = %d", sum.Seeds)
	}
	if sum.ConvergedFraction != 1 {
		t.Errorf("converged fraction = %v, want 1", sum.ConvergedFraction)
	}
	if sum.MeanPPW <= 0 || sum.MeanConvergenceRound <= 0 {
		t.Error("summary means must be positive")
	}
}

func TestUnconvergedPPWScaledByProgress(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 3 // far too few to converge
	res := Run(cfg, NewStatic(Params{B: 32, E: 1, K: 1}))
	if res.Converged {
		t.Fatal("should not converge in 3 rounds with terrible params")
	}
	full := 1 / res.EnergyToConvergenceJ
	if res.PPW >= full {
		t.Errorf("unconverged PPW %v should be below 1/energy %v", res.PPW, full)
	}
	if res.PPW <= 0 {
		t.Error("PPW must stay positive")
	}
}

// probeController forwards to an inner controller and records results.
// RoundResult's Participants slice is arena-owned and only valid during
// Observe (see the ownership contract on RoundResult), so retaining the
// result across rounds requires copying it.
type probeController struct {
	inner Controller
	sink  *[]RoundResult
}

func (p *probeController) Name() string            { return p.inner.Name() }
func (p *probeController) Plan(o Observation) Plan { return p.inner.Plan(o) }
func (p *probeController) Observe(r RoundResult) {
	kept := r
	kept.Participants = append([]DeviceRound(nil), r.Participants...)
	*p.sink = append(*p.sink, kept)
	p.inner.Observe(r)
}

// categoryController assigns smaller B/E to slower device categories —
// a hand-written version of the paper's adaptive insight used to test
// the straggler mechanics.
type categoryController struct{ k int }

func (c *categoryController) Name() string { return "per-category" }
func (c *categoryController) Plan(Observation) Plan {
	return Plan{K: c.k, Local: func(d *device.Device, _ *DeviceState) LocalParams {
		switch d.Profile.Category {
		case device.High:
			return LocalParams{B: 8, E: 10}
		case device.Mid:
			return LocalParams{B: 8, E: 5}
		default:
			return LocalParams{B: 4, E: 5}
		}
	}}
}
func (c *categoryController) Observe(RoundResult) {}

var _ = stats.Mean // keep stats import if helpers change
