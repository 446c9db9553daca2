package baseline

import (
	"runtime"
	"testing"

	"fedgpo/internal/abs"
	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

func testConfig() fl.Config {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(20))
	return fl.Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.None(),
		MaxRounds:              250,
		AggregationOverheadSec: 10,
		Seed:                   1,
		StopAtConvergence:      true,
	}
}

func TestRoundRewardShape(t *testing.T) {
	// No improvement: punished.
	if got := RoundReward(10, 50, 50); got != -50 {
		t.Errorf("flat reward = %v, want -50", got)
	}
	// Improvement: energy subtracts.
	cheap := RoundReward(5, 60, 50)
	pricey := RoundReward(15, 60, 50)
	if cheap <= pricey {
		t.Error("cheaper round should score higher")
	}
	// More improvement scores higher at equal energy.
	if RoundReward(10, 65, 50) <= RoundReward(10, 55, 50) {
		t.Error("bigger improvement should score higher")
	}
}

func TestCoarseGridIsSubsetOfActionSpace(t *testing.T) {
	onGrid := map[fl.Params]bool{}
	for _, p := range fl.AllParams() {
		onGrid[p] = true
	}
	for _, p := range CoarseGrid() {
		if !onGrid[p] {
			t.Errorf("coarse grid point %v not on the Table 2 grid", p)
		}
	}
	if len(CoarseGrid()) >= len(fl.AllParams()) {
		t.Error("coarse grid should be smaller than the full grid")
	}
}

func TestAllBaselinesRunAndConverge(t *testing.T) {
	cfg := testConfig()
	factories := map[string]func() fl.Controller{
		"Fixed(8,10,20)": func() fl.Controller { return fl.NewStatic(fl.Params{B: 8, E: 10, K: 20}) },
		"Adaptive (BO)":  func() fl.Controller { return NewBO(1) },
		"Adaptive (GA)":  func() fl.Controller { return NewGA(1) },
		"FedEX":          func() fl.Controller { return NewFedEX(1) },
		"ABS":            func() fl.Controller { return abs.New(abs.DefaultConfig()) },
	}
	for name, factory := range factories {
		ctrl := factory()
		if ctrl.Name() != name {
			t.Errorf("controller name = %q, want %q", ctrl.Name(), name)
		}
		res := fl.Run(cfg, ctrl)
		if res.FinalAccuracy < 0.5 {
			t.Errorf("%s: final accuracy %v suspiciously low", name, res.FinalAccuracy)
		}
		if res.EnergyToConvergenceJ <= 0 || res.PPW <= 0 {
			t.Errorf("%s: non-positive energy/PPW", name)
		}
	}
}

func TestAdaptiveBaselinesActuallyAdapt(t *testing.T) {
	// BO/GA/FedEX must propose more than one distinct configuration
	// over a run; ABS must vary B.
	cfg := testConfig()
	cfg.MaxRounds = 40
	cfg.StopAtConvergence = false
	for name, factory := range map[string]func() fl.Controller{
		"BO":    func() fl.Controller { return NewBO(2) },
		"GA":    func() fl.Controller { return NewGA(2) },
		"FedEX": func() fl.Controller { return NewFedEX(2) },
		"ABS":   func() fl.Controller { return abs.New(abs.DefaultConfig()) },
	} {
		ctrl := factory()
		seen := map[fl.LocalParams]bool{}
		probe := &probeCtl{inner: ctrl, onResult: func(rr fl.RoundResult) {
			for _, p := range rr.Participants {
				seen[p.Local] = true
			}
		}}
		fl.Run(cfg, probe)
		if len(seen) < 2 {
			t.Errorf("%s never varied its configuration", name)
		}
	}
}

func TestBaselinesDeterministicPerSeed(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 60
	cfg.StopAtConvergence = false
	for name, factory := range map[string]func() fl.Controller{
		"BO":    func() fl.Controller { return NewBO(5) },
		"GA":    func() fl.Controller { return NewGA(5) },
		"FedEX": func() fl.Controller { return NewFedEX(5) },
	} {
		a := fl.Run(cfg, factory())
		b := fl.Run(cfg, factory())
		if a.EnergyToConvergenceJ != b.EnergyToConvergenceJ {
			t.Errorf("%s: same-seed runs diverged", name)
		}
	}
}

type probeCtl struct {
	inner    fl.Controller
	onResult func(fl.RoundResult)
}

func (p *probeCtl) Name() string                  { return p.inner.Name() }
func (p *probeCtl) Plan(o fl.Observation) fl.Plan { return p.inner.Plan(o) }
func (p *probeCtl) Observe(r fl.RoundResult) {
	p.onResult(r)
	p.inner.Observe(r)
}

// TestBOSpaceSharedWhileHeld: BO runs alive at the same time share one
// candidate space, and once none holds it the process keeps no copy.
func TestBOSpaceSharedWhileHeld(t *testing.T) {
	s := sharedBOSpace()
	if sharedBOSpace() != s {
		t.Error("a second BO space was built while the first was held")
	}
	runtime.KeepAlive(s) // s is dead past here
	runtime.GC()
	runtime.GC()
	if boSpace.p.Value() != nil {
		t.Error("the BO space outlived its last user")
	}
}
