package abs

import (
	"testing"

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
		MaxRounds:              200,
		AggregationOverheadSec: 10,
		Seed:                   1,
		StopAtConvergence:      true,
	}
}

func TestABSRunsAndMakesProgress(t *testing.T) {
	res := fl.Run(testConfig(), New(DefaultConfig()))
	if res.Controller != "ABS" {
		t.Errorf("name = %q", res.Controller)
	}
	if res.FinalAccuracy < 0.5 {
		t.Errorf("final accuracy = %v, want meaningful progress", res.FinalAccuracy)
	}
}

func TestABSOnlyAdjustsB(t *testing.T) {
	// The defining limitation of ABS (paper §5.3): E and K never move.
	cfg := testConfig()
	cfg.MaxRounds = 50
	cfg.StopAtConvergence = false
	seenB := map[int]bool{}
	var badEK bool
	probe := &probeCtl{inner: New(DefaultConfig()), onResult: func(rr fl.RoundResult) {
		if rr.PlannedK != fixedK {
			badEK = true
		}
		for _, p := range rr.Participants {
			seenB[p.Local.B] = true
			if p.Local.E != fixedE {
				badEK = true
			}
		}
	}}
	fl.Run(cfg, probe)
	if badEK {
		t.Error("ABS must keep E and K fixed")
	}
	if len(seenB) < 2 {
		t.Error("ABS never explored different batch sizes")
	}
}

func TestABSEpsilonAnneals(t *testing.T) {
	c := New(DefaultConfig())
	cfg := testConfig()
	cfg.MaxRounds = 80
	cfg.StopAtConvergence = false
	fl.Run(cfg, c)
	if c.epsilon >= epsilon0 {
		t.Errorf("epsilon did not anneal: %v", c.epsilon)
	}
	if c.epsilon < epsilonMin-1e-12 {
		t.Errorf("epsilon fell below the floor: %v", c.epsilon)
	}
}

func TestABSDeterministicPerSeed(t *testing.T) {
	a := fl.Run(testConfig(), New(DefaultConfig()))
	b := fl.Run(testConfig(), New(DefaultConfig()))
	if a.EnergyToConvergenceJ != b.EnergyToConvergenceJ {
		t.Error("same-seed ABS runs diverged")
	}
}

// The zero Config is a usable agent: only the seed differs from
// DefaultConfig, so it runs the same operating point.
func TestZeroConfigFallsBack(t *testing.T) {
	c := New(Config{})
	p := c.Plan(fl.Observation{})
	if p.K != fixedK || p.Local(nil, nil).E != fixedE || c.epsilon != epsilon0 {
		t.Errorf("zero config planned K=%d E=%d at epsilon %v, want K=%d E=%d at %v",
			p.K, p.Local(nil, nil).E, c.epsilon, fixedK, fixedE, epsilon0)
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
