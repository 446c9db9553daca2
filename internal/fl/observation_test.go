package fl

import (
	"math"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
)

// scanStates is the reference for Observation's fleet summaries: one
// walk over States.
func scanStates(states []DeviceState) (interfered, badLinks int, meanClass float64) {
	classPct := 0.0
	for _, st := range states {
		if st.Interference.CPUUsage > 0 || st.Interference.MemUsage > 0 {
			interfered++
		}
		if !st.Network.Regular() {
			badLinks++
		}
		classPct += st.ClassFraction
	}
	if len(states) > 0 {
		meanClass = classPct / float64(len(states))
	}
	return interfered, badLinks, meanClass
}

// summaryChecker compares every round's Observation summaries against
// a scan over its States.
type summaryChecker struct {
	Controller
	t                     *testing.T
	rounds                int
	maxInterfered, maxBad int
}

func (c *summaryChecker) Plan(obs Observation) Plan {
	interfered, badLinks, meanClass := scanStates(obs.States)
	if obs.Interfered != interfered || obs.BadLinks != badLinks ||
		math.Float64bits(obs.MeanClassFraction) != math.Float64bits(meanClass) {
		c.t.Errorf("round %d: observation says %d interfered, %d bad links, mean class %v; states say %d, %d, %v",
			obs.Round, obs.Interfered, obs.BadLinks, obs.MeanClassFraction, interfered, badLinks, meanClass)
	}
	c.rounds++
	c.maxInterfered = max(c.maxInterfered, interfered)
	c.maxBad = max(c.maxBad, badLinks)
	return c.Controller.Plan(obs)
}

// The fleet counts an Observation carries equal a scan over its States
// in every round, whether the round is recorded into the environment
// trace or replayed from it, with the interference model on and off.
func TestObservationCountsMatchStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		intf interfere.Model
	}{
		{"interference off", interfere.None()},
		{"interference on", interfere.Paper()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Partition = data.Dirichlet(len(cfg.Fleet), cfg.Workload.NumClasses, cfg.Workload.SamplesPerDevice, 0.3, stats.NewRNG(7))
			cfg.Channel = netsim.UnstableChannel()
			cfg.Interference = tc.intf
			cfg.MaxRounds = 40
			cfg.StopAtConvergence = false
			cfg.Seed = 4242
			for _, label := range []string{"recorded", "replayed"} {
				c := &summaryChecker{Controller: NewStatic(Params{B: 8, E: 10, K: 5}), t: t}
				Run(cfg, c)
				if c.rounds != cfg.MaxRounds {
					t.Fatalf("%s pass planned %d rounds, want %d", label, c.rounds, cfg.MaxRounds)
				}
				if c.maxBad == 0 {
					t.Errorf("%s pass: the unstable channel never produced a bad link", label)
				}
				if active := tc.intf.Active(); active != (c.maxInterfered > 0) {
					t.Errorf("%s pass: interference model active=%v, but at most %d devices were interfered", label, active, c.maxInterfered)
				}
			}
		})
	}
}
