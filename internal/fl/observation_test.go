package fl

import (
	"fmt"
	"math"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
)

// eagerStates is the reference every on-demand state read is checked
// against: each round's state of every device, filled eagerly, with
// the stochastic fields from the live draws (liveRounds) and the
// static ones straight from the partition.
func eagerStates(cfg Config) [][]DeviceState {
	key := envKey{seed: cfg.Seed, n: len(cfg.Fleet), intf: cfg.Interference}
	live := liveRounds(key, cfg.Channel, cfg.MaxRounds)
	out := make([][]DeviceState, len(live))
	for r := range live {
		for i, d := range cfg.Fleet {
			st := &live[r].states[i]
			st.ClassCount = cfg.Partition.DeviceClassCount(i)
			st.ClassFraction = cfg.Partition.DeviceClassFraction(i)
			st.Samples = cfg.Partition.DeviceSamples(d.ID)
		}
		out[r] = live[r].states
	}
	return out
}

// sameState compares two device states bit for bit.
func sameState(a, b DeviceState) bool {
	bits := math.Float64bits
	return bits(a.Interference.CPUUsage) == bits(b.Interference.CPUUsage) &&
		bits(a.Interference.MemUsage) == bits(b.Interference.MemUsage) &&
		bits(a.Network.BandwidthMbps) == bits(b.Network.BandwidthMbps) &&
		a.Network.Signal == b.Network.Signal && a.ClassCount == b.ClassCount &&
		bits(a.ClassFraction) == bits(b.ClassFraction) && a.Samples == b.Samples
}

// stateConfig is a 40-round deployment of n devices whose states vary
// in every field: a Dirichlet partition, the unstable channel and the
// given interference model.
func stateConfig(n int, intf interfere.Model, seed int64) Config {
	cfg := testConfig()
	cfg.Fleet = device.NewFleet(device.PaperComposition().Scale(n))
	cfg.Partition = data.Dirichlet(n, cfg.Workload.NumClasses, cfg.Workload.SamplesPerDevice, 0.3, stats.NewRNG(7))
	cfg.Channel = netsim.UnstableChannel()
	cfg.Interference = intf
	cfg.MaxRounds = 40
	cfg.StopAtConvergence = false
	cfg.Seed = seed
	return cfg
}

// interferenceCases runs the state tests with the co-runner model off
// and on (on, the trace holds an active bitmap and packed pairs).
var interferenceCases = []struct {
	name string
	intf interfere.Model
}{
	{"interference off", interfere.None()},
	{"interference on", interfere.Paper()},
}

// passes names a config's two runs: the first records its environment
// trace (each test uses its own seed), the second replays it.
var passes = []string{"recorded", "replayed"}

// stateCheck is a Static controller that reads every device's State in
// every round's Observation and RoundResult and compares each read
// with the eager reference.
type stateCheck struct {
	*Static
	want        [][]DeviceState
	rounds, bad int
	firstBad    string
}

func (c *stateCheck) check(where string, round int, read func(int) DeviceState) {
	for id, want := range c.want[round-1] {
		if got := read(id); !sameState(got, want) {
			if c.bad == 0 {
				c.firstBad = fmt.Sprintf("round %d %s device %d: %+v, eager %+v", round, where, id, got, want)
			}
			c.bad++
		}
	}
}

func (c *stateCheck) Plan(obs Observation) Plan {
	c.check("observation", obs.Round, obs.State)
	c.rounds++
	return c.Static.Plan(obs)
}

func (c *stateCheck) Observe(rr RoundResult) { c.check("round result", rr.Round, rr.State) }

// Every device's State, in every round's Observation and in its
// RoundResult, equals the eager reference bit for bit, whether the
// round is recorded into the environment trace or replayed from it,
// with the interference model on and off, on fleets of 20 and of 130
// devices (more than one bitmap word, the last one partial).
func TestObservationStatesCoverFleet(t *testing.T) {
	for _, tc := range interferenceCases {
		for _, n := range []int{20, 130} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				cfg := stateConfig(n, tc.intf, 4243)
				want := eagerStates(cfg)
				for _, pass := range passes {
					c := &stateCheck{Static: NewStatic(Params{B: 8, E: 10, K: 5}), want: want}
					Run(cfg, c)
					if c.rounds != cfg.MaxRounds {
						t.Fatalf("%s pass planned %d rounds, want %d", pass, c.rounds, cfg.MaxRounds)
					}
					if c.bad > 0 {
						t.Errorf("%s pass: %d device-rounds differ from the eager reference; first: %s", pass, c.bad, c.firstBad)
					}
				}
			})
		}
	}
}

// scanStates is the reference for Observation's fleet summaries: one
// walk over every device's state.
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
// a scan over State(0..n-1) and a scan over the eager reference.
type summaryChecker struct {
	*Static
	t                     *testing.T
	want                  [][]DeviceState
	read                  []DeviceState
	rounds                int
	maxInterfered, maxBad int
}

func (c *summaryChecker) Plan(obs Observation) Plan {
	c.read = c.read[:0]
	for id := range obs.Fleet {
		c.read = append(c.read, obs.State(id))
	}
	interfered, badLinks, meanClass := scanStates(c.read)
	wantI, wantB, wantMean := scanStates(c.want[obs.Round-1])
	if obs.Interfered != interfered || obs.BadLinks != badLinks ||
		math.Float64bits(obs.MeanClassFraction) != math.Float64bits(meanClass) ||
		interfered != wantI || badLinks != wantB || math.Float64bits(meanClass) != math.Float64bits(wantMean) {
		c.t.Errorf("round %d: observation says %d interfered, %d bad links, mean class %v; its states say %d, %d, %v; the eager reference %d, %d, %v",
			obs.Round, obs.Interfered, obs.BadLinks, obs.MeanClassFraction, interfered, badLinks, meanClass, wantI, wantB, wantMean)
	}
	c.rounds++
	c.maxInterfered = max(c.maxInterfered, interfered)
	c.maxBad = max(c.maxBad, badLinks)
	return c.Static.Plan(obs)
}

// The fleet counts an Observation carries equal a scan over its
// devices' States, and one over the eager reference, in every round,
// whether the round is recorded into the environment trace or replayed
// from it, with the interference model on and off.
func TestObservationCountsMatchStates(t *testing.T) {
	for _, tc := range interferenceCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stateConfig(20, tc.intf, 4242)
			want := eagerStates(cfg)
			for _, pass := range passes {
				c := &summaryChecker{Static: NewStatic(Params{B: 8, E: 10, K: 5}), t: t, want: want}
				Run(cfg, c)
				if c.rounds != cfg.MaxRounds {
					t.Fatalf("%s pass planned %d rounds, want %d", pass, c.rounds, cfg.MaxRounds)
				}
				if c.maxBad == 0 {
					t.Errorf("%s pass: the unstable channel never produced a bad link", pass)
				}
				if active := tc.intf.Active(); active != (c.maxInterfered > 0) {
					t.Errorf("%s pass: interference model active=%v, but at most %d devices were interfered", pass, active, c.maxInterfered)
				}
			}
		})
	}
}

// staticStateCheck is a Static controller that checks every round's
// static State fields (ClassCount, ClassFraction, Samples) against the
// eager reference, which takes them from the partition.
type staticStateCheck struct {
	*Static
	want [][]DeviceState
	bad  int
}

func (s *staticStateCheck) Plan(obs Observation) Plan {
	for i, want := range s.want[obs.Round-1] {
		st := obs.State(i)
		if st.ClassCount != want.ClassCount ||
			math.Float64bits(st.ClassFraction) != math.Float64bits(want.ClassFraction) ||
			st.Samples != want.Samples {
			s.bad++
		}
	}
	return s.Static.Plan(obs)
}

// TestObservedStaticStateMatchesPartition checks the values beginRun
// writes once per run: every round, each device's ClassCount,
// ClassFraction and Samples are its partition's. The recorded pass runs
// on a fresh arena, the replayed one on an arena a larger IID run left
// behind, with the interference model on and off.
func TestObservedStaticStateMatchesPartition(t *testing.T) {
	for _, tc := range interferenceCases {
		cfg := dirtyConfig()
		cfg.Interference = tc.intf
		cfg.Seed = 4244
		want := eagerStates(cfg)
		for _, pass := range passes {
			a := NewArena()
			if pass == "replayed" {
				RunWithArena(bigConfig(), NewStatic(Params{B: 8, E: 10, K: 20}), a)
			}
			ctrl := &staticStateCheck{Static: NewStatic(Params{B: 8, E: 10, K: 10}), want: want}
			res := RunWithArena(cfg, ctrl, a)
			if ctrl.bad > 0 {
				t.Errorf("%s, %s pass: %d device-rounds observed static state differing from the partition over %d rounds",
					tc.name, pass, ctrl.bad, res.RoundsExecuted)
			}
		}
	}
}

// ledger is a Static controller that rebuilds each round's energy
// split from the round's own report: per category, the participants'
// EnergyJ in participant order, then device.IdleJoules of every
// non-participant in device order.
type ledger struct {
	*Static
	t      *testing.T
	fleet  []device.Device
	rounds int
	drops  int
}

func (l *ledger) Plan(obs Observation) Plan {
	l.fleet = obs.Fleet
	return l.Static.Plan(obs)
}

func (l *ledger) Observe(rr RoundResult) {
	var want [device.NumCategories]float64
	took := make([]bool, len(l.fleet))
	for _, p := range rr.Participants {
		want[p.Category] += p.EnergyJ
		took[p.DeviceID] = true
		if p.Dropped {
			l.drops++
		}
	}
	for id, d := range l.fleet {
		if !took[id] {
			want[d.Profile.Category] += device.IdleJoules(d.Profile.IdleWatts, rr.RoundSeconds)
		}
	}
	total := 0.0
	for cat := range want {
		if math.Float64bits(rr.EnergyByCategory[cat]) != math.Float64bits(want[cat]) {
			l.t.Errorf("round %d: category %d energy %v, ledger %v", rr.Round, cat, rr.EnergyByCategory[cat], want[cat])
		}
		total += want[cat]
	}
	if math.Float64bits(rr.EnergyGlobalJ) != math.Float64bits(total) {
		l.t.Errorf("round %d: global energy %v, ledger %v", rr.Round, rr.EnergyGlobalJ, total)
	}
	l.rounds++
}

// Every round's EnergyByCategory equals the ledger bit for bit, and
// EnergyGlobalJ their sum in category order: with and without a
// deadline that drops stragglers, with a fleet size that is not a
// multiple of 64, and with every device selected.
func TestEnergyLedgerMatchesRound(t *testing.T) {
	big := dirtyConfig()
	big.Fleet = device.NewFleet(device.PaperComposition().Scale(130))
	big.Partition = data.IID(len(big.Fleet), big.Workload.NumClasses, big.Workload.SamplesPerDevice)
	for _, tc := range []struct {
		name string
		cfg  Config
		k    int
		drop bool
	}{
		{"ideal 20", testConfig(), 5, false},
		{"deadline 33", dirtyConfig(), 10, true},
		{"deadline 130", big, 20, true},
		{"whole fleet 33", dirtyConfig(), 33, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxRounds = 30
			cfg.StopAtConvergence = false
			l := &ledger{Static: NewStatic(Params{B: 4, E: 20, K: tc.k}), t: t}
			Run(cfg, l)
			if l.rounds != cfg.MaxRounds {
				t.Fatalf("observed %d rounds, want %d", l.rounds, cfg.MaxRounds)
			}
			if tc.drop != (l.drops > 0) {
				t.Errorf("%d participants dropped; want drops: %v", l.drops, tc.drop)
			}
		})
	}
}

// mixedIdleFleet is 13 devices whose idle draws vary inside a
// category: twelve High devices drawing A,A,B,A,B,B,B,A,A,A,B,A watts
// (idle runs of one, two and three devices), a single Mid device at
// id 4 between them, and no Low device.
func mixedIdleFleet() []device.Device {
	profiles := device.Profiles()
	var fleet []device.Device
	for _, c := range "AABAMBBBAAABA" {
		p := profiles[device.High]
		switch c {
		case 'A':
			p.IdleWatts = 0.35
		case 'B':
			p.IdleWatts = 0.1
		case 'M':
			p = profiles[device.Mid]
		}
		fleet = append(fleet, device.Device{ID: len(fleet), Profile: p})
	}
	return fleet
}

// Every round's energy equals the ledger's bit for bit when idle draws
// vary inside a category, so one category holds several idle runs: with
// one participant, half the fleet and the whole fleet (every run then
// has no non-participant), under a deadline that drops stragglers.
func TestEnergyLedgerMatchesMixedIdleDraws(t *testing.T) {
	cfg := dirtyConfig()
	cfg.Fleet = mixedIdleFleet()
	n := len(cfg.Fleet)
	cfg.Partition = data.IID(n, cfg.Workload.NumClasses, cfg.Workload.SamplesPerDevice)
	cfg.MaxRounds = 30
	for _, k := range []int{1, n / 2, n} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			l := &ledger{Static: NewStatic(Params{B: 4, E: 20, K: k}), t: t}
			a := NewArena()
			res := RunWithArena(cfg, l, a)
			// AA|B|A|BBB|AAA|B|A
			if got := len(a.idle[device.High]); got != 7 {
				t.Fatalf("High holds %d idle runs, want 7", got)
			}
			if l.rounds != cfg.MaxRounds {
				t.Fatalf("observed %d rounds, want %d", l.rounds, cfg.MaxRounds)
			}
			if k > 1 && l.drops == 0 {
				t.Errorf("no participant dropped, so the dropped-participant count went unchecked")
			}
			if _, ok := res.EnergyByCategory[device.Low]; ok || len(res.EnergyByCategory) != 2 {
				t.Errorf("energy split %v, want the High and Mid categories only", res.EnergyByCategory)
			}
		})
	}
}
