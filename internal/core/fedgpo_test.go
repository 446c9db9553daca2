package core

import (
	"math"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/rl"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

func TestRewardEq1(t *testing.T) {
	cfg := DefaultRewardConfig()
	// No improvement: punished with acc - 100 regardless of energy.
	if got := Reward(cfg, 50, 50, 0, 0); got != -50 {
		t.Errorf("flat accuracy reward = %v, want -50", got)
	}
	if got := Reward(cfg, 40, 55, 1, 1); got != -60 {
		t.Errorf("regression reward = %v, want -60", got)
	}
	// Improvement: energy subtracts, accuracy and (gap-relative)
	// improvement add.
	got := Reward(cfg, 60, 50, 10, 5)
	want := -10.0 - 5 + cfg.Alpha*60 + cfg.Beta*(100*(60.0-50)/(100-50))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("improvement reward = %v, want %v", got, want)
	}
	// Gap-relative: closing 10 points from 85 (2/3 of headroom) beats
	// closing 10 points from 50 (1/5 of headroom).
	if Reward(cfg, 95, 85, 10, 5) <= Reward(cfg, 60, 50, 10, 5) {
		t.Error("improvement should be measured against the remaining gap")
	}
	// Lower energy yields strictly higher reward.
	if Reward(cfg, 60, 50, 5, 2) <= Reward(cfg, 60, 50, 10, 5) {
		t.Error("cheaper round should score higher")
	}
}

func TestEnergyNormalizerNominalTen(t *testing.T) {
	n := NewEnergyNormalizer()
	// A constant series normalizes to exactly 10.
	for i := 0; i < 50; i++ {
		v := n.Normalize(500)
		if math.Abs(v-10) > 1e-9 {
			t.Fatalf("constant series normalized to %v, want 10", v)
		}
	}
	// A cheaper-than-usual round scores below 10.
	if v := n.Normalize(250); v >= 10 {
		t.Errorf("cheap round normalized to %v, want < 10", v)
	}
	if n.Normalize(-5) != 0 {
		t.Error("negative energy should clamp to 0")
	}
}

func fedgpoConfig(seed int64) fl.Config {
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
		Seed:                   seed,
		StopAtConvergence:      true,
	}
}

func TestFedGPOConvergesOnIID(t *testing.T) {
	res := fl.Run(fedgpoConfig(1), New(DefaultConfig()))
	if !res.Converged {
		t.Fatalf("FedGPO did not converge (acc=%v after %d rounds)",
			res.FinalAccuracy, res.RoundsExecuted)
	}
	if res.Controller != "FedGPO" {
		t.Errorf("controller name = %q", res.Controller)
	}
}

func TestFedGPOAssignsPerDeviceParams(t *testing.T) {
	// Under interference, FedGPO must produce *different* local
	// parameters across devices in the same round — that is the core
	// per-device mechanism.
	cfg := fedgpoConfig(2)
	cfg.Interference = interfere.Paper()
	cfg.MaxRounds = 60
	cfg.StopAtConvergence = false

	ctrl := New(DefaultConfig())
	distinct := false
	probe := &resultProbe{inner: ctrl, onResult: func(rr fl.RoundResult) {
		seen := map[fl.LocalParams]bool{}
		for _, p := range rr.Participants {
			seen[p.Local] = true
		}
		if len(seen) > 1 {
			distinct = true
		}
	}}
	fl.Run(cfg, probe)
	if !distinct {
		t.Error("FedGPO never assigned heterogeneous per-device parameters")
	}
}

func TestFedGPOBeatsWorstStaticOnEnergy(t *testing.T) {
	// Sanity floor: the learned policy must clearly beat an
	// intentionally bad fixed configuration on PPW.
	cfg := fedgpoConfig(3)
	cfg.MaxRounds = 300
	bad := fl.Run(cfg, fl.NewStatic(fl.Params{B: 32, E: 20, K: 20}))
	good := fl.Run(cfg, New(DefaultConfig()))
	if good.PPW <= bad.PPW {
		t.Errorf("FedGPO PPW %v should beat bad static %v", good.PPW, bad.PPW)
	}
}

func TestFedGPODeterministicPerSeed(t *testing.T) {
	a := fl.Run(fedgpoConfig(7), New(DefaultConfig()))
	b := fl.Run(fedgpoConfig(7), New(DefaultConfig()))
	if a.EnergyToConvergenceJ != b.EnergyToConvergenceJ ||
		a.ConvergenceRound != b.ConvergenceRound {
		t.Error("same-seed FedGPO runs diverged")
	}
}

func TestRewardHistoryTracksRounds(t *testing.T) {
	cfg := fedgpoConfig(4)
	cfg.MaxRounds = 40
	cfg.StopAtConvergence = false
	ctrl := New(DefaultConfig())
	fl.Run(cfg, ctrl)
	h := ctrl.RewardHistory()
	if len(h) != 40 {
		t.Fatalf("reward history length = %d, want 40", len(h))
	}
	// Rewards should trend upward as the policy learns: the mean of
	// the last 10 rounds should beat the first 10.
	early := stats.Mean(h[:10])
	late := stats.Mean(h[len(h)-10:])
	if late <= early {
		t.Errorf("reward did not improve: early %v, late %v", early, late)
	}
}

func TestStatsAndMemoryAccounting(t *testing.T) {
	cfg := fedgpoConfig(5)
	cfg.MaxRounds = 30
	cfg.StopAtConvergence = false
	ctrl := New(DefaultConfig())
	fl.Run(cfg, ctrl)
	s := ctrl.Stats()
	if s.Tables < 2 { // at least one category table + the K table
		t.Errorf("tables = %d, want >= 2", s.Tables)
	}
	if s.States == 0 || s.Updates == 0 {
		t.Errorf("no learning happened: %+v", s)
	}
	if s.MemoryBytes <= 0 || s.MemoryBytes > 4<<20 {
		t.Errorf("memory estimate %d out of plausible range (paper: ~0.4MB)", s.MemoryBytes)
	}
	ov := ctrl.Overhead()
	if ov.Rounds != 30 {
		t.Errorf("overhead rounds = %d", ov.Rounds)
	}
	if ov.ChooseParams <= 0 || ov.IdentifyStates <= 0 || ov.CalcReward <= 0 {
		t.Error("overhead phases should all be non-zero")
	}
}

// The §5.4 timers sample one round in 16 (the controller's rounds 1,
// 17, 33, ...) and scale to every round: runs of 1, 16, 17 and 30
// rounds, timed once or twice, report exact Rounds and non-zero
// phases.
func TestOverheadSampledRoundsScaleToEveryRound(t *testing.T) {
	for _, rounds := range []int{1, 16, 17, 30} {
		cfg := fedgpoConfig(5)
		cfg.MaxRounds = rounds
		cfg.StopAtConvergence = false
		ctrl := New(DefaultConfig())
		fl.Run(cfg, ctrl)
		ov := ctrl.Overhead()
		if ov.Rounds != rounds {
			t.Errorf("%d rounds: Overhead().Rounds = %d", rounds, ov.Rounds)
		}
		if ov.IdentifyStates <= 0 || ov.ChooseParams <= 0 || ov.CalcReward <= 0 || ov.UpdateTables <= 0 {
			t.Errorf("%d rounds: a phase reads zero: %+v", rounds, ov)
		}
	}
}

func TestPerDeviceTablesVariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerDeviceTables = true
	ctrl := New(cfg)
	if ctrl.Name() != "FedGPO(per-device)" {
		t.Errorf("name = %q", ctrl.Name())
	}
	run := fedgpoConfig(6)
	run.MaxRounds = 30
	run.StopAtConvergence = false
	fl.Run(run, ctrl)
	shared := New(DefaultConfig())
	run2 := fedgpoConfig(6)
	run2.MaxRounds = 30
	run2.StopAtConvergence = false
	fl.Run(run2, shared)
	// Per-device tables shard the same experience across many more
	// tables.
	if ctrl.Stats().Tables <= shared.Stats().Tables {
		t.Errorf("per-device variant should hold more tables: %d vs %d",
			ctrl.Stats().Tables, shared.Stats().Tables)
	}
}

func TestFreezeStopsExploration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FreezeThreshold = 1e9 // absurdly permissive: freeze ASAP
	cfg.FreezeMinUpdates = 10
	ctrl := New(cfg)
	run := fedgpoConfig(8)
	run.MaxRounds = 50
	run.StopAtConvergence = false
	fl.Run(run, ctrl)
	frozen, round := ctrl.Frozen()
	if !frozen {
		t.Fatal("controller should have frozen")
	}
	if round <= 0 || round > 50 {
		t.Errorf("frozen round = %d", round)
	}
}

func TestZeroValueConfigFallsBackToDefaults(t *testing.T) {
	ctrl := New(Config{})
	if ctrl.cfg.RL.LearningRate != DefaultConfig().RL.LearningRate {
		t.Error("zero config should fall back to defaults")
	}
}

// resultProbe forwards controller calls and taps results.
type resultProbe struct {
	inner    fl.Controller
	onResult func(fl.RoundResult)
}

func (p *resultProbe) Name() string                  { return p.inner.Name() }
func (p *resultProbe) Plan(o fl.Observation) fl.Plan { return p.inner.Plan(o) }
func (p *resultProbe) Observe(r fl.RoundResult) {
	p.onResult(r)
	p.inner.Observe(r)
}

// Config.Validate accepts the default and paper operating points and
// rejects each out-of-range, inverted or non-finite field.
func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), {RL: rl.PaperConfig(), Reward: DefaultRewardConfig()}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	bad := map[string]func(*Config){
		"learning rate above 1": func(c *Config) { c.RL.LearningRate = 1.1 },
		"negative discount":     func(c *Config) { c.RL.Discount = -0.1 },
		"epsilon above 1":       func(c *Config) { c.RL.Epsilon = 1.5 },
		"init range inverted":   func(c *Config) { c.RL.InitLo, c.RL.InitHi = 2, 1 },
		"negative alpha":        func(c *Config) { c.Reward.Alpha = -1 },
		"negative beta":         func(c *Config) { c.Reward.Beta = -1 },
		"negative threshold":    func(c *Config) { c.FreezeThreshold = -1 },
		"negative min updates":  func(c *Config) { c.FreezeMinUpdates = -1 },
		"negative freeze round": func(c *Config) { c.FreezeAfterRounds = -1 },
	}
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		for field, set := range map[string]func(*Config){
			"RL.LearningRate": func(c *Config) { c.RL.LearningRate = v },
			"RL.Discount":     func(c *Config) { c.RL.Discount = v },
			"RL.Epsilon":      func(c *Config) { c.RL.Epsilon = v },
			"RL.InitLo":       func(c *Config) { c.RL.InitLo = v },
			"RL.InitHi":       func(c *Config) { c.RL.InitHi = v },
			"Reward.Alpha":    func(c *Config) { c.Reward.Alpha = v },
			"Reward.Beta":     func(c *Config) { c.Reward.Beta = v },
			"FreezeThreshold": func(c *Config) { c.FreezeThreshold = v },
		} {
			bad[field+" "+name] = set
		}
	}
	for name, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
	}
}
