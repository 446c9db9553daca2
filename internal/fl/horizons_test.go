package fl_test

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"fedgpo/internal/abs"
	"fedgpo/internal/baseline"
	"fedgpo/internal/core"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// horizonControllers builds a fresh controller of each family the
// report compares, for a scenario's run config: Static, the BO, GA,
// FedEX and ABS baselines, and FedGPO cold and warm (Q-tables
// pretrained once on a warm-up run with another seed).
func horizonControllers(t *testing.T, cfg fl.Config) map[string]func() fl.Controller {
	t.Helper()
	warmCfg := cfg
	warmCfg.Seed = 997
	warmCfg.MaxRounds = 60
	ccfg := core.DefaultConfig()
	snap := core.PretrainSnapshot(ccfg, warmCfg)
	return map[string]func() fl.Controller{
		"static":      func() fl.Controller { return fl.NewStatic(fl.Params{B: 8, E: 10, K: 10}) },
		"bo":          func() fl.Controller { return baseline.NewBO(3) },
		"ga":          func() fl.Controller { return baseline.NewGA(3) },
		"fedex":       func() fl.Controller { return baseline.NewFedEX(3) },
		"abs":         func() fl.Controller { return abs.New(abs.Config{Seed: 3}) },
		"fedgpo-cold": func() fl.Controller { return core.New(ccfg) },
		"fedgpo-warm": func() fl.Controller { return core.FromSnapshot(ccfg, snap) },
	}
}

func resultBytes(t *testing.T, r fl.Result) []byte {
	t.Helper()
	b, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// One RunHorizons pass at {1, h, H} gives, byte for byte, what three
// separate runs at budgets 1, h and H give, for every controller
// family on the ideal scenario and on the realistic one, whose auto
// deadline drops stragglers. The h values include one inside the run
// and, for every run that converges before H, one past its
// convergence, which must get the run's final state.
func TestRunHorizonsMatchesSeparateRuns(t *testing.T) {
	const H = 300
	pastConvergence, drops := 0, 0
	for _, s := range []exp.ScenarioSpec{exp.Ideal(workload.CNNMNIST()), exp.Realistic(workload.CNNMNIST())} {
		s.Fleet.Size = 20
		s.MaxRounds = H
		cfg := s.Config(5)
		for name, ctrl := range horizonControllers(t, cfg) {
			full := fl.Run(cfg, ctrl())
			for _, r := range full.History {
				drops += r.Dropped
			}
			ran := len(full.History)
			hs := []int{ran / 2}
			if ran < H {
				hs = append(hs, (ran+H)/2)
				pastConvergence++
			}
			for _, h := range hs {
				horizons := []int{1, h, H}
				got := fl.RunHorizons(cfg, ctrl(), horizons)
				if len(got) != len(horizons) {
					t.Fatalf("%s/%s: %d results for %d horizons", s.Name, name, len(got), len(horizons))
				}
				for i, hz := range horizons {
					c := cfg
					c.MaxRounds = hz
					want := fl.Run(c, ctrl())
					label := fmt.Sprintf("%s/%s horizon %d of %v (run stops at %d)", s.Name, name, hz, horizons, ran)
					if !bytes.Equal(resultBytes(t, got[i]), resultBytes(t, want)) {
						t.Errorf("%s: RunHorizons bytes differ from a separate run", label)
					}
					if got[i].Outcome != want.Outcome {
						t.Errorf("%s: outcome %+v, want %+v", label, got[i].Outcome, want.Outcome)
					}
				}
			}
		}
	}
	if pastConvergence == 0 {
		t.Error("no run converged before its budget, so no horizon past convergence was checked")
	}
	if drops == 0 {
		t.Error("no participant missed a deadline, so no dropped round was checked")
	}
}

// Appending to one horizon's History or writing its energy map leaves
// the other Results of the pass as they were: the Histories they share
// are capped at each budget, and each Result has its own map.
func TestRunHorizonsResultsAreIndependent(t *testing.T) {
	s := exp.Realistic(workload.CNNMNIST())
	s.Fleet.Size = 20
	s.MaxRounds = 40
	cfg := s.Config(2)
	cfg.StopAtConvergence = false
	got := fl.RunHorizons(cfg, fl.NewStatic(fl.Params{B: 8, E: 10, K: 10}), []int{40, 20})
	want := resultBytes(t, got[0])
	_ = append(got[1].History, fl.RoundRecord{Round: -1})
	for cat := range got[1].EnergyByCategory {
		got[1].EnergyByCategory[cat] = -1
	}
	if !bytes.Equal(resultBytes(t, got[0]), want) {
		t.Error("writing the 20-round result changed the 40-round one")
	}
}

// One pass over budgets {short, past convergence, long}, in that order,
// copies its history once: every History is a prefix of the longest
// budget's array, with len equal to cap, so appending to a short one
// copies it and leaves the longest as it was.
func TestRunHorizonsSharesOneHistory(t *testing.T) {
	const H = 300
	s := exp.Ideal(workload.CNNMNIST())
	s.Fleet.Size = 20
	s.MaxRounds = H
	cfg := s.Config(5)
	static := func() fl.Controller { return fl.NewStatic(fl.Params{B: 8, E: 10, K: 10}) }
	ran := len(fl.Run(cfg, static()).History)
	if ran >= H {
		t.Fatalf("the run did not converge before round %d, so no budget lies past convergence", H)
	}
	horizons := []int{ran / 3, (ran + H) / 2, 2 * ran / 3}
	got := fl.RunHorizons(cfg, static(), horizons)
	longest := got[1].History
	if len(longest) != ran || cap(longest) != ran {
		t.Fatalf("past-convergence History: len %d cap %d, want both %d", len(longest), cap(longest), ran)
	}
	want := resultBytes(t, got[1])
	for i, h := range horizons {
		hist := got[i].History
		if len(hist) != min(h, ran) || cap(hist) != len(hist) {
			t.Errorf("budget %d: History len %d cap %d, want both %d", h, len(hist), cap(hist), min(h, ran))
		}
		if unsafe.SliceData(hist) != unsafe.SliceData(longest) {
			t.Errorf("budget %d: History is not a view of the longest budget's array", h)
		}
	}
	grown := append(got[0].History, fl.RoundRecord{Round: -1})
	if unsafe.SliceData(grown) == unsafe.SliceData(longest) {
		t.Error("appending to the short History wrote into the shared array")
	}
	if !bytes.Equal(resultBytes(t, got[1]), want) {
		t.Error("appending to the short History changed the longest budget's result")
	}
}

// A horizon outside [1, MaxRounds] is a programmer error.
func TestRunHorizonsRejectsOutOfRangeHorizon(t *testing.T) {
	s := exp.Ideal(workload.CNNMNIST())
	s.Fleet.Size = 20
	s.MaxRounds = 10
	cfg := s.Config(1)
	for _, h := range []int{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("horizon %d of a 10-round run did not panic", h)
				}
			}()
			fl.RunHorizons(cfg, fl.NewStatic(fl.Params{B: 8, E: 10, K: 10}), []int{h})
		}()
	}
}
