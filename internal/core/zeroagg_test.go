package core

import (
	"encoding/json"
	"math"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

// smallConfig builds a fast 20-device deployment for edge-case runs.
func smallConfig(seed int64) fl.Config {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(20))
	return fl.Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.None(),
		MaxRounds:              50,
		AggregationOverheadSec: 10,
		Seed:                   seed,
		StopAtConvergence:      true,
	}
}

func assertFinite(t *testing.T, label string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("%s is not finite: %v", label, v)
	}
}

// Regression test for the zero-aggregation edge: a deadline below
// every participant's round time drops all updates every round, so the
// convergence model sees K=0, zero data fraction and an empty
// aggregate set for the entire run. The audited paths —
// aggregateInputs (empty-set skew/coverage), the convergence tracker,
// and both FedGPO controllers (cold learning and pretrained/frozen) —
// must carry the run to MaxRounds without panicking or emitting
// NaN/Inf energy, accuracy, or PPW.
func TestImpossibleDeadlineZeroAggregationRuns(t *testing.T) {
	cfg := smallConfig(1)
	cfg.DeadlineSec = 0.001

	warmCfg := smallConfig(997)
	warmCfg.DeadlineSec = 0.001
	warmCfg.MaxRounds = 30

	controllers := map[string]fl.Controller{
		"cold": New(DefaultConfig()),
		"warm": Pretrained(DefaultConfig(), warmCfg),
	}
	for name, ctrl := range controllers {
		res := fl.Run(cfg, ctrl)
		if res.Converged {
			t.Errorf("%s: converged with zero aggregated data", name)
		}
		if res.RoundsExecuted != cfg.MaxRounds {
			t.Errorf("%s: executed %d rounds, want the full %d", name, res.RoundsExecuted, cfg.MaxRounds)
		}
		assertFinite(t, name+" FinalAccuracy", res.FinalAccuracy)
		assertFinite(t, name+" TimeToConvergenceSec", res.TimeToConvergenceSec)
		assertFinite(t, name+" EnergyToConvergenceJ", res.EnergyToConvergenceJ)
		assertFinite(t, name+" PPW", res.PPW)
		assertFinite(t, name+" AvgRoundSeconds", res.AvgRoundSeconds)
		if res.EnergyToConvergenceJ <= 0 {
			t.Errorf("%s: all-dropped rounds still burn energy, got %v", name, res.EnergyToConvergenceJ)
		}
		for _, rec := range res.History {
			if rec.AggregatedK != 0 {
				t.Fatalf("%s: round %d aggregated %d updates past an impossible deadline",
					name, rec.Round, rec.AggregatedK)
			}
			assertFinite(t, name+" round accuracy", rec.Accuracy)
			assertFinite(t, name+" round energy", rec.EnergyJ)
		}
		for cat, e := range res.EnergyByCategory {
			assertFinite(t, name+" energy["+cat.String()+"]", e)
		}
	}
}

// A controller restored from a snapshot must behave identically no
// matter whether the snapshot came straight from the warm-up or
// through its binary form (the pretrained-controller cache stores and
// ships snapshots that way) — and two restorations of the same
// snapshot must produce bit-identical evaluation runs.
func TestSnapshotRoundTripBehavesIdentically(t *testing.T) {
	warmCfg := smallConfig(997)
	warmCfg.MaxRounds = 40
	cfg := DefaultConfig()
	snap := PretrainSnapshot(cfg, warmCfg)
	if len(snap.LocalTables) == 0 || snap.KTable == nil {
		t.Fatal("warm-up produced an empty snapshot")
	}
	if !snap.Frozen {
		t.Fatal("pretrained snapshot must be frozen")
	}

	var viaBinary Snapshot
	if err := viaBinary.UnmarshalBinary(snap.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}

	evalCfg := smallConfig(1)
	runWith := func(s Snapshot) string {
		res := fl.Run(evalCfg, FromSnapshot(cfg, s))
		res.ControllerOverheadSec = 0 // wall-clock, never reproducible
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	direct := runWith(snap)
	if again := runWith(snap); again != direct {
		t.Error("two restorations of the same snapshot diverged")
	}
	if roundTripped := runWith(viaBinary); roundTripped != direct {
		t.Error("binary round-tripped snapshot behaves differently from the original")
	}

	frozen, _ := FromSnapshot(cfg, snap).Frozen()
	if !frozen {
		t.Error("restored controller must come back frozen")
	}
}
