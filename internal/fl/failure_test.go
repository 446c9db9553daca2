package fl

import (
	"math"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

// Failure-injection and edge-case tests for the round simulator.

func TestAllParticipantsDroppedStillAdvances(t *testing.T) {
	// A deadline below every participant's time drops everyone; the
	// round must complete (no progress, full energy bill) and the run
	// must not converge.
	cfg := testConfig()
	cfg.DeadlineSec = 0.001
	cfg.MaxRounds = 10
	cfg.StopAtConvergence = false
	var seen []RoundResult
	res := Run(cfg, &probeController{inner: NewStatic(Params{B: 8, E: 10, K: 10}), sink: &seen})
	if res.Converged {
		t.Fatal("nothing aggregated; must not converge")
	}
	for _, rr := range seen {
		if rr.AggregatedK != 0 {
			t.Fatalf("round %d aggregated %d updates past an impossible deadline",
				rr.Round, rr.AggregatedK)
		}
		if rr.EnergyGlobalJ <= 0 {
			t.Fatal("dropped rounds still burn energy")
		}
	}
	if res.FinalAccuracy > cfg.Workload.Learn.InitialAccuracy+0.05 {
		t.Errorf("accuracy advanced (%v) with zero aggregated data", res.FinalAccuracy)
	}
}

func TestChronicDropsCapAccuracy(t *testing.T) {
	// A deadline that systematically drops a fixed config's slow
	// devices must cap the reachable accuracy below the clean run's.
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(40))
	base := Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.None(),
		MaxRounds:              400,
		AggregationOverheadSec: 10,
		Seed:                   1,
		StopAtConvergence:      false,
	}
	clean := Run(base, NewStatic(Params{B: 8, E: 10, K: 10}))

	// Deadline between the fast categories' time and L's time: L's
	// data is chronically excluded.
	low, mid := device.Profiles()[device.Low], device.Profiles()[device.Mid]
	lowT := device.ComputeSeconds(&low, w.Shape, 8, 10, w.SamplesPerDevice, device.Interference{})
	midT := device.ComputeSeconds(&mid, w.Shape, 8, 10, w.SamplesPerDevice, device.Interference{})
	dropping := base
	dropping.DeadlineSec = (lowT + midT) / 2
	res := Run(dropping, NewStatic(Params{B: 8, E: 10, K: 10}))
	if res.FinalAccuracy >= clean.FinalAccuracy-0.005 {
		t.Errorf("chronic drops should cap accuracy: %v vs clean %v",
			res.FinalAccuracy, clean.FinalAccuracy)
	}
}

func TestControllerReturningAbsurdLocalParamsIsClamped(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 3
	cfg.StopAtConvergence = false
	ctrl := &hostileController{}
	var seen []RoundResult
	Run(cfg, &probeController{inner: ctrl, sink: &seen})
	for _, rr := range seen {
		for _, p := range rr.Participants {
			if p.Local.B < 1 || p.Local.E < 1 {
				t.Fatalf("simulator accepted non-positive local params %+v", p.Local)
			}
		}
	}
}

func TestSingleDeviceFleet(t *testing.T) {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.FleetComposition{High: 1})
	cfg := Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(1, w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.None(),
		MaxRounds:              50,
		AggregationOverheadSec: 10,
		Seed:                   1,
		StopAtConvergence:      false,
	}
	res := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 20})) // K clamps to 1
	if res.RoundsExecuted != 50 {
		t.Fatalf("run did not complete: %d rounds", res.RoundsExecuted)
	}
	for _, rec := range res.History {
		if rec.PlannedK != 1 {
			t.Fatalf("K = %d on a 1-device fleet", rec.PlannedK)
		}
	}
}

func TestHistoryCumulativeConsistency(t *testing.T) {
	cfg := testConfig()
	res := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	var cumT, cumE float64
	for i, rec := range res.History {
		cumT += rec.RoundSeconds
		cumE += rec.EnergyJ
		if res.Converged && rec.Round == res.ConvergenceRound {
			if math.Abs(cumT-res.TimeToConvergenceSec) > 1e-6 {
				t.Errorf("cumulative time at convergence %v != reported %v",
					cumT, res.TimeToConvergenceSec)
			}
			if math.Abs(cumE-res.EnergyToConvergenceJ) > 1e-6 {
				t.Errorf("cumulative energy at convergence %v != reported %v",
					cumE, res.EnergyToConvergenceJ)
			}
		}
		if rec.Round != i+1 {
			t.Fatalf("history round numbering broken at %d", i)
		}
	}
}

func TestEnergyByCategorySumsToTotals(t *testing.T) {
	cfg := testConfig()
	res := Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	var catSum float64
	for _, cat := range device.Categories() {
		catSum += res.EnergyByCategory[cat]
	}
	var histSum float64
	for _, rec := range res.History {
		histSum += rec.EnergyJ
	}
	if math.Abs(catSum-histSum) > 1e-6*histSum {
		t.Errorf("category energies %v != history total %v", catSum, histSum)
	}
}

func TestAggregationOverheadExtendsRounds(t *testing.T) {
	a := testConfig()
	a.MaxRounds = 5
	a.StopAtConvergence = false
	b := a
	b.AggregationOverheadSec = 25
	ra := Run(a, NewStatic(Params{B: 8, E: 10, K: 10}))
	rb := Run(b, NewStatic(Params{B: 8, E: 10, K: 10}))
	for i := range ra.History {
		diff := rb.History[i].RoundSeconds - ra.History[i].RoundSeconds
		if math.Abs(diff-25) > 1e-9 {
			t.Fatalf("round %d: overhead delta = %v, want 25", i+1, diff)
		}
	}
	if rb.History[0].EnergyJ <= ra.History[0].EnergyJ {
		t.Error("overhead time must cost energy (waiting + idle fleet)")
	}
}

// hostileController returns invalid K and local parameters.
type hostileController struct{}

func (h *hostileController) Name() string { return "hostile" }
func (h *hostileController) Plan(Observation) Plan {
	return Plan{K: -3, Local: func(*device.Device, *DeviceState) LocalParams {
		return LocalParams{B: -8, E: 0}
	}}
}
func (h *hostileController) Observe(RoundResult) {}
