package core

import (
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

func TestFeasibleActionsEnvelopeShape(t *testing.T) {
	c := New(DefaultConfig())
	w := workload.CNNMNIST()
	profiles := device.Profiles()

	// The mid-category reference action (8, 10) must be feasible on M.
	allowedM := c.feasibleActions(profiles[device.Mid], w, device.Interference{})
	idx := indexOfLocal(t, c, fl.LocalParams{B: 8, E: 10})
	if !allowedM[idx] {
		t.Fatal("the reference action must be within the envelope on M")
	}
	// The heaviest small-batch action (1, 20) must be pruned on L —
	// that is the monster the envelope exists to cut.
	allowedL := c.feasibleActions(profiles[device.Low], w, device.Interference{})
	if allowedL[indexOfLocal(t, c, fl.LocalParams{B: 1, E: 20})] {
		t.Error("(1,20) on a low-end device should be pruned")
	}
	// Heavy interference tightens the set further.
	heavyIntf := c.feasibleActions(profiles[device.Low], w,
		device.Interference{CPUUsage: 0.9, MemUsage: 0.6})
	nClean, nIntf := countTrue(allowedL), countTrue(heavyIntf)
	if nIntf > nClean {
		t.Errorf("interference should not widen the envelope: %d > %d", nIntf, nClean)
	}
	// Something must always remain selectable.
	if nIntf == 0 {
		t.Error("envelope must never be empty")
	}
}

func TestEnvelopeFloorCutsIdleWaitActions(t *testing.T) {
	// The fastest H actions finish far before the equalization target
	// and should be pruned for a clean H device.
	c := New(DefaultConfig())
	w := workload.CNNMNIST()
	allowedH := c.feasibleActions(device.Profiles()[device.High], w, device.Interference{})
	if allowedH[indexOfLocal(t, c, fl.LocalParams{B: 32, E: 1})] {
		t.Error("(32,1) on a high-end device idles most of the round; the floor should cut it")
	}
}

func TestReferenceEFollowsArchitecture(t *testing.T) {
	if referenceE(workload.CNNMNIST()) != 10 {
		t.Error("conv workloads anchor at E=10")
	}
	if referenceE(workload.LSTMShakespeare()) != 20 {
		t.Error("recurrent workloads anchor at E=20 (paper §2.1)")
	}
}

func TestDeadlineCapsEnvelope(t *testing.T) {
	w := workload.CNNMNIST()
	free := New(DefaultConfig())
	capped := New(DefaultConfig())
	capped.deadline = 60 // very tight server deadline
	p := device.Profiles()[device.Mid]
	nFree := countTrue(free.feasibleActions(p, w, device.Interference{}))
	nCapped := countTrue(capped.feasibleActions(p, w, device.Interference{}))
	if nCapped >= nFree {
		t.Errorf("a tight deadline should shrink the envelope: %d >= %d", nCapped, nFree)
	}
	if nCapped == 0 {
		t.Error("even a tight deadline must leave a runnable action")
	}
}

func TestObserveDeadlineInvalidatesMasks(t *testing.T) {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(20))
	cfg := fl.Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.None(),
		MaxRounds:              5,
		AggregationOverheadSec: 10,
		Seed:                   1,
	}
	ctrl := New(DefaultConfig())
	fl.Run(cfg, ctrl) // no deadline
	if ctrl.deadline != 0 {
		t.Fatalf("observed deadline = %v, want 0", ctrl.deadline)
	}
	cfg.DeadlineSec = 90
	fl.Run(cfg, ctrl) // same controller, new deadline
	if ctrl.deadline != 90 {
		t.Fatalf("observed deadline = %v, want 90", ctrl.deadline)
	}
}

func TestDynFeasibleCachesPerBand(t *testing.T) {
	c := New(DefaultConfig())
	w := workload.CNNMNIST()
	d := device.Device{ID: 0, Profile: device.Profiles()[device.Low]}
	stA := fl.DeviceState{Interference: device.Interference{CPUUsage: 0.30}}
	stB := fl.DeviceState{Interference: device.Interference{CPUUsage: 0.60}}
	mA := c.dynFeasible(&d, &w, &stA)
	mB := c.dynFeasible(&d, &w, &stB)
	// Same Table-1 band (medium) -> same cached mask object.
	if &mA[0] != &mB[0] {
		t.Error("same-band interference should hit the mask cache")
	}
	stC := fl.DeviceState{Interference: device.Interference{CPUUsage: 0.90}}
	mC := c.dynFeasible(&d, &w, &stC)
	if countTrue(mC) > countTrue(mA) {
		t.Error("heavier interference band should not widen the feasible set")
	}
	cached := 0
	for _, m := range c.dynMasks {
		if m != nil {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("mask cache entries = %d, want 2", cached)
	}
}

func TestBandMidpointsOrdered(t *testing.T) {
	if !(bandMidpoint('n') < bandMidpoint('s') &&
		bandMidpoint('s') < bandMidpoint('m') &&
		bandMidpoint('m') < bandMidpoint('l')) {
		t.Error("band midpoints must be ordered n < s < m < l")
	}
}

func TestPretrainedControllerIsFrozen(t *testing.T) {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(20))
	warm := fl.Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.None(),
		MaxRounds:              40,
		AggregationOverheadSec: 10,
		Seed:                   999,
	}
	ctrl := Pretrained(DefaultConfig(), warm)
	frozen, _ := ctrl.Frozen()
	if !frozen {
		t.Fatal("pretrained controller must come back frozen")
	}
	if ctrl.Stats().Updates == 0 {
		t.Fatal("pretraining should have produced Q-table updates")
	}
}

func indexOfLocal(t *testing.T, c *Controller, lp fl.LocalParams) int {
	t.Helper()
	for i, a := range c.localActions {
		if a == lp {
			return i
		}
	}
	t.Fatalf("action %v not in grid", lp)
	return -1
}

func countTrue(m []bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}
