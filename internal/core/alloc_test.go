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

// lastRound wraps a controller and keeps deep copies of the last
// round's observation and result, so the round can be replayed after
// the run's arena has moved on.
type lastRound struct {
	fl.Controller
	obs fl.Observation
	res fl.RoundResult
}

func (l *lastRound) Plan(obs fl.Observation) fl.Plan {
	l.obs = obs
	l.obs.States = append([]fl.DeviceState(nil), obs.States...)
	l.obs.PrevParticipants = append([]int(nil), obs.PrevParticipants...)
	return l.Controller.Plan(obs)
}

func (l *lastRound) Observe(res fl.RoundResult) {
	l.res = res
	l.res.Participants = append([]fl.DeviceRound(nil), res.Participants...)
	l.res.States = append([]fl.DeviceState(nil), res.States...)
	l.Controller.Observe(res)
}

// steadyRoundAllocs learns a FedGPO controller through a realistic
// 60-round run, then replays its last round — Plan, one Local call per
// participant, Observe — and returns the heap allocations per replay.
func steadyRoundAllocs(t *testing.T) float64 {
	t.Helper()
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(50))
	cfg := fl.Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.UnstableChannel(),
		Interference:           interfere.Paper(),
		MaxRounds:              60,
		DeadlineSec:            120,
		AggregationOverheadSec: 30,
		Seed:                   5,
	}
	c := New(DefaultConfig())
	rec := &lastRound{Controller: c}
	fl.Run(cfg, rec)
	obs, res := rec.obs, rec.res
	return testing.AllocsPerRun(200, func() {
		plan := c.Plan(obs)
		for _, p := range res.Participants {
			plan.Local(fleet[p.DeviceID], obs.States[p.DeviceID])
		}
		c.Observe(res)
	})
}

// TestFedGPOSteadyRoundAllocs bounds a learned controller's per-round
// heap allocations. This round cost 90 allocations while Plan built a
// fresh (table, state) memo map with concatenated keys, a Local
// closure and a pending-K record, flushPending a fresh successor map,
// SelectOf a candidate slice and every state lookup its key strings.
// With all of that controller-owned or interned, a round on states the
// controller has seen allocates nothing.
func TestFedGPOSteadyRoundAllocs(t *testing.T) {
	if got := steadyRoundAllocs(t); got > 0 {
		t.Errorf("steady-state Plan+Observe makes %v allocations per round, want 0", got)
	}
}
