package exp

import (
	"bytes"
	"path/filepath"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

// doorScenario is a small valid scenario: an explicit 12-device mix, so
// a negative size beside it keys, unchecked, as this very fleet.
func doorScenario() ScenarioSpec {
	s := Ideal(workload.CNNMNIST())
	s.Fleet = FleetSpec{Mix: device.FleetComposition{High: 2, Mid: 4, Low: 6}}
	s.MaxRounds = 20
	return s
}

// runLogged runs the batch through runSpecs on rt and returns what the
// result store logged, by key, and the batch's panic value (nil when
// every cell succeeded).
func runLogged(t *testing.T, rt *Runtime, specs []JobSpec) (logged map[string]runtime.Result, panicked any) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := rt.StreamStore(path); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { panicked = recover() }()
		rt.runSpecs(specs)
	}()
	if err := rt.CloseStore(); err != nil {
		t.Fatal(err)
	}
	return readStoreLog(t, path), panicked
}

// Specs that fail validation but would key, unchecked, as a valid cell
// fail with their validation error beside that cell, alone and in
// either order, at one worker and at four, over a cache the valid cell
// is in: the invalid spec is never served the cell's cached result nor
// deduplicated onto it, and the valid cell still reads its own bytes.
func TestInvalidSpecNeverTakesAValidCell(t *testing.T) {
	s := doorScenario()
	static := staticContender(fl.Params{B: 8, E: 10, K: 20}, "")
	valid := simSpec(s, static, 1)
	dir := t.TempDir()
	warm, err := NewRuntime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := runLogged(t, warm, []JobSpec{valid})
	want := resultBytes(t, cold[valid.Key()].Sim)

	for label, mutate := range map[string]func(*ScenarioSpec){
		"negative fleet size":   func(s *ScenarioSpec) { s.Fleet.Size = -5 },
		"zipf partition":        func(s *ScenarioSpec) { s.Partition.Kind = "zipf" },
		"fraction 1.5 on none":  func(s *ScenarioSpec) { s.Interference.ActiveFraction = 1.5 },
		"negative net override": func(s *ScenarioSpec) { s.Network.MeanMbps = -1 },
		"negative none seconds": func(s *ScenarioSpec) { s.Deadline.Seconds = -3 },
	} {
		bad := s
		mutate(&bad)
		verr := bad.Validate()
		if verr == nil {
			t.Fatalf("%s: the spec validates", label)
		}
		invalid := simSpec(bad, static, 1)
		if invalid.Key() == valid.Key() {
			t.Fatalf("%s: the invalid spec keys as its valid twin", label)
		}
		for _, workers := range []int{1, 4} {
			for _, batch := range [][]JobSpec{{invalid}, {valid, invalid}, {invalid, valid}} {
				rt, err := NewRuntime(workers, dir)
				if err != nil {
					t.Fatal(err)
				}
				logged, panicked := runLogged(t, rt, batch)
				if _, ok := panicked.(*JobError); !ok {
					t.Errorf("%s, %d workers, %d cells: the batch did not fail with a *JobError (%v)", label, workers, len(batch), panicked)
				}
				got := logged[invalid.Key()]
				if got.Err != verr.Error() || got.Provenance == runtime.ProvenanceReplayed {
					t.Errorf("%s, %d workers, %d cells: invalid cell Err %q, provenance %q; want %q, never replayed",
						label, workers, len(batch), got.Err, got.Provenance, verr)
				}
				if len(batch) == 1 {
					continue
				}
				twin := logged[valid.Key()]
				if twin.Err != "" || twin.Provenance != runtime.ProvenanceReplayed ||
					!bytes.Equal(resultBytes(t, twin.Sim), want) {
					t.Errorf("%s, %d workers: the valid cell lost its cached result (Err %q, provenance %q)",
						label, workers, twin.Err, twin.Provenance)
				}
			}
		}
	}
}

// Each unknown kind (network, interference, deadline, contender) fails
// its batch with a *JobError after the rest of the batch drained, at
// one worker and at four, with the Err a lone run of its job reports.
func TestUnknownKindsFailAsCells(t *testing.T) {
	s := doorScenario()
	static := staticContender(fl.Params{B: 8, E: 10, K: 20}, "")
	with := func(mutate func(*ScenarioSpec)) JobSpec {
		bad := s
		mutate(&bad)
		return simSpec(bad, static, 1)
	}
	valid := simSpec(s, static, 1)
	for label, sp := range map[string]JobSpec{
		"network":      with(func(s *ScenarioSpec) { s.Network.Kind = "5g" }),
		"interference": with(func(s *ScenarioSpec) { s.Interference.Kind = "bogus" }),
		"deadline":     with(func(s *ScenarioSpec) { s.Deadline.Kind = "soft" }),
		"contender":    simSpec(s, ContenderSpec{Type: "bogus"}, 1),
	} {
		lone, err := NewRuntime(1, "")
		if err != nil {
			t.Fatal(err)
		}
		alone := lone.RunJob(lone.Job(sp))
		if alone.Err == "" {
			t.Fatalf("%s: a lone run succeeded", label)
		}
		for _, workers := range []int{1, 4} {
			rt, err := NewRuntime(workers, "")
			if err != nil {
				t.Fatal(err)
			}
			logged, panicked := runLogged(t, rt, []JobSpec{sp, valid})
			if je, ok := panicked.(*JobError); !ok || je.Key != alone.Key || je.Err != alone.Err {
				t.Errorf("%s, %d workers: the batch panicked with %v, want a *JobError for %s: %s",
					label, workers, panicked, alone.Key, alone.Err)
			}
			if got := logged[alone.Key].Err; got != alone.Err {
				t.Errorf("%s, %d workers: Err %q, want its lone run's %q", label, workers, got, alone.Err)
			}
			if got, ok := logged[valid.Key()]; !ok || got.Err != "" {
				t.Errorf("%s, %d workers: the valid cell did not drain (logged %v, Err %q)", label, workers, ok, got.Err)
			}
		}
	}
}

// Checking a spec allocates nothing, for every preset under a warm
// FedGPO contender: every job compiles through the check.
func TestSpecCheckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, p := range Presets() {
		s := p.Build(workload.CNNMNIST())
		sp := simSpec(s, fedgpoWarmContender(s), 1)
		if n := testing.AllocsPerRun(100, func() { _ = sp.validate() }); n != 0 {
			t.Errorf("%s: checking the spec allocates %v times", p.Name, n)
		}
	}
}

// BenchmarkJobCompile is the cost of compiling one spec into its job
// (Runtime.Job): the check, the key and, for a warm FedGPO cell, its
// snapshot key. The wire encoding is not part of it: the executor
// builds it only for a job it dispatches.
func BenchmarkJobCompile(b *testing.B) {
	s := Tiny().apply(Realistic(workload.CNNMNIST()))
	rt, err := NewRuntime(1, "")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sp   JobSpec
	}{
		{"static", simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1)},
		{"fedgpo-warm", simSpec(s, fedgpoWarmContender(s), 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rt.Job(c.sp)
			}
		})
	}
}
