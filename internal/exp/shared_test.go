package exp

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// TestSharedFleetAndPartitionStayUnchanged: every cell of a scenario
// runs on one shared fleet and partition, so no controller may write
// through them. One cell of every contender family runs on a
// scenario's shared values, which must digest the same afterwards.
func TestSharedFleetAndPartitionStayUnchanged(t *testing.T) {
	s := Tiny().apply(RealisticNonIID(workload.CNNMNIST()))
	s.MaxRounds = 60
	// A held arena keeps the process's run memo, and with it the shared
	// fleet and partition, from being collected or replaced mid-test.
	hold := fl.NewArena()
	cfg := s.Config(1)
	fl.RunWithArena(cfg, fl.NewStatic(fl.Params{B: 8, E: 10, K: 10}), hold)
	digest := func(v any) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))) }
	fleetWant, partWant := digest(cfg.Fleet), digest(cfg.Partition)

	rt, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []ContenderSpec{
		staticContender(fl.Params{B: 8, E: 10, K: 20}, ""),
		fedgpoColdContender(),
		fedgpoWarmContender(s),
		{Type: ContBO, Name: "Adaptive (BO)", CtrlSeed: 1},
		{Type: ContGA, Name: "Adaptive (GA)", CtrlSeed: 1},
		{Type: ContFedEX, Name: "FedEX", CtrlSeed: 1},
		{Type: ContABS, Name: "ABS", CtrlSeed: 1},
	} {
		if res := rt.Execute(simSpec(s, c, 1)); res.Err != "" {
			t.Fatalf("%s: %s", c.Type, res.Err)
		}
		again := s.Config(1)
		if &again.Fleet[0] != &cfg.Fleet[0] || &again.Partition.Counts[0] != &cfg.Partition.Counts[0] {
			t.Fatalf("after %s: the scenario's fleet or partition is no longer the shared one", c.Type)
		}
		if digest(cfg.Fleet) != fleetWant {
			t.Errorf("a %s cell changed the shared fleet", c.Type)
		}
		if digest(cfg.Partition) != partWant {
			t.Errorf("a %s cell changed the shared partition", c.Type)
		}
	}
	runtime.KeepAlive(hold)
}
