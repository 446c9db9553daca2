package exp

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// The tentpole contract of the scenario refactor: every paper preset,
// expressed through the composable sub-specs, must materialize exactly
// the fl.Config the closure-era constructors built — same fleet, same
// partition draw, same channel and interference parameters, same
// deadline. Byte-identical tables follow from byte-identical configs.
func TestPresetSpecsMatchLegacyAssembly(t *testing.T) {
	w := workload.CNNMNIST()
	legacy := func(nonIID, intf, unstable bool, deadline float64) fl.Config {
		fleet := device.NewFleet(device.PaperComposition().Scale(200))
		var part data.Partition
		if nonIID {
			part = data.Dirichlet(len(fleet), w.NumClasses, w.SamplesPerDevice,
				data.PaperAlpha, stats.NewRNG(42))
		} else {
			part = data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice)
		}
		ch := netsim.StableChannel()
		if unstable {
			ch = netsim.UnstableChannel()
		}
		im := interfere.None()
		if intf {
			im = interfere.Paper()
		}
		// The shared partition carries its per-device signals
		// (fl.SharedPartition), so they are compared too.
		return fl.Config{
			Workload: w, Fleet: fleet, Partition: data.WithSignals(part), Channel: ch,
			Interference: im, MaxRounds: 400, DeadlineSec: deadline,
			AggregationOverheadSec: 30, Seed: 7, StopAtConvergence: true,
		}
	}
	autoDeadline, err := DeadlineSpec{Kind: DeadlineAuto}.resolve(w)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec ScenarioSpec
		want fl.Config
	}{
		{Ideal(w), legacy(false, false, false, 0)},
		{Realistic(w), legacy(false, true, true, autoDeadline)},
		{InterferenceOnly(w), legacy(false, true, false, autoDeadline)},
		{UnstableNetworkOnly(w), legacy(false, false, true, autoDeadline)},
		{NonIIDScenario(w), legacy(true, false, false, 0)},
		{RealisticNonIID(w), legacy(true, true, true, autoDeadline)},
	}
	for _, c := range cases {
		got := c.spec.Config(7)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: spec-built config diverges from the legacy assembly", c.spec.Name)
		}
	}
	if autoDeadline <= 0 {
		t.Error("auto deadline policy resolved to no deadline")
	}
}

// Every preset spec must survive a JSON round-trip losslessly, for
// every workload: same struct, same canonical key.
func TestPresetSpecJSONRoundTrip(t *testing.T) {
	for _, w := range workload.All() {
		for _, p := range Presets() {
			s := p.Build(w)
			b := EncodeScenario(s)
			got, err := DecodeScenarios(b)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, p.Name, err)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], s) {
				t.Errorf("%s/%s: spec does not round-trip", w.Name, p.Name)
			}
			if got[0].cacheKey() != s.cacheKey() {
				t.Errorf("%s/%s: round-tripped key differs", w.Name, p.Name)
			}
		}
	}
	// An array file round-trips too.
	w := workload.CNNMNIST()
	arr, err := json.Marshal([]ScenarioSpec{Ideal(w), Realistic(w)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScenarios(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Name != "realistic" {
		t.Errorf("array decode returned %d specs", len(got))
	}
}

// The guard contract of spec-hashed keys: two scenarios differing only
// in one sub-spec field must get distinct canonical keys even when
// they share a Name; and resolved-default equivalences (zero value vs
// explicit paper default) must share one.
func TestCacheKeyHashesFullScenarioSpec(t *testing.T) {
	w := workload.CNNMNIST()
	base := Realistic(w)
	base.Partition = PartitionSpec{Kind: PartitionDirichlet, Seed: 42}
	mutations := map[string]func(*ScenarioSpec){
		"fleet mix":      func(s *ScenarioSpec) { s.Fleet.Mix = device.FleetComposition{High: 100, Mid: 70, Low: 30} },
		"fleet size":     func(s *ScenarioSpec) { s.Fleet.Size = 120 },
		"alpha":          func(s *ScenarioSpec) { s.Partition.Alpha = 0.5 },
		"partition plan": func(s *ScenarioSpec) { s.Partition = PartitionSpec{} },
		"partition seed": func(s *ScenarioSpec) { s.Partition.Seed = 43 },
		"net std":        func(s *ScenarioSpec) { s.Network.StdMbps = 40 },
		"net kind":       func(s *ScenarioSpec) { s.Network = NetworkSpec{} },
		"intf fraction":  func(s *ScenarioSpec) { s.Interference.ActiveFraction = 0.9 },
		"intf profile":   func(s *ScenarioSpec) { s.Interference.Kind = interfere.HeavyGame().Name },
		"deadline":       func(s *ScenarioSpec) { s.Deadline = DeadlineSpec{Kind: DeadlineFixed, Seconds: 90} },
		"deadline knob":  func(s *ScenarioSpec) { s.Deadline.Margin = 2.0 },
		"rounds":         func(s *ScenarioSpec) { s.MaxRounds = 123 },
	}
	seen := map[string]string{base.cacheKey(): "base"}
	for label, mutate := range mutations {
		s := base
		mutate(&s)
		// Same display name on purpose: the key must still change.
		s.Name = base.Name
		k := s.cacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q on key %q", label, prev, k)
		}
		seen[k] = label
	}
	// Explicit paper defaults share the base key.
	eq := base
	eq.Partition.Alpha = data.PaperAlpha
	eq.Interference.ActiveFraction = interfere.Paper().ActiveFraction
	eq.Deadline.Margin = 1.35
	eq.Deadline.SlackSec = 15
	if eq.cacheKey() != base.cacheKey() {
		t.Errorf("explicit paper defaults should share the key:\n %q\n %q",
			eq.cacheKey(), base.cacheKey())
	}
}

// Sub-spec validation must reject malformed values at decode time.
func TestScenarioSpecValidation(t *testing.T) {
	w := workload.CNNMNIST()
	bad := map[string]ScenarioSpec{
		"bad partition kind": {Workload: w, Partition: PartitionSpec{Kind: "zipf"}},
		"negative alpha":     {Workload: w, Partition: PartitionSpec{Kind: PartitionDirichlet, Alpha: -1}},
		"bad network kind":   {Workload: w, Network: NetworkSpec{Kind: "5g"}},
		"bad intf kind":      {Workload: w, Interference: InterferenceSpec{Kind: "bitcoin-miner"}},
		"fraction over 1":    {Workload: w, Interference: InterferenceSpec{Kind: "web-browsing", ActiveFraction: 1.5}},
		"bad deadline kind":  {Workload: w, Deadline: DeadlineSpec{Kind: "soft"}},
		"negative deadline":  {Workload: w, Deadline: DeadlineSpec{Kind: DeadlineFixed, Seconds: -3}},
		"negative rounds":    {Workload: w, MaxRounds: -1},
		"empty fleet":        {Workload: w, Fleet: FleetSpec{Mix: device.FleetComposition{}, Size: -1}},
	}
	// NaN and ±Inf pass every plain comparison with 0, and no JSON
	// encoder takes them: each float field must reject all three.
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		for field, set := range map[string]func(*ScenarioSpec){
			"alpha":            func(s *ScenarioSpec) { s.Partition = PartitionSpec{Kind: PartitionDirichlet, Alpha: v} },
			"net mean":         func(s *ScenarioSpec) { s.Network.MeanMbps = v },
			"net std":          func(s *ScenarioSpec) { s.Network.StdMbps = v },
			"net floor":        func(s *ScenarioSpec) { s.Network.FloorMbps = v },
			"active fraction":  func(s *ScenarioSpec) { s.Interference = InterferenceSpec{Kind: "web-browsing", ActiveFraction: v} },
			"deadline":         func(s *ScenarioSpec) { s.Deadline = DeadlineSpec{Kind: DeadlineFixed, Seconds: v} },
			"margin":           func(s *ScenarioSpec) { s.Deadline = DeadlineSpec{Kind: DeadlineAuto, Margin: v} },
			"slack":            func(s *ScenarioSpec) { s.Deadline = DeadlineSpec{Kind: DeadlineAuto, SlackSec: v} },
			"base gain":        func(s *ScenarioSpec) { s.Workload.Learn.BaseGain = v },
			"initial accuracy": func(s *ScenarioSpec) { s.Workload.Learn.InitialAccuracy = v },
			"noise std":        func(s *ScenarioSpec) { s.Workload.Learn.NoiseStd = v },
			"model bytes":      func(s *ScenarioSpec) { s.Workload.Shape.ModelBytes = v },
			"memory intensity": func(s *ScenarioSpec) { s.Workload.Shape.MemoryIntensity = v },
		} {
			s := ScenarioSpec{Workload: w}
			set(&s)
			bad[field+" "+name] = s
		}
	}
	rt, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	for label, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", label)
		}
		sp := JobSpec{Kind: KindSim, Scenario: s, Contender: staticContender(fl.Params{B: 8, E: 10, K: 20}, "")}
		if b, err := json.Marshal(sp); err == nil {
			if _, err := DecodeJobSpec(b); err == nil {
				t.Errorf("%s: DecodeJobSpec should reject the malformed scenario", label)
			}
		}
		if j := (&Runtime{}).Job(sp); j.Kind != kindInvalid {
			t.Errorf("%s: compiled as a %q job, want %q", label, j.Kind, kindInvalid)
		}
		if _, ok := batchPanic(rt, sp).(*JobError); !ok {
			t.Errorf("%s: runSpecs panicked with %v, want a *JobError", label, batchPanic(rt, sp))
		}
	}
	// A malformed workload is caught at decode time too, on both
	// decoders.
	if err := (ScenarioSpec{}).Validate(); err == nil {
		t.Error("zero workload should fail validation")
	}
	// Hand-authored scenario files fail loudly on misspelled fields
	// instead of silently simulating a default deployment.
	var loose map[string]any
	if err := json.Unmarshal(EncodeScenario(Ideal(w)), &loose); err != nil {
		t.Fatal(err)
	}
	loose["partitionn"] = map[string]any{"kind": "dirichlet"}
	typo, err := json.Marshal(loose)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenarios(typo); err == nil ||
		!strings.Contains(err.Error(), "partitionn") {
		t.Errorf("DecodeScenarios should reject the unknown field, got %v", err)
	}
}

// batchPanic runs sp alone through rt.runSpecs and returns the batch's
// panic value, nil when the cell succeeded.
func batchPanic(rt *Runtime, sp JobSpec) (panicked any) {
	defer func() { panicked = recover() }()
	rt.runSpecs([]JobSpec{sp})
	return nil
}

// ScenarioMatrix must produce the full cross product in row-major
// order, name each combination by its axis assignments, and reject
// malformed axes.
func TestScenarioMatrix(t *testing.T) {
	w := workload.CNNMNIST()
	specs, err := ScenarioMatrix(w, "fleet=20,H2:M2:L4; alpha=iid,0.5; net=unstable")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("2x2x1 matrix produced %d specs", len(specs))
	}
	if specs[0].Name != "fleet=20/alpha=iid/net=unstable" {
		t.Errorf("first spec name = %q", specs[0].Name)
	}
	// Last axis varies fastest: specs[1] flips alpha, specs[2] flips fleet.
	if specs[1].Partition.Kind != PartitionDirichlet || specs[1].Partition.Alpha != 0.5 {
		t.Errorf("specs[1] partition = %+v", specs[1].Partition)
	}
	if specs[2].Fleet.Mix != (device.FleetComposition{High: 2, Mid: 2, Low: 4}) {
		t.Errorf("specs[2] fleet = %+v", specs[2].Fleet)
	}
	if specs[0].Fleet.Composition().Total() != 20 {
		t.Errorf("specs[0] fleet total = %d", specs[0].Fleet.Composition().Total())
	}
	for _, s := range specs {
		if s.Network.Kind != netsim.KindUnstable {
			t.Errorf("%s: net axis not applied", s.Name)
		}
	}
	// Distinct combinations must address distinct cells.
	keys := map[string]bool{}
	for _, s := range specs {
		keys[s.cacheKey()] = true
	}
	if len(keys) != len(specs) {
		t.Errorf("matrix specs share cache keys: %d distinct for %d specs", len(keys), len(specs))
	}

	more, err := ScenarioMatrix(w, "intf=none,web-browsing@0.25,heavy-game;deadline=none,auto,90;rounds=50")
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 9 {
		t.Fatalf("3x3x1 matrix produced %d specs", len(more))
	}
	if more[1].Deadline.Kind != DeadlineAuto || more[2].Deadline.Seconds != 90 {
		t.Errorf("deadline axis not applied: %+v %+v", more[1].Deadline, more[2].Deadline)
	}
	if more[3].Interference.ActiveFraction != 0.25 {
		t.Errorf("intf fraction not applied: %+v", more[3].Interference)
	}
	if more[0].MaxRounds != 50 {
		t.Errorf("rounds axis not applied: %d", more[0].MaxRounds)
	}

	for _, bad := range []string{
		"", "fleet", "fleet=", "fleet=0", "fleet=H1:M1", "bogus=1",
		"alpha=-0.5", "net=5g", "intf=bogus", "intf=web-browsing@2",
		"deadline=-4", "rounds=0", "fleet=20;fleet=30", "alpha=iid,,0.5",
	} {
		if _, err := ScenarioMatrix(w, bad); err == nil {
			t.Errorf("matrix %q should fail to parse", bad)
		}
	}
}

// A matrix whose cross product exceeds maxMatrixCells is rejected
// before any spec is built, however many cells it asks for; the
// largest allowed one builds.
func TestScenarioMatrixBoundsCrossProduct(t *testing.T) {
	w := workload.CNNMNIST()
	axis := func(name string, n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i + 1)
		}
		return name + "=" + strings.Join(vals, ",")
	}
	// 10^20 cells: a plain product would wrap around.
	huge := strings.Join([]string{axis("fleet", 1e5), axis("rounds", 1e5), axis("deadline", 1e5), axis("alpha", 1e5)}, ";")
	for _, bad := range []string{
		huge,
		axis("fleet", 400) + ";" + axis("rounds", 251),
	} {
		if _, err := ScenarioMatrix(w, bad); err == nil || !strings.Contains(err.Error(), "cells") {
			t.Errorf("a %d-byte matrix over the cell bound: err = %v, want a cell-count error", len(bad), err)
		}
	}
	specs, err := ScenarioMatrix(w, axis("fleet", 400)+";"+axis("rounds", 250))
	if err != nil || len(specs) != maxMatrixCells {
		t.Errorf("a %d-cell matrix: %d specs, err %v", maxMatrixCells, len(specs), err)
	}
}

// The -list-scenarios data source: every preset must be listed and
// build a valid spec for every workload.
func TestPresetsCoverScenarios(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Presets() {
		names[p.Name] = true
		for _, w := range workload.All() {
			s := p.Build(w)
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%s: %v", p.Name, w.Name, err)
			}
			if s.Name != p.Name {
				t.Errorf("preset %q builds scenario named %q", p.Name, s.Name)
			}
		}
	}
	for _, want := range []string{"ideal", "realistic", "interference",
		"unstable-network", "non-iid", "realistic-non-iid"} {
		if !names[want] {
			t.Errorf("preset %q missing", want)
		}
	}
}

// FuzzDecodeScenarios feeds arbitrary bytes to the -scenario-file
// decoder: no input panics, every accepted spec passes Validate and
// materializes through Config, and EncodeScenario followed by
// DecodeScenarios gives back the same cache identity.
func FuzzDecodeScenarios(f *testing.F) {
	w := workload.LSTMShakespeare()
	for _, p := range Presets() {
		f.Add(EncodeScenario(p.Build(w)))
	}
	matrix, err := ScenarioMatrix(w, "fleet=20,H1:M2:L3;alpha=iid,0.5;net=stable,unstable;intf=none,web-browsing;deadline=none,auto;rounds=60")
	if err != nil {
		f.Fatal(err)
	}
	all, err := json.Marshal(matrix)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"workload":{"name":"x"},"fleet":{"size":-1}}`))
	f.Add([]byte(`{"workload":{},"maxRounds":1e9}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		specs, err := DecodeScenarios(b)
		if err != nil {
			return
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted spec fails Validate: %v\n%s", err, b)
			}
			back, err := DecodeScenarios(EncodeScenario(s))
			if err != nil || len(back) != 1 {
				t.Fatalf("accepted spec does not re-decode: %v\n%s", err, EncodeScenario(s))
			}
			if got, want := back[0].cacheKey(), s.cacheKey(); got != want {
				t.Fatalf("re-decoded spec addresses %q, want %q", got, want)
			}
			// Validate bounds a partition at 2^24 cells; materializing
			// one that large costs far more than a fuzz execution can
			// afford, so only specs up to 2^18 cells take the Config
			// property.
			if s.Fleet.Composition().Total()*s.Workload.NumClasses <= 1<<18 {
				s.Config(1)
			}
		}
	})
}

// FuzzScenarioMatrix feeds arbitrary strings to the -matrix parser: it
// either errors or returns specs that each validate, encode as a job
// spec without a panic, and compile (Runtime.Job) into a job of their
// own key. A string that may name more than 64 cells is skipped, so an
// execution costs a few specs, not a maximal matrix.
func FuzzScenarioMatrix(f *testing.F) {
	for _, m := range []string{
		"fleet=20;alpha=iid;net=stable;rounds=10",
		"fleet=20;rounds=10",
		"fleet=20;alpha=iid,0.5;net=stable,unstable;rounds=60",
		"fleet=20;alpha=iid,0.5;net=stable,unstable;rounds=30,60",
		"fleet=20;intf=none,web-browsing;net=stable,unstable",
		// The benchmark's sweep-matrix workload (216 cells, skipped as
		// a whole; its mutations are not).
		"fleet=50,100,200;alpha=iid,0.1,0.5;net=stable,unstable;intf=none,web-browsing,heavy-game@0.3;deadline=none,auto;rounds=100,300",
		"fleet=20;rounds=10;alpha=NaN",
		"fleet=20;rounds=10;deadline=Inf",
		"fleet=20;rounds=10;intf=web-browsing@NaN",
	} {
		f.Add(m)
	}
	rt, err := NewRuntime(1, "")
	if err != nil {
		f.Fatal(err)
	}
	w := workload.CNNMNIST()
	f.Fuzz(func(t *testing.T, matrix string) {
		cells := 1
		for _, axis := range strings.Split(matrix, ";") {
			if cells *= strings.Count(axis, ",") + 1; cells > 64 {
				t.Skip("more than 64 cells")
			}
		}
		specs, err := ScenarioMatrix(w, matrix)
		if err != nil {
			return
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("matrix %q: spec %q fails Validate: %v", matrix, s.Name, err)
			}
			for _, c := range []ContenderSpec{staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), fedgpoWarmContender(s)} {
				sp := simSpec(s, c, 1)
				EncodeJobSpec(sp)
				if j := rt.Job(sp); j.Kind != KindSim || j.Key() != sp.Key() {
					t.Fatalf("matrix %q: spec %q compiles as %q", matrix, s.Name, j.Key())
				}
			}
		}
	})
}
