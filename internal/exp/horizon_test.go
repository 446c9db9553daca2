package exp

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/netsim"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// horizonSpecs is one Tiny-scale batch per round budget: the ideal and
// the realistic scenario (whose auto deadline drops stragglers) under
// every contender family. The warm FedGPO contender pins its warm-up
// budget, so its cells differ only in their round budget too.
func horizonSpecs(budgets ...int) [][]JobSpec {
	warm := core.DefaultConfig()
	contenders := []ContenderSpec{
		staticContender(fl.Params{B: 8, E: 10, K: 20}, ""),
		{Type: ContBO, CtrlSeed: 3},
		{Type: ContGA, CtrlSeed: 3},
		{Type: ContFedEX, CtrlSeed: 3},
		{Type: ContABS, CtrlSeed: 3},
		fedgpoColdContender(),
		{Type: ContFedGPOWarm, Core: &warm, WarmSeed: warmupSeed, WarmRounds: 60},
	}
	batches := make([][]JobSpec, len(budgets))
	for b, h := range budgets {
		for _, s := range []ScenarioSpec{Ideal(workload.CNNMNIST()), Realistic(workload.CNNMNIST())} {
			s = Tiny().apply(s)
			s.MaxRounds = h
			for _, c := range contenders {
				batches[b] = append(batches[b], simSpec(s, c, 1))
			}
		}
	}
	return batches
}

// interleave returns the batches' specs cell by cell, as a sweep's
// rounds axis orders them: each cell's budgets next to each other.
func interleave(batches [][]JobSpec) []JobSpec {
	var out []JobSpec
	for i := range batches[0] {
		for _, b := range batches {
			out = append(out, b[i])
		}
	}
	return out
}

// resultBytes is a result's binary form.
func resultBytes(t *testing.T, r fl.Result) []byte {
	t.Helper()
	b, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// simBytes is the binary form of every result, one entry per cell.
func simBytes(t *testing.T, results []runtime.Result) [][]byte {
	t.Helper()
	out := make([][]byte, len(results))
	for i, res := range results {
		out[i] = resultBytes(t, res.Sim)
	}
	return out
}

// roundsRun is how many simulated rounds the runtime has executed.
func roundsRun(rt *Runtime) int64 {
	return rt.Metrics().Phases[telemetry.PhaseRounds].Count
}

// horizonReference runs each budget's batch alone, on a runtime of its
// own, and returns the results in interleaved order with the rounds
// each budget's batch ran.
func horizonReference(t *testing.T, batches [][]JobSpec) ([]runtime.Result, []int64) {
	t.Helper()
	per := make([][]runtime.Result, len(batches))
	rounds := make([]int64, len(batches))
	for b, specs := range batches {
		rt, err := NewRuntime(1, "")
		if err != nil {
			t.Fatal(err)
		}
		per[b] = rt.runSpecs(specs)
		rounds[b] = roundsRun(rt)
	}
	var out []runtime.Result
	for i := range per[0] {
		for b := range per {
			out = append(out, per[b][i])
		}
	}
	return out, rounds
}

func checkSameResults(t *testing.T, specs []JobSpec, got, want []runtime.Result) {
	t.Helper()
	g, w := simBytes(t, got), simBytes(t, want)
	for i := range specs {
		if !bytes.Equal(g[i], w[i]) {
			t.Errorf("cell %d (%s, %s, %d rounds): bytes differ from its batch run alone",
				i, specs[i].Scenario.Name, specs[i].Contender.Type, specs[i].Scenario.MaxRounds)
		}
		if got[i].Sim.Outcome != want[i].Sim.Outcome {
			t.Errorf("cell %d: outcome %+v, want %+v", i, got[i].Sim.Outcome, want[i].Sim.Outcome)
		}
		if got[i].Key != want[i].Key {
			t.Errorf("cell %d: key %q, want %q", i, got[i].Key, want[i].Key)
		}
	}
}

// A batch at budgets {100, 300} returns, in spec order, the bytes of
// two single-budget batches, counts every cell as executed, and runs
// only the 300-round runs, with one worker and with four: a short twin
// dispatched while its group runs waits for that run. Exactly one
// member of each group carries the run's telemetry.
func TestHorizonBatchMatchesSingleBudgetBatches(t *testing.T) {
	batches := horizonSpecs(100, 300)
	specs := interleave(batches)
	want, refRounds := horizonReference(t, batches)

	for _, workers := range []int{1, 4} {
		rt, err := NewRuntime(workers, "")
		if err != nil {
			t.Fatal(err)
		}
		got := rt.runSpecs(specs)
		checkSameResults(t, specs, got, want)
		// interleave puts each cell's two budgets, one group, next to
		// each other.
		for i := 0; i < len(got); i += 2 {
			if (got[i].Telemetry != nil) == (got[i+1].Telemetry != nil) {
				t.Errorf("%d workers: cells %d and %d: telemetry %v and %v, want it on exactly one",
					workers, i, i+1, got[i].Telemetry != nil, got[i+1].Telemetry != nil)
			}
		}
		if st := rt.Stats(); st.Runs != int64(len(specs)) || st.Hits != 0 {
			t.Errorf("%d workers: %d runs, %d hits; want %d runs, 0 hits", workers, st.Runs, st.Hits, len(specs))
		}
		if n := roundsRun(rt); n != refRounds[1] {
			t.Errorf("%d workers: the batch ran %d rounds, want %d (the 300-round runs only; the 100-round batch alone ran %d)",
				workers, n, refRounds[1], refRounds[0])
		}
	}
}

// A one-worker rounds-axis sweep stores each deployment's history once:
// every rounds=30 result is a view of its rounds=60 twin's History
// array, and the results are byte for byte those of the two
// single-budget sweeps.
func TestRoundsAxisSweepSharesHistories(t *testing.T) {
	const axes = "fleet=20;alpha=iid,0.5;net=stable,unstable"
	p := fl.Params{B: 8, E: 10, K: 20}
	sweep := func(matrix string) ([]ScenarioSpec, []fl.Result) {
		t.Helper()
		specs, err := ScenarioMatrix(workload.CNNMNIST(), matrix)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(1, "")
		if err != nil {
			t.Fatal(err)
		}
		return specs, SweepScenarios(Options{}.WithRuntime(rt), specs, p, 1)
	}
	specs, both := sweep(axes + ";rounds=30,60")
	_, short := sweep(axes + ";rounds=30")
	_, long := sweep(axes + ";rounds=60")
	if len(both) != 8 || len(short) != 4 || len(long) != 4 {
		t.Fatalf("%d results, %d and %d single-budget ones; want 8, 4 and 4", len(both), len(short), len(long))
	}
	// The rounds axis varies fastest: each deployment's rounds=30 cell,
	// then its rounds=60 twin.
	for i := 0; i < len(both); i += 2 {
		if specs[i].MaxRounds != 30 || specs[i+1].MaxRounds != 60 {
			t.Fatalf("cells %d and %d have budgets %d and %d, want 30 and 60", i, i+1, specs[i].MaxRounds, specs[i+1].MaxRounds)
		}
		if !bytes.Equal(resultBytes(t, both[i]), resultBytes(t, short[i/2])) {
			t.Errorf("cell %d: bytes differ from the rounds=30 sweep's", i)
		}
		if !bytes.Equal(resultBytes(t, both[i+1]), resultBytes(t, long[i/2])) {
			t.Errorf("cell %d: bytes differ from the rounds=60 sweep's", i+1)
		}
	}
	for i := 0; i < len(both); i += 2 {
		short, long := both[i].History, both[i+1].History
		if len(short) == 0 || unsafe.SliceData(short) != unsafe.SliceData(long) {
			t.Errorf("cell %d: the rounds=30 History is not a view of its rounds=60 twin's array", i)
		}
		if len(short) != cap(short) {
			t.Errorf("cell %d: the rounds=30 History has len %d, cap %d", i, len(short), cap(short))
		}
	}
}

// When the long twins are already cached, each short twin misses and
// runs its group: the 300-round runs happen once more, and the bytes
// still match.
func TestHorizonShortTwinRunsGroupWhenLongIsCached(t *testing.T) {
	batches := horizonSpecs(100, 300)
	specs := interleave(batches)
	want, refRounds := horizonReference(t, batches)

	rt, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	rt.runSpecs(batches[1])
	before := roundsRun(rt)
	got := rt.runSpecs(specs)
	checkSameResults(t, specs, got, want)
	if n := roundsRun(rt) - before; n != refRounds[1] {
		t.Errorf("the batch ran %d rounds, want the 300-round runs' %d", n, refRounds[1])
	}
	n := int64(len(batches[1]))
	if st := rt.Stats(); st.Runs != 2*n || st.Hits != n {
		t.Errorf("stats: %d runs, %d hits; want %d runs, %d hits", st.Runs, st.Hits, 2*n, n)
	}
}

// twinSpecs is a static cell of the scenario at each budget.
func twinSpecs(s ScenarioSpec, budgets ...int) []JobSpec {
	specs := make([]JobSpec, len(budgets))
	for i, h := range budgets {
		s.MaxRounds = h
		specs[i] = simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1)
	}
	return specs
}

// compile is rt.Job of every spec of the batch.
func compile(rt *Runtime, specs []JobSpec) []runtime.Job {
	jobs := make([]runtime.Job, len(specs))
	for i, sp := range specs {
		jobs[i] = rt.Job(sp)
	}
	return jobs
}

// groupsOf is rt.horizonGroups of the batch's compiled jobs, and the
// batch's dispatchOrder.
func groupsOf(rt *Runtime, specs []JobSpec) ([]*horizonGroup, []int) {
	jobs := compile(rt, specs)
	groups := rt.horizonGroups(specs, jobs)
	return groups, dispatchOrder(specs, jobs, groups)
}

// loneErrs is each spec's Err when it runs alone on a runtime of its
// own, by key.
func loneErrs(t *testing.T, specs []JobSpec) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, sp := range specs {
		rt, err := NewRuntime(1, "")
		if err != nil {
			t.Fatal(err)
		}
		res := rt.RunJob(rt.Job(sp))
		out[res.Key] = res.Err
	}
	return out
}

// Budget twins that fail validation each report, at one worker and at
// four, the Err they report alone: twins of an invalid scenario all
// fail, and a twin whose budget alone is out of range fails without
// failing its valid twin, so no spec that fails validation is grouped.
// An unknown kind fails the same way, never while the batch's keys are
// built.
func TestHorizonInvalidTwinsFailAsAlone(t *testing.T) {
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	bad := s
	bad.Fleet.Size = -5
	bogus := s
	bogus.Interference.Kind = "bogus"
	for _, specs := range [][]JobSpec{
		twinSpecs(bad, 100, 300),
		twinSpecs(s, 100, maxSpecRounds+1),
		twinSpecs(bogus, 100, 300),
	} {
		lone := loneErrs(t, specs)
		if groups, _ := groupsOf(&Runtime{}, specs); groups != nil {
			t.Errorf("%v: a spec that fails validation was grouped", lone)
		}
		for _, workers := range []int{1, 4} {
			rt, err := NewRuntime(workers, "")
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "store.jsonl")
			if err := rt.StreamStore(path); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if _, ok := recover().(*JobError); !ok {
						t.Errorf("%d workers: the batch did not fail with a *JobError", workers)
					}
				}()
				rt.runSpecs(specs)
			}()
			if err := rt.CloseStore(); err != nil {
				t.Fatal(err)
			}
			got := readStoreLog(t, path)
			for key, want := range lone {
				if got[key].Err != want {
					t.Errorf("%d workers: cell %s: Err %q, want its lone run's %q", workers, key, got[key].Err, want)
				}
			}
		}
	}
}

// A group whose run fails replays the run's panic to every member, at
// one worker and at four, so each member reports the failed run's
// error and none reads a result that was never made. An invalid spec's
// job is never grouped, so the group here runs specs whose scenario
// fails in Config under its valid twins' keys: the group reads its
// batch only when it runs, so the valid twins' group is pointed at the
// failing specs after it is built.
func TestHorizonGroupReplaysFailure(t *testing.T) {
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	bad := s
	bad.Fleet.Size = -5
	want := bad.Validate().Error()
	for _, workers := range []int{1, 4} {
		rt, err := NewRuntime(workers, "")
		if err != nil {
			t.Fatal(err)
		}
		specs := twinSpecs(s, 50, 100, 300)
		jobs := compile(rt, specs)
		g := rt.horizonGroups(specs, jobs)[0]
		if g.longest != 2 || !reflect.DeepEqual(g.horizons, []int{50, 100, 300}) {
			t.Fatalf("group: longest %d, horizons %v; want 2, [50 100 300]", g.longest, g.horizons)
		}
		g.batch = twinSpecs(bad, 50, 100, 300)
		for _, res := range rt.exec.RunAll(jobs) {
			if res.Err != want {
				t.Errorf("%d workers: cell %s: Err %q, want the group run's %q", workers, res.Key, res.Err, want)
			}
		}
	}
}

// Only cells that differ in nothing but their budget are grouped, and
// the longest members are dispatched first. A one-budget batch, like
// every report batch, has no groups.
func TestHorizonGroupsPairOnlyBudgetTwins(t *testing.T) {
	rt, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	if groups, _ := groupsOf(rt, horizonSpecs(100)[0]); groups != nil {
		t.Error("a one-budget batch was grouped")
	}
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	static := staticContender(fl.Params{B: 8, E: 10, K: 20}, "")
	at := func(s ScenarioSpec, h int) ScenarioSpec { s.MaxRounds = h; return s }
	other := s
	other.Fleet.Size = 30
	named := at(s, 50)
	named.Name = "another label"
	specs := []JobSpec{
		simSpec(at(s, 100), static, 1),                // 0: grouped with 2 and 5
		simSpec(at(s, 100), static, 2),                // 1: another seed, no twin
		simSpec(at(s, 300), static, 1),                // 2: the longest of 0's group
		simSpec(at(other, 300), static, 1),            // 3: another scenario, no twin
		simSpec(at(s, 300), fedgpoColdContender(), 1), // 4: another controller, no twin
		simSpec(named, static, 1),                     // 5: a label is display only
		{Kind: KindSec54, Scenario: at(s, 100), Contender: fedgpoColdContender(), Seed: 1},
	}
	groups, order := groupsOf(rt, specs)
	if groups == nil {
		t.Fatal("no groups")
	}
	g := groups[0]
	for i, want := range []bool{true, false, true, false, false, true, false} {
		if (groups[i] == g) != want || (groups[i] != nil) != want {
			t.Errorf("spec %d: grouped %v, want %v", i, groups[i] != nil, want)
		}
	}
	if g.longest != 2 || !reflect.DeepEqual(g.horizons, []int{50, 100, 300}) {
		t.Errorf("group: longest %d, horizons %v; want 2, [50 100 300]", g.longest, g.horizons)
	}
	if want := []int{2, 0, 1, 3, 4, 5, 6}; !reflect.DeepEqual(order, want) {
		t.Errorf("dispatch order %v, want %v", order, want)
	}
}

// recordBackend records every job the executor hands its backend, in
// order, then runs them on the wrapped backend.
type recordBackend struct {
	runtime.Backend
	jobs []runtime.Job
}

func (b *recordBackend) Run(jobs []runtime.Job, done func(int, runtime.Result)) []runtime.Result {
	b.jobs = append(b.jobs, jobs...)
	return b.Backend.Run(jobs, done)
}

// staticMatrix is a static cell of each deployment of the matrix.
func staticMatrix(t *testing.T, matrix string) []JobSpec {
	t.Helper()
	scens, err := ScenarioMatrix(workload.CNNMNIST(), matrix)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, len(scens))
	for i, s := range scens {
		specs[i] = simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1)
	}
	return specs
}

// dispatchOrder puts the first reader of each snapshot first, then
// the horizon groups' longest members spread over their environments,
// then the rest in batch order; a cold batch reaches the backend in
// exactly that order, and its results still land by batch index.
func TestDispatchOrder(t *testing.T) {
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	other := s
	other.Fleet.Size = 30
	at := func(s ScenarioSpec, h int) ScenarioSpec { s.MaxRounds = h; return s }
	static := staticContender(fl.Params{B: 8, E: 10, K: 20}, "")
	cfg := core.DefaultConfig()
	warm := ContenderSpec{Type: ContFedGPOWarm, Core: &cfg, WarmSeed: warmupSeed, WarmRounds: 60}
	for _, tc := range []struct {
		name  string
		specs []JobSpec
		want  []int
	}{{
		// [A(K1), B(K1), C(K2), D] dispatches as [A, C, B, D].
		name: "snapshot leaders first",
		specs: []JobSpec{
			simSpec(s, fedgpoWarmContender(s), 1),
			simSpec(s, fedgpoWarmContender(s), 2),
			simSpec(other, fedgpoWarmContender(other), 1),
			simSpec(s, static, 1),
		},
		want: []int{0, 2, 1, 3},
	}, {
		// Batch order: fleet 20 (none 100, none 300, auto 100, auto
		// 300), then fleet 30 the same. The fleet sets the environment,
		// so each fleet's first longest member comes before either
		// fleet's second.
		name:  "longest members spread over environments",
		specs: staticMatrix(t, "fleet=20,30;deadline=none,auto;rounds=100,300"),
		want:  []int{1, 5, 3, 7, 0, 2, 4, 6},
	}, {
		// A stable cell and its unstable twin read one environment
		// trace, so the spread treats them as one environment.
		name:  "spread ignores the channel",
		specs: staticMatrix(t, "fleet=20,30;net=stable,unstable;rounds=100,300"),
		want:  []int{1, 5, 3, 7, 0, 2, 4, 6},
	}, {
		// A warm cell's snapshot key holds its budget, so the two warm
		// twins (one group) read two snapshots, and the seed-2 cell,
		// in no group, reads the short twin's. The leaders come in the
		// order steps 2 and 3 give: the warm group's longest member
		// (300 rounds), then the short warm twin; then the static
		// group's longest member, then the rest in batch order.
		name: "warm snapshots with a rounds axis",
		specs: []JobSpec{
			simSpec(at(s, 100), static, 1),
			simSpec(at(s, 100), warm, 1),
			simSpec(at(s, 300), static, 1),
			simSpec(at(s, 300), warm, 1),
			simSpec(at(s, 100), warm, 2),
		},
		want: []int{3, 1, 2, 0, 4},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := runtime.NewCache("")
			if err != nil {
				t.Fatal(err)
			}
			be := &recordBackend{Backend: runtime.NewPoolBackend(2)}
			rt := NewRuntimeWithBackend(be, cache)
			if _, order := groupsOf(rt, tc.specs); !reflect.DeepEqual(order, tc.want) {
				t.Errorf("dispatch order %v, want %v", order, tc.want)
			}
			results := rt.runSpecs(tc.specs)
			jobs := compile(rt, tc.specs)
			var got []int
			for _, j := range be.jobs {
				got = append(got, slices.IndexFunc(jobs, func(b runtime.Job) bool { return b.Key() == j.Key() }))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("backend saw %v, want %v", got, tc.want)
			}
			for i, res := range results {
				if res.Key != jobs[i].Key() {
					t.Errorf("result %d belongs to %q, want %q", i, res.Key, jobs[i].Key())
				}
			}
		})
	}
}

// channelSpecs is one Tiny-scale batch per channel preset: the ideal
// and the interference-only scenario at budgets 100 and 300 under a
// static, an ABS and a cold FedGPO contender.
func channelSpecs(kinds ...string) [][]JobSpec {
	contenders := []ContenderSpec{
		staticContender(fl.Params{B: 8, E: 10, K: 20}, ""),
		{Type: ContABS, CtrlSeed: 3},
		fedgpoColdContender(),
	}
	batches := make([][]JobSpec, len(kinds))
	for b, kind := range kinds {
		for _, s := range []ScenarioSpec{Ideal(workload.CNNMNIST()), InterferenceOnly(workload.CNNMNIST())} {
			s = Tiny().apply(s)
			s.Network = NetworkSpec{Kind: kind}
			for _, h := range []int{100, 300} {
				s.MaxRounds = h
				for _, c := range contenders {
					batches[b] = append(batches[b], simSpec(s, c, 1))
				}
			}
		}
	}
	return batches
}

// A batch of stable cells and their unstable twins, which share each
// environment trace, returns the bytes of the two single-channel
// batches run alone, with one worker and with four.
func TestChannelTwinsMatchSingleChannelBatches(t *testing.T) {
	batches := channelSpecs(netsim.KindStable, netsim.KindUnstable)
	specs := interleave(batches)
	want, _ := horizonReference(t, batches)
	for _, workers := range []int{1, 4} {
		rt, err := NewRuntime(workers, "")
		if err != nil {
			t.Fatal(err)
		}
		checkSameResults(t, specs, rt.runSpecs(specs), want)
	}
}

// Groups live in a batch's jobs only: nothing the Runtime holds can
// reach one, so no group outlives its batch.
func TestRuntimeHoldsNoHorizonGroup(t *testing.T) {
	target := reflect.TypeOf(horizonGroup{})
	seen := map[reflect.Type]bool{}
	var reaches func(reflect.Type) bool
	reaches = func(ty reflect.Type) bool {
		if ty == target {
			return true
		}
		if seen[ty] {
			return false
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			return reaches(ty.Elem())
		case reflect.Map:
			return reaches(ty.Key()) || reaches(ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if reaches(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if reaches(reflect.TypeOf(Runtime{})) {
		t.Error("a Runtime field can hold a horizonGroup")
	}
}
