package exp

import (
	"strings"
	"testing"

	"fedgpo/internal/baseline"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// Integration tests for the comparison experiments at Tiny scale —
// checking structure and internal consistency rather than absolute
// outcomes (Tiny deployments are not representative; see Quick's doc).

// checkNormalized asserts the comparison contract on ms: every
// contender of a group reports each of the four metrics exactly once,
// and each group's first contender is base and reads exactly 1 on both
// ratio metrics.
func checkNormalized(t *testing.T, ms []measurement, base string) {
	t.Helper()
	type key struct{ group, controller string }
	metrics := map[key]map[metric]int{}
	first := map[string]string{}
	for _, m := range ms {
		k := key{m.group, m.controller}
		if metrics[k] == nil {
			metrics[k] = map[metric]int{}
		}
		metrics[k][m.metric]++
		if _, ok := first[m.group]; !ok {
			first[m.group] = m.controller
		}
		if m.controller == first[m.group] && m.unit == unitRatio && m.value != 1 {
			t.Errorf("%s/%s: base %s = %v, want exactly 1", m.group, m.controller, m.metric, m.value)
		}
	}
	for k, got := range metrics {
		for _, want := range figureMetrics {
			if got[want] != 1 {
				t.Errorf("%s/%s reports %s %d times, want once", k.group, k.controller, want, got[want])
			}
		}
		if len(got) != len(figureMetrics) {
			t.Errorf("%s/%s reports %d metrics, want %d", k.group, k.controller, len(got), len(figureMetrics))
		}
	}
	for g, c := range first {
		if c != base {
			t.Errorf("group %s normalizes to %s, want %s", g, c, base)
		}
	}
}

// checkSameCells asserts that measurements taken after a table on the
// same runtime simulated nothing new, so they came from the cells the
// table rendered.
func checkSameCells(t *testing.T, rt *Runtime, runs int64) {
	t.Helper()
	if got := rt.Stats().Runs; got != runs {
		t.Errorf("the measurements simulated %d cells the table did not", got-runs)
	}
}

func TestFig11StructureAndNormalization(t *testing.T) {
	o := Tiny()
	rt := o.runtime()
	o = o.WithRuntime(rt)
	tab := Fig11(o)
	if len(tab.Rows) != 8 { // 2 scenarios x 4 controllers
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if len(row) != 6 {
			t.Fatalf("row %d has %d cells", i, len(row))
		}
	}
	// The first controller of each scenario group is the normalization
	// base.
	runs := rt.Stats().Runs
	ms := comparison(tab.ID, scenarioGroups(o, rt, contenders, Ideal, NonIIDScenario), o.seeds(), rt)
	checkSameCells(t, rt, runs)
	checkNormalized(t, ms, "Fixed (Best)")
	// Every scenario group contains all four contenders.
	names := map[string]int{}
	for _, m := range ms {
		if m.metric == metricPPW {
			names[m.controller]++
		}
	}
	for _, n := range []string{"Fixed (Best)", "Adaptive (BO)", "Adaptive (GA)", "FedGPO"} {
		if names[n] != 2 {
			t.Errorf("controller %s appears %d times, want 2", n, names[n])
		}
	}
}

func TestFig12UsesPriorWorkContenders(t *testing.T) {
	o := Tiny()
	rt := o.runtime()
	o = o.WithRuntime(rt)
	tab := Fig12(o)
	names := map[string]bool{}
	for _, row := range tab.Rows {
		names[row[1]] = true
	}
	for _, n := range []string{"FedEX", "ABS", "FedGPO"} {
		if !names[n] {
			t.Errorf("fig12 missing contender %s", n)
		}
	}
	if names["Fixed (Best)"] {
		t.Error("fig12 compares prior work, not Fixed (Best)")
	}
	runs := rt.Stats().Runs
	ms := comparison(tab.ID, scenarioGroups(o, rt, priorWork, Ideal, Realistic, NonIIDScenario), o.seeds(), rt)
	checkSameCells(t, rt, runs)
	checkNormalized(t, ms, "FedEX")
}

func TestFixedBestParamsCachedAndValid(t *testing.T) {
	w := workload.CNNMNIST()
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	o := Tiny().WithRuntime(rt)
	a := FixedBestParams(w, o)
	runs := rt.Stats().Runs
	if runs == 0 {
		t.Fatal("the first call simulated no grid-search cells")
	}
	b := FixedBestParams(w, o)
	if a != b {
		t.Error("cache returned different parameters for the same key")
	}
	if got := rt.Stats().Runs; got != runs {
		t.Errorf("the second call on the same runtime simulated %d cells, want 0", got-runs)
	}
	if a.B <= 0 || a.E <= 0 || a.K <= 0 {
		t.Errorf("grid search returned invalid params %v", a)
	}
}

func TestTable5RowsCoverAllScenarios(t *testing.T) {
	tab := Table5(Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 15})
	if len(tab.Rows) != 5 {
		t.Fatalf("Table 5 rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[2], "%") {
			t.Errorf("prediction accuracy cell %q not a percentage", row[2])
		}
	}
}

func TestSec54ReportsAllOverheadPhases(t *testing.T) {
	tab := Sec54(Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 60})
	want := []string{
		"reward convergence round",
		"identify per-device states",
		"choose global parameters",
		"calculate reward",
		"update Q-tables",
		"total controller overhead",
		"Q-table memory",
	}
	have := map[string]bool{}
	for _, row := range tab.Rows {
		have[row[0]] = true
	}
	for _, q := range want {
		if !have[q] {
			t.Errorf("sec54 missing quantity %q", q)
		}
	}
}

func TestAblationColdStartStructure(t *testing.T) {
	o := Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 120}
	rt := o.runtime()
	o = o.WithRuntime(rt)
	tab := AblationColdStart(o)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want Fixed + cold + warm", len(tab.Rows))
	}
	if !strings.HasPrefix(tab.Rows[0][0], "Fixed (Best)") {
		t.Errorf("first row should be the Fixed base: %v", tab.Rows[0])
	}
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	runs := rt.Stats().Runs
	ms := comparison(tab.ID, []compareGroup{{s.Name, s, []ContenderSpec{
		staticContender(FixedBestParams(w, o), "Fixed (Best)"),
		fedgpoColdContender(),
		fedgpoWarmContender(s),
	}}}, o.seeds(), rt)
	checkSameCells(t, rt, runs)
	checkNormalized(t, ms, "Fixed (Best)")
}

func TestExperimentRegistryRunnersAgree(t *testing.T) {
	// Every registry entry's Run must produce a table whose ID matches
	// its registry id (catches copy-paste drift). Only the cheap,
	// simulation-free entries are executed here.
	for _, id := range []string{"fig3", "fig4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if tab := e.Run(Tiny()); tab.ID != id {
			t.Errorf("experiment %s produced table id %s", id, tab.ID)
		}
	}
}

// The runtime's grid search picks a sensible Fixed (Best) setting: not
// a degenerate corner, with a positive PPW that beats an obviously bad
// configuration's.
func TestGridSearchBestPicksReasonableParams(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	seeds := []int64{1}
	p := rt.gridSearchBest(s, baseline.CoarseGrid(), seeds)
	if p.B <= 0 || p.E <= 0 || p.K <= 0 {
		t.Fatalf("grid search returned invalid params %v", p)
	}
	if p.E == 1 && p.K == 1 {
		t.Errorf("grid search picked degenerate %v", p)
	}
	bad := fl.Params{B: 32, E: 20, K: 20}
	sums := rt.summaries([]cell{{s, staticContender(p, "")}, {s, staticContender(bad, "")}}, seeds)
	if sums[0].MeanPPW <= 0 {
		t.Fatalf("best PPW = %v", sums[0].MeanPPW)
	}
	if sums[0].MeanPPW <= sums[1].MeanPPW {
		t.Errorf("best %v PPW %v should beat bad config %v's %v", p, sums[0].MeanPPW, bad, sums[1].MeanPPW)
	}
}
