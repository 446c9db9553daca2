package exp

import (
	"slices"
	"strings"
	"testing"

	"fedgpo/internal/baseline"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// Integration tests for the comparison experiments at Tiny scale —
// checking structure and internal consistency rather than absolute
// outcomes (Tiny deployments are not representative; see Quick's doc).

// checkNormalized asserts the comparison contract on tab, whose rows
// are addressed by their first lead cells: each group of rows lists
// controllers in order (the last label starts with the name), every row
// has a value in every column after its labels, and a group's first
// row reads exactly 1 in each ratio column.
func checkNormalized(t *testing.T, tab Table, lead int, controllers []string, ratios ...string) {
	t.Helper()
	if len(tab.Rows)%len(controllers) != 0 {
		t.Errorf("%s has %d rows, not whole groups of %q", tab.ID, len(tab.Rows), controllers)
	}
	for i, row := range tab.Rows {
		labels, base := row[:lead], i%len(controllers) == 0
		if c := controllers[i%len(controllers)]; !strings.HasPrefix(labels[lead-1], c) {
			t.Errorf("%s row %d is %q, want controller %s", tab.ID, i, labels, c)
		}
		for _, col := range tab.Header[lead:] {
			v, ok := tab.Value(col, labels...)
			if !ok {
				t.Errorf("%s %q has no %s value", tab.ID, labels, col)
			}
			if base && slices.Contains(ratios, col) && v != 1 {
				t.Errorf("%s %q: base %s = %v, want exactly 1", tab.ID, labels, col, v)
			}
		}
	}
}

func TestFig11StructureAndNormalization(t *testing.T) {
	tab := Fig11(Tiny())
	if len(tab.Rows) != 8 { // 2 scenarios x 4 controllers
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	checkNormalized(t, tab, 2, []string{"Fixed (Best)", "Adaptive (BO)", "Adaptive (GA)", "FedGPO"},
		"PPW (norm)", "conv speedup")
}

// Fig12 compares prior work, not Fixed (Best), and normalizes to FedEX.
func TestFig12UsesPriorWorkContenders(t *testing.T) {
	tab := Fig12(Tiny())
	checkNormalized(t, tab, 2, []string{"FedEX", "ABS", "FedGPO"}, "PPW (norm)", "conv speedup")
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
	for _, q := range want {
		if _, ok := tab.Value("measured", q); !ok {
			t.Errorf("sec54 missing quantity %q", q)
		}
	}
}

func TestAblationColdStartStructure(t *testing.T) {
	tab := AblationColdStart(Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 120})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want Fixed + cold + warm", len(tab.Rows))
	}
	checkNormalized(t, tab, 1, []string{"Fixed (Best)", "FedGPO (cold)", "FedGPO (warm)"}, "PPW (norm to Fixed)")
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
