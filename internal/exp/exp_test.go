package exp

import (
	"strings"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

func TestScenarioConfigsValidate(t *testing.T) {
	w := workload.CNNMNIST()
	for _, s := range []ScenarioSpec{
		Ideal(w), Realistic(w), InterferenceOnly(w),
		UnstableNetworkOnly(w), NonIIDScenario(w), RealisticNonIID(w),
	} {
		cfg := s.Config(1)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if len(cfg.Fleet) != paperFleet {
			t.Errorf("%s: fleet = %d, want %d", s.Name, len(cfg.Fleet), paperFleet)
		}
	}
}

func TestScenarioFlagsTakeEffect(t *testing.T) {
	w := workload.CNNMNIST()
	ideal := Ideal(w).Config(1)
	real := Realistic(w).Config(1)
	if ideal.Interference.Active() {
		t.Error("ideal scenario should have no interference")
	}
	if !real.Interference.Active() {
		t.Error("realistic scenario should have interference")
	}
	if real.DeadlineSec <= 0 {
		t.Error("realistic scenario should have a straggler deadline")
	}
	nid := NonIIDScenario(w).Config(1)
	if meanSkew(nid.Partition) < 0.3 {
		t.Error("non-IID scenario partition should be skewed")
	}
	if meanSkew(ideal.Partition) > 1e-9 {
		t.Error("ideal scenario partition should be IID")
	}
}

// meanSkew is the mean non-IID degree over a partition's devices.
func meanSkew(p data.Partition) float64 {
	s := 0.0
	for d := range p.Counts {
		s += p.NonIIDDegree(d)
	}
	return s / float64(len(p.Counts))
}

func TestQuickOptionsShrinkFleet(t *testing.T) {
	s := Quick().apply(Ideal(workload.CNNMNIST()))
	if s.Fleet.Size != 100 {
		t.Errorf("quick fleet = %d", s.Fleet.Size)
	}
	cfg := s.Config(1)
	if len(cfg.Fleet) != 100 {
		t.Errorf("quick config fleet = %d", len(cfg.Fleet))
	}
	tiny := Tiny().apply(Ideal(workload.CNNMNIST()))
	if tiny.Fleet.Size != 20 {
		t.Errorf("tiny fleet = %d", tiny.Fleet.Size)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	md := tab.Markdown()
	if !strings.Contains(md, "### x — demo") || !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 333 | 4 |") {
		t.Errorf("markdown missing content:\n%s", md)
	}
	if v, ok := tab.Value("bb", "333"); ok {
		t.Errorf("a cell added by AddRow reads value %v", v)
	}
}

func TestRegistryComplete(t *testing.T) {
	wanted := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig9", "fig10", "fig11", "fig12", "tab5", "sec54",
		"abl-eps", "abl-gm", "abl-tables", "abl-beta", "abl-cold"}
	for _, id := range wanted {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := ByID("fig8"); err == nil {
		t.Error("fig8 does not exist in the paper's evaluation; ByID should error")
	}
}

// value reads one number of tab by Table.Value, failing t when the
// table prints no value there.
func value(t *testing.T, tab Table, column string, labels ...string) float64 {
	t.Helper()
	v, ok := tab.Value(column, labels...)
	if !ok {
		t.Fatalf("%s: no %s value in row %q", tab.ID, column, labels)
	}
	return v
}

func TestFig1QuickShape(t *testing.T) {
	tab := Fig1(Tiny())
	if len(tab.Rows) != len(fl.BValues())+len(fl.EValues())+len(fl.KValues()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// B=8 must beat B=1 (the baseline) on PPW — the headline of Fig 1.
	b1 := value(t, tab, "PPW (norm)", "B", "1")
	b8 := value(t, tab, "PPW (norm)", "B", "8")
	if b8 <= b1 {
		t.Errorf("B=8 PPW (%v) should beat the B=1 baseline (%v)", b8, b1)
	}
}

func TestPredictionAccuracyInRange(t *testing.T) {
	o := Tiny()
	out := o.runtime().runSpecs([]JobSpec{oracleSpec(o.apply(Ideal(workload.CNNMNIST())), o, 20)})[0]
	var ex oracleExtra
	if err := out.GetExtra(&ex); err != nil {
		t.Fatal(err)
	}
	if acc := ex.MeanAccPct; acc < 50 || acc > 100 {
		t.Errorf("prediction accuracy = %v, want a sane percentage", acc)
	}
}

func TestRewardConvergenceRound(t *testing.T) {
	// A trace that ramps then plateaus converges near the ramp's end.
	trace := make([]float64, 100)
	for i := range trace {
		if i < 30 {
			trace[i] = float64(i)
		} else {
			trace[i] = 30
		}
	}
	r := RewardConvergenceRound(trace, 0.1)
	if r < 20 || r > 60 {
		t.Errorf("convergence round = %d, want near the plateau start", r)
	}
	if RewardConvergenceRound(trace[:5], 0.1) != -1 {
		t.Error("short traces should not report convergence")
	}
}
