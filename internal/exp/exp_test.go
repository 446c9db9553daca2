package exp

import (
	"fmt"
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
}

func TestRegistryComplete(t *testing.T) {
	wanted := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig9", "fig10", "fig11", "fig12", "tab5", "sec54"}
	for _, id := range wanted {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := ByID("fig8"); err == nil {
		t.Error("fig8 does not exist in the paper's evaluation; ByID should error")
	}
}

func TestFig3CharacterizationShape(t *testing.T) {
	// Fig3 is simulation-free and fast; check the paper shapes hold.
	tab := Fig3(Tiny())
	if len(tab.Rows) != len(fl.BValues())+len(fl.EValues()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every row's L value must exceed its H value (L is slower).
	for _, row := range tab.Rows {
		h := parseRatio(t, row[2])
		l := parseRatio(t, row[4])
		if l <= h {
			t.Errorf("row %v: L (%v) should be slower than H (%v)", row, l, h)
		}
	}
}

func TestFig4VarianceShape(t *testing.T) {
	tab := Fig4(Tiny())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Interference and network rows must exceed the clean row for L.
	clean := parseRatio(t, tab.Rows[0][3])
	intf := parseRatio(t, tab.Rows[1][3])
	net := parseRatio(t, tab.Rows[2][3])
	if intf <= clean || net <= clean {
		t.Errorf("variance should inflate round time: clean=%v intf=%v net=%v", clean, intf, net)
	}
}

func TestFig1QuickShape(t *testing.T) {
	tab := Fig1(Tiny())
	if len(tab.Rows) != len(fl.BValues())+len(fl.EValues())+len(fl.KValues()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// B=8 must beat B=1 (the baseline) on PPW — the headline of Fig 1.
	var b1, b8 float64
	for _, row := range tab.Rows {
		if row[0] == "B" && row[1] == "1" {
			b1 = parseRatio(t, row[3])
		}
		if row[0] == "B" && row[1] == "8" {
			b8 = parseRatio(t, row[3])
		}
	}
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

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%fx", &v); err != nil {
		t.Fatalf("bad ratio %q: %v", s, err)
	}
	return v
}
