package exp

import (
	"fmt"

	"fedgpo/internal/abs"
	"fedgpo/internal/baseline"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

// FixedBestParams returns the Fixed (Best) configuration for a
// workload under the given options: the paper's Fixed (Best) is
// selected once by offline simulation in the ideal environment and
// reused everywhere. The coarse grid search fans out over the options'
// runtime, and the selected setting is stored in the content-addressed
// run cache, so later calls on the runtime — and warm reruns over its
// cache directory — skip the search entirely.
func FixedBestParams(w workload.Workload, o Options) fl.Params {
	s := o.apply(Ideal(w))
	rt := o.runtime()
	// The key derives from the actual grid and seed values, so editing
	// either invalidates stale selections without a keyVersion bump.
	grid, seeds := baseline.CoarseGrid(), []int64{1}
	ck := runtime.KeyFor("fixed-best", s.cacheKey(),
		fmt.Sprintf("grid=%v", grid), fmt.Sprintf("seeds=%v", seeds))
	var p fl.Params
	if !rt.cache.Get(ck, &p) {
		p = rt.gridSearchBest(s, grid, seeds)
		_ = rt.cache.Put(ck, p)
	}
	return p
}

// contenders builds the Fig. 9–11 comparison set for a scenario:
// Fixed (Best), Adaptive (BO), Adaptive (GA), and FedGPO (warm).
func contenders(w workload.Workload, s ScenarioSpec, o Options) []ContenderSpec {
	best := FixedBestParams(w, o)
	return []ContenderSpec{
		staticContender(best, "Fixed (Best)"),
		{Type: ContBO, Name: "Adaptive (BO)", CtrlSeed: 1},
		{Type: ContGA, Name: "Adaptive (GA)", CtrlSeed: 1},
		fedgpoWarmContender(s),
	}
}

// compareGroup is one scenario's contender set within a comparison
// experiment; its rows normalize to the group's first contender.
type compareGroup struct {
	label string
	s     ScenarioSpec
	cs    []ContenderSpec
}

// comparisonRows fans every group's (contender × seed) cells through
// the runtime in a single batch, then emits rows of PPW (normalized to
// the first contender), convergence-time speedup (ditto), final
// accuracy and convergence round — in the same order the serial
// harness produced them.
func comparisonRows(t *Table, groups []compareGroup, seeds []int64, rt *Runtime) {
	cells := make([]cell, 0)
	for _, g := range groups {
		for _, c := range g.cs {
			cells = append(cells, cell{g.s, c})
		}
	}
	sums := rt.summaries(cells, seeds)
	i := 0
	for _, g := range groups {
		var baseSummary fl.Summary
		for j, c := range g.cs {
			sum := sums[i]
			i++
			if j == 0 {
				baseSummary = sum
			}
			ppwN := sum.MeanPPW / baseSummary.MeanPPW
			speedN := baseSummary.MeanTimeToConvSec / sum.MeanTimeToConvSec
			t.AddRow(g.label, c.Name, fmtRatio(ppwN), fmtRatio(speedN),
				fmtPct(100*sum.MeanFinalAccuracy),
				fmt.Sprintf("%.0f", sum.MeanConvergenceRound))
		}
	}
}

// Fig9 reproduces paper Figure 9: PPW, convergence speedup and final
// accuracy of Fixed (Best), Adaptive (BO), Adaptive (GA) and FedGPO
// across the three workloads in the paper's realistic environment
// (co-running interference + Wi-Fi bandwidth variation, §4.2).
func Fig9(o Options) Table {
	t := Table{
		ID:     "fig9",
		Title:  "FedGPO vs baselines across workloads (realistic environment)",
		Header: []string{"workload", "controller", "PPW (norm)", "conv speedup", "accuracy", "conv round"},
	}
	rt := o.runtime()
	var groups []compareGroup
	for _, w := range workload.All() {
		s := o.apply(Realistic(w))
		groups = append(groups, compareGroup{w.Name, s, contenders(w, s, o.WithRuntime(rt))})
	}
	comparisonRows(&t, groups, o.seeds(), rt)
	t.Notes = append(t.Notes,
		"paper expectation: FedGPO best on PPW for every workload (paper: 4.1x/3.2x/3.5x over Fixed (Best)), maintaining accuracy")
	return t
}

// Fig10 reproduces paper Figure 10: the same comparison for CNN-MNIST
// under (a) no runtime variance, (b) on-device interference, and
// (c) network variance.
func Fig10(o Options) Table {
	w := workload.CNNMNIST()
	t := Table{
		ID:     "fig10",
		Title:  "adaptability to runtime variance (CNN-MNIST)",
		Header: []string{"scenario", "controller", "PPW (norm)", "conv speedup", "accuracy", "conv round"},
	}
	rt := o.runtime()
	var groups []compareGroup
	for _, s := range []ScenarioSpec{
		o.apply(Ideal(w)),
		o.apply(InterferenceOnly(w)),
		o.apply(UnstableNetworkOnly(w)),
	} {
		groups = append(groups, compareGroup{s.Name, s, contenders(w, s, o.WithRuntime(rt))})
	}
	comparisonRows(&t, groups, o.seeds(), rt)
	t.Notes = append(t.Notes,
		"paper expectation: FedGPO's margin widens under variance (paper: 5.0x/4.2x/3.0x over Fixed/BO/GA)")
	return t
}

// Fig11 reproduces paper Figure 11: the comparison for CNN-MNIST with
// and without data heterogeneity.
func Fig11(o Options) Table {
	w := workload.CNNMNIST()
	t := Table{
		ID:     "fig11",
		Title:  "adaptability to data heterogeneity (CNN-MNIST)",
		Header: []string{"scenario", "controller", "PPW (norm)", "conv speedup", "accuracy", "conv round"},
	}
	rt := o.runtime()
	var groups []compareGroup
	for _, s := range []ScenarioSpec{
		o.apply(Ideal(w)),
		o.apply(NonIIDScenario(w)),
	} {
		groups = append(groups, compareGroup{s.Name, s, contenders(w, s, o.WithRuntime(rt))})
	}
	comparisonRows(&t, groups, o.seeds(), rt)
	t.Notes = append(t.Notes,
		"paper expectation: under non-IID FedGPO achieves 6.2x/1.9x/1.3x over Fixed/BO/GA by shrinking E and K")
	return t
}

// Fig12 reproduces paper Figure 12: FedGPO against the prior-work
// tuners FedEX and ABS on CNN-MNIST, without variance, with runtime
// variance, and with data heterogeneity.
func Fig12(o Options) Table {
	w := workload.CNNMNIST()
	t := Table{
		ID:     "fig12",
		Title:  "FedGPO vs FedEX vs ABS (CNN-MNIST)",
		Header: []string{"scenario", "controller", "PPW (norm)", "conv speedup", "accuracy", "conv round"},
	}
	rt := o.runtime()
	var groups []compareGroup
	for _, s := range []ScenarioSpec{
		o.apply(Ideal(w)),
		o.apply(Realistic(w)),
		o.apply(NonIIDScenario(w)),
	} {
		// Normalize to FedEX (first row) so the FedGPO rows read as the
		// paper's "1.5x over FedEX" style ratios.
		absCfg := abs.DefaultConfig()
		cs := []ContenderSpec{
			{Type: ContFedEX, Name: "FedEX", CtrlSeed: 1},
			{Type: ContABS, Name: "ABS", ABS: &absCfg},
			fedgpoWarmContender(s),
		}
		groups = append(groups, compareGroup{s.Name, s, cs})
	}
	comparisonRows(&t, groups, o.seeds(), rt)
	t.Notes = append(t.Notes,
		"paper expectation: FedGPO > FedEX > ABS (paper: 1.5x and 2.1x average energy-efficiency improvements)")
	return t
}
