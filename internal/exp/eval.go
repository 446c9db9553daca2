package exp

import (
	"fmt"
	"slices"

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
// experiment; its ratios are relative to the group's first contender.
type compareGroup struct {
	label string
	s     ScenarioSpec
	cs    []ContenderSpec
}

// metric names one quantity a table reports.
type metric string

const (
	metricPPW          metric = "PPW"
	metricSpeedup      metric = "conv speedup"
	metricAccuracy     metric = "accuracy"
	metricConvRound    metric = "conv round"
	metricRoundSpeedup metric = "round time speedup"
	metricTrainTime    metric = "train time"
	metricRoundTime    metric = "round time"
	metricEnergy       metric = "energy"
	metricSelection    metric = "selection accuracy"
	metricQMem         metric = "Q-table memory"
)

// The units of a measurement's value. A unitRatio value is normalised
// to a base its table names; in a comparison that is the group's first
// contender, which reads exactly 1, and above 1 is better (more PPW,
// shorter time to convergence).
const (
	unitRatio = "x"
	unitPct   = "%"
	unitRound = "round"
	unitKB    = "KB"
	unitUS    = "us"
)

// measurement is one number a table reports: one metric of one
// controller (a contender, setting or device category) in one group.
type measurement struct {
	group      string // compareGroup.label, sweep point or quantity
	controller string // ContenderSpec.Name, setting or category
	metric     metric
	value      float64
	unit       string
}

// cell formats the value by its unit; it is the only place a table's
// numeric cells are formatted.
func (m measurement) cell() string {
	switch m.unit {
	case unitRatio:
		return fmt.Sprintf("%.2fx", m.value)
	case unitPct:
		return fmt.Sprintf("%.1f%%", m.value)
	case unitKB, unitUS:
		return fmt.Sprintf("%.1f %s", m.value, m.unit)
	}
	return fmt.Sprintf("%.0f", m.value)
}

// comparison fans every group's (contender × seed) cells through the
// runtime in a single batch and returns, in group order and then
// contender order, four measurements per contender: PPW and
// convergence-time speedup (unitRatio, relative to the group's first
// contender), mean final accuracy (unitPct) and mean convergence round
// (unitRound).
func comparison(groups []compareGroup, seeds []int64, rt *Runtime) []measurement {
	var cells []cell
	for _, g := range groups {
		for _, c := range g.cs {
			cells = append(cells, cell{g.s, c})
		}
	}
	sums := rt.summaries(cells, seeds)
	ms := make([]measurement, 0, 4*len(cells))
	for _, g := range groups {
		base := sums[0]
		for _, c := range g.cs {
			sum := sums[0]
			sums = sums[1:]
			ms = append(ms,
				measurement{g.label, c.Name, metricPPW, sum.MeanPPW / base.MeanPPW, unitRatio},
				measurement{g.label, c.Name, metricSpeedup, base.MeanTimeToConvSec / sum.MeanTimeToConvSec, unitRatio},
				measurement{g.label, c.Name, metricAccuracy, 100 * sum.MeanFinalAccuracy, unitPct},
				measurement{g.label, c.Name, metricConvRound, sum.MeanConvergenceRound, unitRound})
		}
	}
	return ms
}

// comparisonTable adds one row to t per (group, controller) of ms, in
// order of first appearance: the row's label cells, labels[row] or,
// when labels is nil, the group and controller names; then the
// controller's value of each metric in cols.
func comparisonTable(t *Table, ms []measurement, cols []metric, labels [][]string) {
	ms = slices.Clone(ms)
	for i := 0; len(ms) > 0; i++ {
		g, c := ms[0].group, ms[0].controller
		mine := func(m measurement) bool { return m.group == g && m.controller == c }
		r := row{labels: []string{g, c}, ms: make([]measurement, 0, len(cols))}
		if labels != nil {
			r.labels = labels[i]
		}
		for _, col := range cols {
			for _, m := range ms {
				if mine(m) && m.metric == col {
					r.ms = append(r.ms, m)
				}
			}
		}
		t.add(r)
		ms = slices.DeleteFunc(ms, mine)
	}
}

// figureMetrics and figureHeader are fig9–fig12's metric columns and
// the header cells that follow each table's group column.
var (
	figureMetrics = []metric{metricPPW, metricSpeedup, metricAccuracy, metricConvRound}
	figureHeader  = []string{"controller", "PPW (norm)", "conv speedup", "accuracy", "conv round"}
)

// Fig9 reproduces paper Figure 9: PPW, convergence speedup and final
// accuracy of Fixed (Best), Adaptive (BO), Adaptive (GA) and FedGPO
// across the three workloads in the paper's realistic environment
// (co-running interference + Wi-Fi bandwidth variation, §4.2).
func Fig9(o Options) Table {
	t := Table{
		ID:     "fig9",
		Title:  "FedGPO vs baselines across workloads (realistic environment)",
		Header: append([]string{"workload"}, figureHeader...),
	}
	rt := o.runtime()
	var groups []compareGroup
	for _, w := range workload.All() {
		s := o.apply(Realistic(w))
		groups = append(groups, compareGroup{w.Name, s, contenders(w, s, o.WithRuntime(rt))})
	}
	comparisonTable(&t, comparison(groups, o.seeds(), rt), figureMetrics, nil)
	return t
}

// scenarioComparison renders t as one of Figs. 10–12: one group per
// CNN-MNIST scenario, named after it, running the contenders cs picks
// for it.
func scenarioComparison(o Options, t Table, cs func(workload.Workload, ScenarioSpec, Options) []ContenderSpec,
	scenarios ...func(workload.Workload) ScenarioSpec) Table {
	rt := o.runtime()
	w := workload.CNNMNIST()
	var groups []compareGroup
	for _, scenario := range scenarios {
		s := o.apply(scenario(w))
		groups = append(groups, compareGroup{s.Name, s, cs(w, s, o.WithRuntime(rt))})
	}
	t.Header = append([]string{"scenario"}, figureHeader...)
	comparisonTable(&t, comparison(groups, o.seeds(), rt), figureMetrics, nil)
	return t
}

// Fig10 reproduces paper Figure 10: the same comparison for CNN-MNIST
// under (a) no runtime variance, (b) on-device interference, and
// (c) network variance.
func Fig10(o Options) Table {
	return scenarioComparison(o, Table{
		ID:    "fig10",
		Title: "adaptability to runtime variance (CNN-MNIST)",
	}, contenders, Ideal, InterferenceOnly, UnstableNetworkOnly)
}

// Fig11 reproduces paper Figure 11: the comparison for CNN-MNIST with
// and without data heterogeneity.
func Fig11(o Options) Table {
	return scenarioComparison(o, Table{
		ID:    "fig11",
		Title: "adaptability to data heterogeneity (CNN-MNIST)",
	}, contenders, Ideal, NonIIDScenario)
}

// Fig12 reproduces paper Figure 12: FedGPO against the prior-work
// tuners FedEX and ABS on CNN-MNIST, without variance, with runtime
// variance, and with data heterogeneity.
func Fig12(o Options) Table {
	return scenarioComparison(o, Table{
		ID:    "fig12",
		Title: "FedGPO vs FedEX vs ABS (CNN-MNIST)",
	}, priorWork, Ideal, Realistic, NonIIDScenario)
}

// priorWork builds the Fig. 12 comparison set for a scenario. FedEX
// comes first, so the FedGPO rows read as the paper's "1.5x over
// FedEX" style ratios.
func priorWork(_ workload.Workload, s ScenarioSpec, _ Options) []ContenderSpec {
	return []ContenderSpec{
		{Type: ContFedEX, Name: "FedEX", CtrlSeed: 1},
		{Type: ContABS, Name: "ABS", CtrlSeed: 1},
		fedgpoWarmContender(s),
	}
}
