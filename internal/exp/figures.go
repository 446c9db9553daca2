package exp

import (
	"fmt"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

// Options scales experiments between full paper size and quick test
// size, and configures the experiment runtime they execute on.
type Options struct {
	// FleetSize overrides the 200-device deployment (0 = paper size).
	FleetSize int
	// Seeds overrides the evaluation seed set (nil = default).
	Seeds []int64
	// MaxRounds overrides the per-run round budget (0 = default).
	MaxRounds int
	// rt is the bound experiment runtime; see WithRuntime.
	rt *Runtime
}

// Default returns the paper-scale options.
func Default() Options { return Options{} }

// Quick returns reduced options for benchmarks: a 100-device fleet and
// a single seed. The fleet cannot shrink much further — the energy
// economics that make larger K worthwhile come from the idle fleet's
// draw, which vanishes in toy deployments.
func Quick() Options { return Options{FleetSize: 100, Seeds: []int64{1}, MaxRounds: 300} }

// Tiny returns the smallest option set used by unit tests; its absolute
// results are not representative (see Quick).
func Tiny() Options { return Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 200} }

// WithRuntime binds a shared experiment runtime to the options: every
// figure generated from the returned Options uses its worker pool, run
// cache and result store, so identical cells are simulated once across
// the whole report.
func (o Options) WithRuntime(rt *Runtime) Options {
	o.rt = rt
	return o
}

// runtime returns the bound runtime, or a fresh in-memory pool runtime
// for direct figure calls.
func (o Options) runtime() *Runtime {
	if o.rt != nil {
		return o.rt
	}
	rt, _ := NewRuntime(0, "") // a memory-only cache cannot fail
	return rt
}

func (o Options) seeds() []int64 {
	if len(o.Seeds) == 0 {
		return Seeds()
	}
	return o.Seeds
}

func (o Options) apply(s ScenarioSpec) ScenarioSpec {
	if o.FleetSize > 0 {
		s.Fleet.Size = o.FleetSize
	}
	if o.MaxRounds > 0 {
		s.MaxRounds = o.MaxRounds
	}
	return s
}

// Fig1 reproduces paper Figure 1: convergence round and global PPW of
// CNN-MNIST while sweeping each global parameter with the others held
// at the characterization baseline (1, 10, 20). Values are normalized
// to the baseline, exactly as the figure plots them.
func Fig1(o Options) Table {
	s := o.apply(Ideal(workload.CNNMNIST()))
	type point struct {
		param string
		value int
		p     fl.Params
	}
	var points []point
	for _, v := range fl.BValues() {
		points = append(points, point{"B", v, fl.Params{B: v, E: 10, K: 20}})
	}
	// The E and K sweeps anchor at B=8 (the batch optimum) so their
	// convergence columns carry signal; values stay normalized to the
	// paper's (1,10,20) characterization baseline.
	for _, v := range fl.EValues() {
		points = append(points, point{"E", v, fl.Params{B: 8, E: v, K: 20}})
	}
	for _, v := range fl.KValues() {
		points = append(points, point{"K", v, fl.Params{B: 8, E: 10, K: v}})
	}

	cells := []cell{{s, staticContender(fl.DefaultParams(), "")}}
	for _, pt := range points {
		cells = append(cells, cell{s, staticContender(pt.p, "")})
	}
	sums := o.runtime().summaries(cells, o.seeds())
	base := sums[0]

	t := Table{
		ID:     "fig1",
		Title:  "CNN-MNIST convergence round and global PPW vs (B, E, K), normalized to (1,10,20)",
		Header: []string{"param", "value", "conv round (norm)", "PPW (norm)"},
	}
	var ms []measurement
	for i, pt := range points {
		r, v := sums[i+1], fmt.Sprint(pt.value)
		ms = append(ms,
			measurement{pt.param, v, metricConvRound, r.MeanConvergenceRound / base.MeanConvergenceRound, unitRatio},
			measurement{pt.param, v, metricPPW, r.MeanPPW / base.MeanPPW, unitRatio})
	}
	comparisonTable(&t, ms, []metric{metricConvRound, metricPPW}, nil)
	t.Notes = append(t.Notes,
		"paper expectation: optima away from the (1,10,20) baseline; best B near 8, E near 10, K near 20")
	return t
}

// Fig2 reproduces paper Figure 2: the most energy-efficient (B, E, K)
// combination shifts between CNN-MNIST and LSTM-Shakespeare. The table
// reports global PPW over a (B, E) grid at K=20 for both workloads,
// normalized per-workload to its (1,10,20) baseline, and names each
// workload's best setting.
func Fig2(o Options) Table {
	t := Table{
		ID:     "fig2",
		Title:  "most energy-efficient (B,E,K) shifts with NN characteristics (K=20)",
		Header: []string{"workload", "B", "E", "PPW (norm)"},
	}
	var grid []fl.Params
	for _, b := range []int{2, 4, 8, 16} {
		for _, e := range []int{5, 10, 15, 20} {
			grid = append(grid, fl.Params{B: b, E: e, K: 20})
		}
	}
	ws := []workload.Workload{workload.CNNMNIST(), workload.LSTMShakespeare()}

	var cells []cell
	for _, w := range ws {
		s := o.apply(Ideal(w))
		cells = append(cells, cell{s, staticContender(fl.DefaultParams(), "")})
		for _, p := range grid {
			cells = append(cells, cell{s, staticContender(p, "")})
		}
	}
	sums := o.runtime().summaries(cells, o.seeds())
	for _, w := range ws {
		base, rs := sums[0], sums[1:1+len(grid)]
		sums = sums[1+len(grid):]
		ms := make([]measurement, len(grid))
		for i, p := range grid {
			ms[i] = measurement{w.Name, p.String(), metricPPW, rs[i].MeanPPW / base.MeanPPW, unitRatio}
			t.add(row{labels: []string{w.Name, fmt.Sprint(p.B), fmt.Sprint(p.E)}, ms: ms[i : i+1]})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s best setting: %s", w.Name, ms[bestPPW(rs)].controller))
	}
	t.Notes = append(t.Notes,
		"paper expectation: CNN-MNIST best near (8,10,20); LSTM-Shakespeare shifts to smaller B, larger E (paper: (4,20,20))")
	return t
}

// Fig3 reproduces paper Figure 3: per-round local training time of each
// device category as a function of (a) B at E=10 and (b) E at B=8,
// normalized to the H category at B=1 / E=10 respectively. This is a
// pure device-model characterization — it evaluates closed-form device
// models, runs no simulation, and completes in microseconds at any
// deployment scale — so the Options every registry constructor accepts
// are deliberately ignored: fleet size, seeds and round budgets have
// nothing to scale here, and a -tiny or -quick run pays the same
// (negligible) price as a paper-scale one.
func Fig3(_ Options) Table {
	w := workload.CNNMNIST()
	profiles := device.Profiles()
	t := Table{
		ID:     "fig3",
		Title:  "training time per round by device category vs B (E=10) and E (B=8)",
		Header: []string{"sweep", "value", "H", "M", "L"},
	}
	timeOf := func(cat device.Category, b, e int) float64 {
		p := profiles[cat]
		return device.ComputeSeconds(&p, w.Shape, b, e, w.SamplesPerDevice, device.Interference{})
	}
	// sweep adds the row of sweep point axis=v, run at (b, e).
	sweep := func(axis string, v, b, e int, base float64) {
		r := row{labels: []string{axis, fmt.Sprint(v)}}
		for _, cat := range device.Categories() {
			r.ms = append(r.ms, measurement{fmt.Sprintf("%s=%d", axis, v), cat.String(), metricTrainTime,
				timeOf(cat, b, e) / base, unitRatio})
		}
		t.add(r)
	}
	baseB := timeOf(device.High, 1, 10)
	for _, b := range fl.BValues() {
		sweep("B", b, b, 10, baseB)
	}
	baseE := timeOf(device.High, 8, 10)
	for _, e := range fl.EValues() {
		sweep("E", e, 8, e, baseE)
	}
	t.Notes = append(t.Notes,
		"paper expectation: large H-to-L gaps at every setting; time falls with B (overhead amortization) and scales linearly with E")
	return t
}

// Fig4 reproduces paper Figure 4: per-category round time (compute +
// communication) in the absence of variance, under on-device
// interference, and under an unstable network — normalized to H with no
// variance. Like Fig3 it is a pure device/channel-model
// characterization (no simulation), so Options are deliberately
// ignored — there is no deployment to scale.
func Fig4(_ Options) Table {
	w := workload.CNNMNIST()
	profiles := device.Profiles()
	t := Table{
		ID:     "fig4",
		Title:  "round time by category under runtime variance (B=8, E=10)",
		Header: []string{"condition", "H", "M", "L"},
	}
	webIntf := device.Interference{
		CPUUsage: interfere.WebBrowsing().MeanCPU,
		MemUsage: interfere.WebBrowsing().MeanMem,
	}
	stable := netsim.StableChannel()
	goodCond := netsim.Condition{BandwidthMbps: stable.MeanMbps, Signal: netsim.SignalStrong}
	badCond := netsim.Condition{BandwidthMbps: 10, Signal: netsim.SignalWeak}

	roundTime := func(cat device.Category, intf device.Interference, cond netsim.Condition) float64 {
		p := profiles[cat]
		comp := device.ComputeSeconds(&p, w.Shape, 8, 10, w.SamplesPerDevice, intf)
		comm := stable.CommRoundTrip(w.Shape.ModelBytes, cond).Seconds
		return comp + comm
	}
	base := roundTime(device.High, device.Interference{}, goodCond)
	addRow := func(label string, intf device.Interference, cond netsim.Condition) {
		r := row{labels: []string{label}}
		for _, cat := range device.Categories() {
			r.ms = append(r.ms, measurement{label, cat.String(), metricRoundTime,
				roundTime(cat, intf, cond) / base, unitRatio})
		}
		t.add(r)
	}
	addRow("no variance", device.Interference{}, goodCond)
	addRow("on-device interference", webIntf, goodCond)
	addRow("unstable network", device.Interference{}, badCond)
	t.Notes = append(t.Notes,
		"paper expectation: interference widens the inter-category gap; network instability inflates all categories' times")
	return t
}

// fixedVsAdaptive runs Figs. 5–6's two cells in one batch: CNN-MNIST
// in the realistic environment at fixed (8,10,20) and under warm
// FedGPO, whose per-device parameters adapt.
func fixedVsAdaptive(o Options) (fixed, adaptive fl.Summary) {
	s := o.apply(Realistic(workload.CNNMNIST()))
	sums := o.runtime().summaries([]cell{
		{s, staticContender(fl.Params{B: 8, E: 10, K: 20}, "")},
		{s, fedgpoWarmContender(s)},
	}, o.seeds())
	return sums[0], sums[1]
}

// fixedAdaptiveRow is a Figs. 5–6 row: label, then metric mt of the
// fixed and the adaptive run.
func fixedAdaptiveRow(label string, mt metric, fixed, adaptive float64, unit string) row {
	return row{labels: []string{label}, ms: []measurement{
		{label, "fixed", mt, fixed, unit}, {label, "adaptive", mt, adaptive, unit}}}
}

// Fig5 reproduces paper Figure 5: per-category participant energy per
// round with fixed parameters versus adaptive per-device parameters,
// normalized to the H category under fixed parameters. Adaptive numbers
// come from a warmed-up FedGPO controller in the realistic environment.
func Fig5(o Options) Table {
	fixed, adaptive := fixedVsAdaptive(o)
	// Per-round, per-category energy (total category energy over
	// counted rounds).
	t := Table{
		ID:     "fig5",
		Title:  "per-category energy: fixed vs adaptive parameters (normalized to H fixed)",
		Header: []string{"category", "fixed", "adaptive"},
	}
	base := fixed.EnergyByCategory[device.High]
	if base <= 0 {
		base = 1
	}
	for _, cat := range device.Categories() {
		t.add(fixedAdaptiveRow(cat.String(), metricEnergy,
			fixed.EnergyByCategory[cat]/base, adaptive.EnergyByCategory[cat]/base, unitRatio))
	}
	t.Notes = append(t.Notes,
		"paper expectation: adaptive parameters cut every category's energy by removing straggler wait")
	return t
}

// Fig6 reproduces paper Figure 6: convergence round, average training
// time per round, and global PPW of fixed versus adaptive parameters,
// normalized to fixed. Its two cells are Fig5's, so under a shared
// runtime they are served from the run cache.
func Fig6(o Options) Table {
	fixed, adaptive := fixedVsAdaptive(o)
	t := Table{
		ID:     "fig6",
		Title:  "fixed vs adaptive parameters (normalized to fixed)",
		Header: []string{"metric", "fixed", "adaptive"},
	}
	t.add(
		fixedAdaptiveRow("convergence round", metricConvRound,
			1, adaptive.MeanConvergenceRound/fixed.MeanConvergenceRound, unitRatio),
		fixedAdaptiveRow("avg round time speedup", metricRoundSpeedup,
			1, fixed.MeanAvgRoundSec/adaptive.MeanAvgRoundSec, unitRatio),
		fixedAdaptiveRow("global PPW", metricPPW, 1, adaptive.MeanPPW/fixed.MeanPPW, unitRatio),
		fixedAdaptiveRow("final accuracy", metricAccuracy,
			100*fixed.MeanFinalAccuracy, 100*adaptive.MeanFinalAccuracy, unitPct))
	t.Notes = append(t.Notes,
		"paper expectation: adaptive improves avg round time (paper 2.3x) and PPW (paper 3.6x) while keeping convergence rounds similar")
	return t
}

// Fig7 reproduces paper Figure 7: global PPW across (B, E, K) settings
// with and without data heterogeneity. The table reports PPW normalized
// to the IID best and names the best setting in each regime — the paper
// observes the optimum shifting from (8,10,20) to (8,5,10) under
// non-IID data.
func Fig7(o Options) Table {
	w := workload.CNNMNIST()
	grid := []fl.Params{}
	for _, e := range []int{5, 10, 15} {
		for _, k := range []int{5, 10, 20} {
			grid = append(grid, fl.Params{B: 8, E: e, K: k})
		}
	}
	t := Table{
		ID:     "fig7",
		Title:  "global PPW across (B,E,K) — IID vs non-IID (Dirichlet 0.1)",
		Header: []string{"regime", "(B,E,K)", "PPW (norm to regime best)"},
	}
	regimes := []struct {
		name string
		s    ScenarioSpec
	}{
		{"IID", o.apply(Ideal(w))},
		{"non-IID", o.apply(NonIIDScenario(w))},
	}
	var cells []cell
	for _, regime := range regimes {
		for _, p := range grid {
			cells = append(cells, cell{regime.s, staticContender(p, "")})
		}
	}
	sums := o.runtime().summaries(cells, o.seeds())
	for ri, regime := range regimes {
		rs := sums[ri*len(grid) : (ri+1)*len(grid)]
		best := bestPPW(rs)
		ms := make([]measurement, len(grid))
		for i, p := range grid {
			ms[i] = measurement{regime.name, p.String(), metricPPW, rs[i].MeanPPW / rs[best].MeanPPW, unitRatio}
			t.add(row{labels: []string{regime.name, p.String()}, ms: ms[i : i+1]})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s best setting: %s", regime.name, ms[best].controller))
	}
	t.Notes = append(t.Notes,
		"paper expectation: non-IID degrades all settings and shifts the optimum toward smaller E and K (paper: (8,10,20) -> (8,5,10))")
	return t
}
