// Package fedgpo's root benchmark harness: one benchmark per paper
// figure/table, each regenerating the artifact through internal/exp.
//
// Benchmarks run at the Quick scale (100 devices, 1 seed) so that
// `go test -bench=.` finishes in seconds; the paper-scale 200-device
// tables come from `go run ./cmd/fedgpo-report [-only <id>,...]`.
//
// Each benchmark additionally reports a headline metric, read at full
// precision by Table.Value, via b.ReportMetric so regressions in the
// reproduced *result* (not just its runtime) are visible in benchmark
// diffs.
package fedgpo

import (
	"testing"

	"fedgpo/internal/exp"
)

// benchOpts is the shared benchmark scale.
func benchOpts() exp.Options { return exp.Quick() }

// runExperiment executes the experiment b.N times, reporting the last
// table through the supplied metric extractor.
func runExperiment(b *testing.B, id string, metric func(exp.Table) (string, float64)) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table exp.Table
	for i := 0; i < b.N; i++ {
		table = e.Run(benchOpts())
	}
	if metric != nil {
		name, v := metric(table)
		b.ReportMetric(v, name)
	}
}

// value reads one number of t by Table.Value; a missing row or column
// fails the benchmark.
func value(b *testing.B, t exp.Table, column string, labels ...string) float64 {
	b.Helper()
	v, ok := t.Value(column, labels...)
	if !ok {
		b.Fatalf("%s: no %s value in row %q", t.ID, column, labels)
	}
	return v
}

func BenchmarkFig1_ParamSweep(b *testing.B) {
	runExperiment(b, "fig1", func(t exp.Table) (string, float64) {
		// Headline: PPW of B=8 relative to the (1,10,20) baseline.
		return "ppw_B8_vs_base", value(b, t, "PPW (norm)", "B", "8")
	})
}

func BenchmarkFig2_WorkloadShift(b *testing.B) {
	runExperiment(b, "fig2", nil)
}

func BenchmarkFig3_RoundTime(b *testing.B) {
	runExperiment(b, "fig3", func(t exp.Table) (string, float64) {
		// Headline: the L/H gap at B=8, E=10.
		return "LH_gap_E10", value(b, t, "L", "E", "10") / value(b, t, "H", "E", "10")
	})
}

func BenchmarkFig4_RuntimeVariance(b *testing.B) {
	runExperiment(b, "fig4", func(t exp.Table) (string, float64) {
		// Headline: interfered-L inflation over clean L.
		return "intfL_vs_cleanL", value(b, t, "L", "on-device interference") / value(b, t, "L", "no variance")
	})
}

func BenchmarkFig5_AdaptiveEnergy(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

func BenchmarkFig6_AdaptiveSummary(b *testing.B) {
	runExperiment(b, "fig6", func(t exp.Table) (string, float64) {
		return "adaptive_ppw_vs_fixed", value(b, t, "adaptive", "global PPW")
	})
}

func BenchmarkFig7_DataHeterogeneity(b *testing.B) {
	runExperiment(b, "fig7", nil)
}

func BenchmarkFig9_Overview(b *testing.B) {
	runExperiment(b, "fig9", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", value(b, t, "PPW (norm)", "MobileNet-ImageNet", "FedGPO")
	})
}

func BenchmarkFig10_RuntimeVariance(b *testing.B) {
	runExperiment(b, "fig10", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", value(b, t, "PPW (norm)", "unstable-network", "FedGPO")
	})
}

func BenchmarkFig11_DataHeterogeneity(b *testing.B) {
	runExperiment(b, "fig11", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", value(b, t, "PPW (norm)", "non-iid", "FedGPO")
	})
}

func BenchmarkFig12_PriorWork(b *testing.B) {
	runExperiment(b, "fig12", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fedex", value(b, t, "PPW (norm)", "non-iid", "FedGPO")
	})
}

func BenchmarkTable5_PredictionAccuracy(b *testing.B) {
	runExperiment(b, "tab5", func(t exp.Table) (string, float64) {
		return "pred_acc_ideal_pct", value(b, t, "prediction accuracy", "no", "no")
	})
}

func BenchmarkSec54_Overhead(b *testing.B) {
	runExperiment(b, "sec54", nil)
}

func BenchmarkAblation_Epsilon(b *testing.B) {
	runExperiment(b, "abl-eps", nil)
}

func BenchmarkAblation_GammaMu(b *testing.B) {
	runExperiment(b, "abl-gm", nil)
}

func BenchmarkAblation_Tables(b *testing.B) {
	runExperiment(b, "abl-tables", nil)
}

func BenchmarkAblation_Beta(b *testing.B) {
	runExperiment(b, "abl-beta", nil)
}

func BenchmarkAblation_ColdStart(b *testing.B) {
	runExperiment(b, "abl-cold", nil)
}
