// Package fedgpo's root benchmark harness: one benchmark per paper
// figure/table, each regenerating the artifact through internal/exp.
//
// Benchmarks run at the Quick scale (100 devices, 1 seed) so that
// `go test -bench=.` finishes in minutes; the paper-scale 200-device
// tables come from `go run ./cmd/fedgpo-report [-only <id>,...]`.
//
// Each benchmark additionally reports a headline metric via
// b.ReportMetric so regressions in the reproduced *result* (not just
// its runtime) are visible in benchmark diffs.
package fedgpo

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"fedgpo/internal/exp"
)

// benchOpts is the shared benchmark scale.
func benchOpts() exp.Options { return exp.Quick() }

// ratioCell parses a "1.23x" table cell.
func ratioCell(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%fx", &v)
	return v
}

// pctCell parses a "95.1%" table cell.
func pctCell(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v
}

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

// lastRatioFor finds the last row matching the controller name and
// returns the ratio in the given column.
func lastRatioFor(t exp.Table, controller string, col int) float64 {
	v := 0.0
	for _, row := range t.Rows {
		if len(row) > col && row[1] == controller {
			v = ratioCell(row[col])
		}
	}
	return v
}

func BenchmarkFig1_ParamSweep(b *testing.B) {
	runExperiment(b, "fig1", func(t exp.Table) (string, float64) {
		// Headline: PPW of B=8 relative to the (1,10,20) baseline.
		for _, row := range t.Rows {
			if row[0] == "B" && row[1] == "8" {
				return "ppw_B8_vs_base", ratioCell(row[3])
			}
		}
		return "ppw_B8_vs_base", 0
	})
}

func BenchmarkFig2_WorkloadShift(b *testing.B) {
	runExperiment(b, "fig2", nil)
}

func BenchmarkFig3_RoundTime(b *testing.B) {
	runExperiment(b, "fig3", func(t exp.Table) (string, float64) {
		// Headline: the L/H gap at B=8, E=10.
		for _, row := range t.Rows {
			if row[0] == "E" && row[1] == "10" {
				return "LH_gap_E10", ratioCell(row[4]) / ratioCell(row[2])
			}
		}
		return "LH_gap_E10", 0
	})
}

func BenchmarkFig4_RuntimeVariance(b *testing.B) {
	runExperiment(b, "fig4", func(t exp.Table) (string, float64) {
		// Headline: interfered-L inflation over clean L.
		return "intfL_vs_cleanL", ratioCell(t.Rows[1][3]) / ratioCell(t.Rows[0][3])
	})
}

func BenchmarkFig5_AdaptiveEnergy(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

func BenchmarkFig6_AdaptiveSummary(b *testing.B) {
	runExperiment(b, "fig6", func(t exp.Table) (string, float64) {
		for _, row := range t.Rows {
			if row[0] == "global PPW" {
				return "adaptive_ppw_vs_fixed", ratioCell(row[2])
			}
		}
		return "adaptive_ppw_vs_fixed", 0
	})
}

func BenchmarkFig7_DataHeterogeneity(b *testing.B) {
	runExperiment(b, "fig7", nil)
}

func BenchmarkFig9_Overview(b *testing.B) {
	runExperiment(b, "fig9", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkFig10_RuntimeVariance(b *testing.B) {
	runExperiment(b, "fig10", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkFig11_DataHeterogeneity(b *testing.B) {
	runExperiment(b, "fig11", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fixed", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkFig12_PriorWork(b *testing.B) {
	runExperiment(b, "fig12", func(t exp.Table) (string, float64) {
		return "fedgpo_ppw_vs_fedex", lastRatioFor(t, "FedGPO", 2)
	})
}

func BenchmarkTable5_PredictionAccuracy(b *testing.B) {
	runExperiment(b, "tab5", func(t exp.Table) (string, float64) {
		return "pred_acc_ideal_pct", pctCell(t.Rows[0][2])
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
