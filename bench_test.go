// Package fedgpo's root benchmark harness: one benchmark per paper
// figure/table, each regenerating the artifact through internal/exp.
//
// Benchmarks run at the Quick scale (100 devices, 1 seed) so that
// `go test -bench=.` finishes in seconds; the paper-scale 200-device
// tables come from `go run ./cmd/fedgpo-report [-only <id>,...]`.
//
// Each benchmark additionally reports, via b.ReportMetric, the value
// every paper claim on its table measures (exp.Claims), so regressions
// in the reproduced *result* (not just its runtime) are visible in
// benchmark diffs. A claim whose row or column is gone fails the
// benchmark.
package fedgpo

import (
	"strings"
	"testing"

	"fedgpo/internal/exp"
)

// benchOpts is the shared benchmark scale.
func benchOpts() exp.Options { return exp.Quick() }

// runExperiment executes the experiment b.N times, then reports the
// value each claim on the last table measures, under the claim's name.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table exp.Table
	for i := 0; i < b.N; i++ {
		table = e.Run(benchOpts())
	}
	for _, c := range exp.Claims() {
		if c.Table != id {
			continue
		}
		v, ok := c.Value(table)
		if !ok {
			b.Fatalf("%s: claim %q reads no value", id, c.Name)
		}
		b.ReportMetric(v, strings.Join(strings.Fields(c.Name), "_"))
	}
}

func BenchmarkFig1_ParamSweep(b *testing.B)           { runExperiment(b, "fig1") }
func BenchmarkFig2_WorkloadShift(b *testing.B)        { runExperiment(b, "fig2") }
func BenchmarkFig3_RoundTime(b *testing.B)            { runExperiment(b, "fig3") }
func BenchmarkFig4_RuntimeVariance(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkFig5_AdaptiveEnergy(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig6_AdaptiveSummary(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7_DataHeterogeneity(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig9_Overview(b *testing.B)             { runExperiment(b, "fig9") }
func BenchmarkFig10_RuntimeVariance(b *testing.B)     { runExperiment(b, "fig10") }
func BenchmarkFig11_DataHeterogeneity(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12_PriorWork(b *testing.B)           { runExperiment(b, "fig12") }
func BenchmarkTable5_PredictionAccuracy(b *testing.B) { runExperiment(b, "tab5") }
func BenchmarkSec54_Overhead(b *testing.B)            { runExperiment(b, "sec54") }
func BenchmarkAblation_Epsilon(b *testing.B)          { runExperiment(b, "abl-eps") }
func BenchmarkAblation_GammaMu(b *testing.B)          { runExperiment(b, "abl-gm") }
func BenchmarkAblation_Tables(b *testing.B)           { runExperiment(b, "abl-tables") }
func BenchmarkAblation_Beta(b *testing.B)             { runExperiment(b, "abl-beta") }
func BenchmarkAblation_ColdStart(b *testing.B)        { runExperiment(b, "abl-cold") }
