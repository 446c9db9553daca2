package main

import (
	"os"
	"testing"

	"fedgpo/internal/exp"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke test's runs start their per-iteration child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-iterate" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func sec54Fixture(identify, share, paperMemory string) exp.Table {
	t := exp.Table{ID: "sec54", Title: "FedGPO convergence and overhead analysis", Header: []string{"quantity", "measured", "paper"}}
	t.AddRow("reward convergence round", "93", "30-40")
	t.AddRow("identify per-device states", identify, "496.8 us")
	t.AddRow("choose global parameters", "6.8 us", "0.2 us")
	t.AddRow("calculate reward", "0.6 us", "2.1 us")
	t.AddRow("update Q-tables", "7.3 us", "0.5 us")
	t.AddRow("total controller overhead", "17.7 us", "499.6 us")
	t.AddRow("overhead share of round time", share, "0.7%")
	t.AddRow("Q-table memory", "10.2 KB", paperMemory)
	return t
}

func TestMaskHidesOnlyWallClockCells(t *testing.T) {
	base := sec54Fixture("3.0 us", "0.0%", "~400 KB (0.4 MB)")
	want := tablesDigest([]exp.Table{base})
	if got := tablesDigest([]exp.Table{sec54Fixture("4.4 us", "0.1%", "~400 KB (0.4 MB)")}); got != want {
		t.Error("changed wall-clock cells changed the digest")
	}
	if got := tablesDigest([]exp.Table{sec54Fixture("3.0 us", "0.0%", "~500 KB")}); got == want {
		t.Error("a changed paper cell kept the digest")
	}
	moved := sec54Fixture("3.0 us", "0.0%", "~400 KB (0.4 MB)")
	moved.Rows[0][1] = "94"
	if got := tablesDigest([]exp.Table{moved}); got == want {
		t.Error("a changed simulated result kept the digest")
	}
	if base.Rows[1][1] != "3.0 us" {
		t.Error("masking modified the table it hashed")
	}
	// The same row label outside sec54 is a result, not a timing.
	other := sec54Fixture("3.0 us", "0.0%", "~400 KB (0.4 MB)")
	other.ID = "fig9"
	changed := sec54Fixture("4.4 us", "0.0%", "~400 KB (0.4 MB)")
	changed.ID = "fig9"
	if tablesDigest([]exp.Table{other}) == tablesDigest([]exp.Table{changed}) {
		t.Error("a cell outside sec54 was masked")
	}
}

// TestSmokeEveryWorkloadTraced runs each workload end to end at the Tiny
// scale — set-up, one timed iteration, the traced iteration with every
// probe — through the same child processes a real run uses.
func TestSmokeEveryWorkloadTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the report in child processes")
	}
	var recs []runRecord
	for _, d := range workloads {
		rec, tr, err := runWorkload(runOptions{def: d, seed: 1, tiny: true, minIters: 1, setups: 1, trace: true}, os.Stderr)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Iterations != 1 {
			t.Errorf("%s: correct=%v failed=%d iterations=%d failures=%v", d.name, rec.Correct, rec.Failed, rec.Iterations, rec.Failures)
		}
		for _, def := range endToEndDefs {
			if s := rec.Metrics[def.Name]; s.N == 0 || !(s.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v over %d samples, want a positive measurement", d.name, def.Name, s.Value, s.N)
			}
		}
		for _, def := range layerDefs {
			if _, ok := rec.PerLayer[def.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", d.name, def.Name)
			}
		}
		if tr == nil || len(tr.Spans) == 0 || len(tr.Violations) != 0 {
			t.Errorf("%s: traced pass %+v", d.name, tr)
		}
		recs = append(recs, *rec)
	}
	if bad := crossCheck(recs); len(bad) != 0 {
		t.Error(bad)
	}
}

// TestBenchmarkFileMatchesTheCode keeps BENCHMARK.json and this
// program in step: the same workloads, and the same metrics with the
// same units, in the same order.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	var bf struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the code has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%q), the code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the code has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: %+v, the code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndDefs)
	same("per_layer", bf.PerLayer, layerDefs)
	setup := 0.0
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s: bound %v, want (0, 0.25] and at most setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}
