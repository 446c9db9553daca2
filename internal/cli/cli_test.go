package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

func parse(t *testing.T, args ...string) *RuntimeFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// The shared block must register every runtime flag once, with the
// pool backend as the default.
func TestRegisterDefaultsAndParsing(t *testing.T) {
	f := parse(t)
	if f.backend() != "pool" || f.Parallel != 0 || f.CacheDir != "" || f.CacheMaxBytes != 0 || f.Workers != "" {
		t.Errorf("unexpected defaults: %+v", f)
	}
	if f.ListScenarios {
		t.Error("list-scenarios should default to false")
	}
	f = parse(t, "-parallel", "3", "-cachedir", "/tmp/x",
		"-cache-max-bytes", "1024", "-workers", "10.0.0.5:9331, 10.0.0.6:9331")
	if f.Parallel != 3 || f.CacheDir != "/tmp/x" || f.CacheMaxBytes != 1024 || f.backend() != "tcp" {
		t.Errorf("flags not parsed: %+v", f)
	}
	if got := f.remotes(); len(got) != 2 || got[0] != "10.0.0.5:9331" || got[1] != "10.0.0.6:9331" {
		t.Errorf("remotes = %v", got)
	}
}

// -workers must select the shard coordinator, one TCP endpoint per
// address, and the backend label the CLIs print must name it.
func TestRuntimeBuildsTCPWorkers(t *testing.T) {
	f := parse(t, "-workers", "127.0.0.1:9331,127.0.0.1:9332")
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if f.backend() != "tcp" {
		t.Errorf("backend label = %q with -workers, want tcp", f.backend())
	}
	// No dial happens at construction; the endpoints are visible in the
	// stats snapshot and each remote counts as one worker until its
	// hello advertises a capacity.
	eps := rt.Stats().Endpoints
	if len(eps) != 2 || eps[0].Endpoint != "tcp:127.0.0.1:9331" || eps[1].Endpoint != "tcp:127.0.0.1:9332" {
		t.Fatalf("remote-only endpoints = %+v", eps)
	}
	if rt.Workers() != 2 {
		t.Errorf("remote-only workers = %d, want 2", rt.Workers())
	}

}

// Runtime must build a pool runtime with the requested worker count
// and prune the cache directory to the configured byte budget at
// startup. Each entry is written through its own cache, so the
// directory holds six packs, and a 1-byte budget removes them all.
func TestRuntimeBuildsPoolAndPrunes(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 6; i++ {
		cache, err := runtime.NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(strings.Repeat("k", i+1), runtime.Result{Key: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if packs, _ := os.ReadDir(dir); len(packs) != 6 {
		t.Fatalf("six caches wrote %d files, want 6 packs", len(packs))
	}
	f := parse(t, "-parallel", "2", "-cachedir", dir, "-cache-max-bytes", "1")
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 2 {
		t.Errorf("runtime workers = %d, want 2", rt.Workers())
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("cache dir holds %d packs after a 1-byte budget prune", len(left))
	}
}

// -list-scenarios must print every preset with parseable resolved
// spec JSON, and stay inert when not requested.
func TestHandleListScenarios(t *testing.T) {
	var quiet strings.Builder
	if parse(t).HandleListScenarios(&quiet) {
		t.Fatal("HandleListScenarios fired without the flag")
	}
	if quiet.Len() != 0 {
		t.Errorf("inert call wrote %q", quiet.String())
	}
	var out strings.Builder
	if !parse(t, "-list-scenarios").HandleListScenarios(&out) {
		t.Fatal("HandleListScenarios did not fire with the flag")
	}
	s := out.String()
	for _, p := range exp.Presets() {
		if !strings.Contains(s, p.Name+" — ") {
			t.Errorf("listing missing preset %q", p.Name)
		}
	}
	// Every JSON block decodes back into a valid scenario spec
	// (presets are separated by blank lines; the indented JSON holds
	// none).
	decoded := 0
	for _, block := range strings.Split(s, "\n\n") {
		i := strings.Index(block, "{")
		if i < 0 {
			continue
		}
		specs, err := exp.DecodeScenarios([]byte(block[i:]))
		if err != nil {
			t.Fatalf("listing JSON does not decode: %v", err)
		}
		decoded += len(specs)
	}
	if decoded != len(exp.Presets()) {
		t.Errorf("listing decoded %d specs, want %d", decoded, len(exp.Presets()))
	}
}

// A malformed -workers address and an unknown trace level must fail
// loudly at startup, not at first batch.
func TestRuntimeRejectsBadBackendConfig(t *testing.T) {
	if _, err := parse(t, "-workers", "127.0.0.1:9331,localhost").Runtime(); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("port-less -workers address error = %v", err)
	}
	if _, err := parse(t, "-trace-level", "bogus").Runtime(); err == nil || !strings.Contains(err.Error(), "trace-level") {
		t.Errorf("bogus trace level error = %v", err)
	}
}

// Finish closes a run of one simulated cell: the runtime line CI greps,
// the -metrics-out snapshot and the -results store all account for it.
func TestFinishReportsTheRun(t *testing.T) {
	dir := t.TempDir()
	results, metrics := filepath.Join(dir, "cells.jsonl"), filepath.Join(dir, "metrics.json")
	f := parse(t, "-parallel", "1", "-results", results, "-metrics-out", metrics)
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := exp.ScenarioMatrix(workload.CNNMNIST(), "fleet=20;alpha=iid;net=stable;rounds=10")
	if err != nil || len(specs) != 1 {
		t.Fatalf("matrix = %d specs, %v; want one", len(specs), err)
	}
	exp.SweepScenarios(exp.Default().WithRuntime(rt), specs, fl.Params{B: 8, E: 10, K: 20}, 1)
	var stderr strings.Builder
	if err := f.Finish(rt, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stderr.String()
	if !strings.HasPrefix(out, "runtime: 1 cells simulated, 0 served from cache; pool backend, 1 workers") {
		t.Errorf("runtime line = %q", out)
	}
	if !strings.Contains(out, "\nresult store: 1 cells -> "+results+"\n") {
		t.Errorf("stderr lacks the result store line: %q", out)
	}
	b, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters struct {
			SimsExecuted int64 `json:"simsExecuted"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(b, &m); err != nil || m.Counters.SimsExecuted != 1 {
		t.Errorf("-metrics-out simsExecuted = %d (%v), want 1", m.Counters.SimsExecuted, err)
	}
	b, err = os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"); len(lines) != 1 || !json.Valid([]byte(lines[0])) {
		t.Errorf("-results holds %d lines, want one JSON line", len(lines))
	}
}

// A -results path that cannot be created fails when the runtime is
// built, before any cell runs, not when Finish closes the store.
func TestRuntimeRejectsUnwritableResults(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "cells.jsonl")
	if _, err := parse(t, "-results", missing).Runtime(); err == nil || !strings.Contains(err.Error(), "no-such-dir") {
		t.Errorf("-results into a missing directory: error = %v", err)
	}
}

// -parallel sizes the in-process pool only: with -workers the fleet's
// capacity is what the pools advertise (one per endpoint until their
// hellos arrive), never the local core count or a -parallel cap.
func TestRuntimeBuildsProcs(t *testing.T) {
	f := parse(t, "-parallel", "3")
	rt, err := f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 3 || f.backend() != "pool" || len(rt.Stats().Endpoints) != 0 {
		t.Errorf("-parallel 3 built %d workers on %q with %d endpoints, want a 3-worker pool",
			rt.Workers(), f.backend(), len(rt.Stats().Endpoints))
	}
	f = parse(t, "-parallel", "3", "-workers", "127.0.0.1:9331")
	rt, err = f.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 1 || f.backend() != "tcp" || len(rt.Stats().Endpoints) != 1 {
		t.Errorf("-workers with -parallel 3 built %d workers on %q with %d endpoints, want one unprobed TCP endpoint",
			rt.Workers(), f.backend(), len(rt.Stats().Endpoints))
	}
}

// The -v summary prints the fleet in snapshot order, which the
// collector sorts by name — so two runs over the same fleet list
// endpoints identically regardless of dispatch timing.
func TestEndpointOrderingDeterministic(t *testing.T) {
	rt, err := parse(t, "-workers", "127.0.0.1:9332,127.0.0.1:9331").Runtime()
	if err != nil {
		t.Fatal(err)
	}
	eps := rt.Stats().Endpoints
	if len(eps) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(eps))
	}
	if eps[0].Endpoint > eps[1].Endpoint {
		t.Errorf("endpoint stats not sorted by name: %q before %q", eps[0].Endpoint, eps[1].Endpoint)
	}
}

// ExitOnJobError recovers a failed cell's *exp.JobError only: any other
// panic must keep propagating with its value intact.
func TestExitOnJobErrorRepanicsOthers(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the original panic value", r)
		}
	}()
	func() {
		defer ExitOnJobError()
		panic("boom")
	}()
}

// A failed cell's *exp.JobError ends the process with exit status 1
// and exactly its one error line on stderr — no goroutine dump.
func TestExitOnJobErrorExitsOne(t *testing.T) {
	je := &exp.JobError{Key: "v4|sim|cell", Err: "dial 127.0.0.1:1: connection refused"}
	if os.Getenv("FEDGPO_TEST_JOB_ERROR") == "1" {
		defer ExitOnJobError()
		panic(je)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExitOnJobErrorExitsOne$")
	cmd.Env = append(os.Environ(), "FEDGPO_TEST_JOB_ERROR=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want exit status 1", err)
	}
	if got, want := stderr.String(), je.Error()+"\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
}
