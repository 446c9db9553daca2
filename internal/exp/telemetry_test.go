package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// telemetryScenario is the small deployment the telemetry tests run:
// one static cell plus one FedGPO (cold) cell — the traceable
// contender — at a single seed.
func telemetryScenario() ScenarioSpec {
	s := Ideal(workload.CNNMNIST())
	s.Fleet.Size = 20
	s.MaxRounds = 60
	return s
}

func telemetrySpecs() []JobSpec {
	s := telemetryScenario()
	return []JobSpec{
		simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1),
		simSpec(s, fedgpoColdContender(), 1),
	}
}

// telemetryRun executes the telemetry spec batch and renders the
// results for byte comparison.
func telemetryRun(t *testing.T, rt *Runtime) string {
	t.Helper()
	results := rt.runSpecs(telemetrySpecs())
	sims := make([]fl.Result, len(results))
	for i, res := range results {
		sims[i] = res.Sim
	}
	b, err := json.Marshal(sims)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Tracing and metrics must never change the job's canonical key: the
// traced and untraced encodings of the same cell address one cache
// cell, while the trace artifact lives under its own versioned key.
func TestTraceDoesNotChangeCanonicalKey(t *testing.T) {
	sp := telemetrySpecs()[1]
	plain := sp.Key()
	sp.Trace = telemetry.TraceDecisions
	if traced := sp.Key(); traced != plain {
		t.Errorf("trace level changed the canonical key:\nuntraced %q\ntraced   %q", plain, traced)
	}
	tk := traceKey(sp)
	if !strings.HasPrefix(tk, "v4|trace|decisions|") {
		t.Errorf("trace key %q does not use the versioned trace scheme", tk)
	}
	if tk == plain {
		t.Error("trace artifact key collides with the result key")
	}
}

// The tentpole's determinism guarantee, across every backend: a run
// with decision tracing and telemetry enabled produces byte-identical
// simulation results to an uninstrumented pool run — on the pool
// backend, and over the localhost TCP transport to a pool sharing the
// coordinator's cache directory and to one that does not (where the
// trace level rides the wire spec).
func TestTracedRunsAreByteIdenticalAcrossBackends(t *testing.T) {
	baseRT, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	base := telemetryRun(t, baseRT)

	// Pool backend, tracing on, disk cache.
	poolDir := t.TempDir()
	rtPool, err := NewRuntime(0, poolDir)
	if err != nil {
		t.Fatal(err)
	}
	rtPool.SetTraceLevel(telemetry.TraceDecisions)
	if got := telemetryRun(t, rtPool); got != base {
		t.Errorf("traced pool run differs from untraced run:\n--- untraced ---\n%s\n--- traced ---\n%s", base, got)
	}

	// The traced FedGPO cell published its decision trace as a
	// spec-addressed artifact; the static cell (untraceable) did not.
	fedgpo := telemetrySpecs()[1]
	fedgpo.Trace = telemetry.TraceDecisions
	var trace []core.RoundTrace
	if !rtPool.cache.Get(traceKey(fedgpo), &trace) || len(trace) == 0 {
		t.Fatalf("traced run published no decision trace under %q", traceKey(fedgpo))
	}
	for _, rt := range trace {
		if len(rt.K.Allowed) == 0 {
			t.Errorf("round %d trace has an empty masked action set", rt.Round)
		}
	}
	static := telemetrySpecs()[0]
	static.Trace = telemetry.TraceDecisions
	var none json.RawMessage
	if rtPool.cache.Get(traceKey(static), &none) {
		t.Error("untraceable static cell published a trace artifact")
	}

	// Localhost TCP worker pool sharing the coordinator's cache
	// directory, tracing on.
	procsDir := t.TempDir()
	sharedAddr, stopShared := startWorkerPool(t, 2, procsDir)
	procsCache, err := runtime.NewCache(procsDir)
	if err != nil {
		t.Fatal(err)
	}
	rtProcs := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{sharedAddr},
	}), procsCache)
	rtProcs.SetTraceLevel(telemetry.TraceDecisions)
	if got := telemetryRun(t, rtProcs); got != base {
		t.Errorf("traced cache-sharing TCP run differs from untraced pool run:\n--- pool ---\n%s\n--- tcp ---\n%s", base, got)
	}
	stopShared()
	// The pool appended the trace artifact to its own pack in the shared
	// directory, after the coordinator's Cache built its index; a Cache
	// opened now reads it.
	sharedCache, err := runtime.NewCache(procsDir)
	if err != nil {
		t.Fatal(err)
	}
	var procsTrace []core.RoundTrace
	if !sharedCache.Get(traceKey(fedgpo), &procsTrace) || len(procsTrace) == 0 {
		t.Error("traced cache-sharing TCP run published no decision trace in the shared cache")
	}

	// A second localhost TCP worker pool, tracing on. The coordinator
	// stamps the trace level onto the wire spec; the worker's own trace
	// level is unset, so any trace recorded proves the request crossed
	// the wire.
	workerDir := t.TempDir()
	addr, shutdown := startWorkerPool(t, 2, workerDir)
	coordCache, err := runtime.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{addr},
	}), coordCache)
	rtTCP.SetTraceLevel(telemetry.TraceDecisions)
	if got := telemetryRun(t, rtTCP); got != base {
		t.Errorf("traced TCP run differs from untraced pool run:\n--- pool ---\n%s\n--- tcp ---\n%s", base, got)
	}
	shutdown()
	workerCache, err := runtime.NewCache(workerDir)
	if err != nil {
		t.Fatal(err)
	}
	var tcpTrace []core.RoundTrace
	if !workerCache.Get(traceKey(fedgpo), &tcpTrace) || len(tcpTrace) == 0 {
		t.Error("traced TCP run published no decision trace in the worker's cache")
	}

	// Worker-side telemetry crossed the wire: the coordinator's metrics
	// report the simulation phases its workers timed, and its job-level
	// counters reconcile with the executor stats.
	m := rtTCP.Metrics()
	if m.Phases[telemetry.PhaseRounds].Count == 0 {
		t.Error("TCP coordinator metrics carry no worker-side round timings")
	}
	st := rtTCP.Stats()
	if m.Counters.SimsExecuted != int64(st.Runs) || m.Counters.CacheHits != int64(st.Hits) {
		t.Errorf("TCP metrics counters (sims=%d hits=%d) do not reconcile with stats %+v",
			m.Counters.SimsExecuted, m.Counters.CacheHits, st)
	}
	if len(m.Endpoints) != 1 || m.Endpoints[0].Dispatched != int64(st.Endpoints[0].Dispatched) {
		t.Errorf("metrics endpoints %+v do not mirror executor endpoints %+v", m.Endpoints, st.Endpoints)
	}
	if m.Endpoints[0].Latency.Count == 0 {
		t.Error("TCP dispatch recorded no latency observations")
	}
}

// The trace-cost contract: tracing a cached cell costs exactly one
// re-run (ForceRun captures the trace while republishing byte-identical
// results), and re-tracing an already-traced cell costs zero
// simulations.
func TestTraceReplayCostsOneRunThenZero(t *testing.T) {
	dir := t.TempDir()

	// Untraced cold run fills the result cache.
	rt1, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	base := telemetryRun(t, rt1)
	if st := rt1.Stats(); st.Runs != 2 {
		t.Fatalf("cold run simulated %d cells, want 2", st.Runs)
	}

	// First traced rerun: the traceable FedGPO cell re-executes once to
	// capture its trace; the static cell stays a cache hit.
	rt2, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	rt2.SetTraceLevel(telemetry.TraceDecisions)
	if got := telemetryRun(t, rt2); got != base {
		t.Error("trace-capturing rerun changed the results")
	}
	if st := rt2.Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Errorf("trace-capturing rerun stats = %+v, want 1 run (FedGPO re-trace) / 1 hit (static)", st)
	}

	// Second traced rerun: the artifact exists, so tracing costs zero.
	rt3, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	rt3.SetTraceLevel(telemetry.TraceDecisions)
	if got := telemetryRun(t, rt3); got != base {
		t.Error("warm traced rerun changed the results")
	}
	if st := rt3.Stats(); st.Runs != 0 || st.Hits != 2 {
		t.Errorf("warm traced rerun stats = %+v, want 0 runs / 2 hits", st)
	}
	if m := rt3.Metrics(); m.Counters.SimsExecuted != 0 || m.Counters.CacheHits != 2 {
		t.Errorf("warm traced rerun metrics counters = %+v, want 0 sims / 2 hits", m.Counters)
	}
}

// Metrics reconcile with the executor by construction, and the phase
// clocks cover the instrumented stages: pretrain (controller build),
// rounds and merge (simulator), cache write (disk persistence).
func TestMetricsReconcileAndCoverPhases(t *testing.T) {
	rt, err := NewRuntime(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	telemetryRun(t, rt)
	m, st := rt.Metrics(), rt.Stats()
	if m.Counters.SimsExecuted != int64(st.Runs) {
		t.Errorf("SimsExecuted = %d, stats Runs = %d", m.Counters.SimsExecuted, st.Runs)
	}
	if m.Counters.CacheHits != int64(st.Hits) {
		t.Errorf("CacheHits = %d, stats Hits = %d", m.Counters.CacheHits, st.Hits)
	}
	for _, phase := range []string{telemetry.PhasePretrain, telemetry.PhaseRounds, telemetry.PhaseMerge, telemetry.PhaseCacheWrite} {
		if m.Phases[phase].Count == 0 {
			t.Errorf("phase %q recorded no observations", phase)
		}
	}
	if m.Counters.CacheMisses == 0 {
		t.Error("cold run recorded no cache misses")
	}
	if s := m.Summary(); !strings.Contains(s, "sims executed") {
		t.Errorf("metrics summary %q missing the headline counters", s)
	}
	// The snapshot is JSON-stable: two encodings are byte-identical.
	a, err := json.Marshal(rt.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rt.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("metrics snapshot JSON is not deterministic")
	}
}

// Provenance marks each result with whether its wall-clock fields were
// measured by this run or replayed from the cache — without ever
// entering the cache bytes themselves.
func TestProvenanceMarksMeasuredVersusReplayed(t *testing.T) {
	dir := t.TempDir()
	rt1, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := rt1.runSpecs(telemetrySpecs())
	for _, res := range cold {
		if res.Provenance != runtime.ProvenanceMeasured {
			t.Errorf("cold result %q provenance = %q, want %q", res.Key, res.Provenance, runtime.ProvenanceMeasured)
		}
	}
	rt2, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := rt2.runSpecs(telemetrySpecs())
	for _, res := range warm {
		if res.Provenance != runtime.ProvenanceReplayed {
			t.Errorf("warm result %q provenance = %q, want %q", res.Key, res.Provenance, runtime.ProvenanceReplayed)
		}
	}
	// The tag is in-memory only: cached bytes round-trip without it, so
	// cold and warm cache entries stay byte-identical.
	var cached runtime.Result
	if !rt2.cache.Get(telemetrySpecs()[0].Key(), &cached) {
		t.Fatal("cached cell missing after warm rerun")
	}
	if cached.Provenance != "" {
		t.Errorf("provenance tag %q leaked into the cache bytes", cached.Provenance)
	}
}
