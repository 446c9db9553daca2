package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// telemetryScenario is the small deployment the telemetry tests run:
// one static cell plus one FedGPO (cold) cell at a single seed.
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

// Every backend computes byte-identical simulation results: the
// in-process pool, and the localhost TCP transport to a pool sharing
// the coordinator's cache directory and to one that does not. The
// coordinator's telemetry carries the worker-side phases across the
// wire and reconciles with its executor stats.
func TestRunsAreByteIdenticalAcrossBackends(t *testing.T) {
	baseRT, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	base := telemetryRun(t, baseRT)

	// Localhost TCP worker pool sharing the coordinator's cache
	// directory.
	procsDir := t.TempDir()
	sharedAddr, stopShared := startWorkerPool(t, 2, procsDir)
	procsCache, err := runtime.NewCache(procsDir)
	if err != nil {
		t.Fatal(err)
	}
	rtProcs := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{sharedAddr},
	}), procsCache)
	if got := telemetryRun(t, rtProcs); got != base {
		t.Errorf("cache-sharing TCP run differs from pool run:\n--- pool ---\n%s\n--- tcp ---\n%s", base, got)
	}
	stopShared()

	// A second localhost TCP worker pool with a cache of its own.
	addr, shutdown := startWorkerPool(t, 2, t.TempDir())
	coordCache, err := runtime.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{addr},
	}), coordCache)
	if got := telemetryRun(t, rtTCP); got != base {
		t.Errorf("TCP run differs from pool run:\n--- pool ---\n%s\n--- tcp ---\n%s", base, got)
	}
	shutdown()

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
