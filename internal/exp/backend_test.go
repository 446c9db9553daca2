package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/rl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/runtime/wire"
	"fedgpo/internal/workload"
)

// buildWorker compiles the real fedgpo-worker binary for the
// cross-process tests. The test environment always has the Go
// toolchain (it is running the tests).
func buildWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fedgpo-worker")
	out, err := exec.Command("go", "build", "-o", bin, "fedgpo/cmd/fedgpo-worker").CombinedOutput()
	if err != nil {
		t.Fatalf("building fedgpo-worker: %v\n%s", err, out)
	}
	return bin
}

// startWorkerProcess launches the real fedgpo-worker binary as a TCP
// pool on a free localhost port, sharing cacheDir, and returns its
// address — read back from the "listening on" stderr line — plus a
// func that stops it with SIGTERM and waits for the graceful drain.
func startWorkerProcess(t *testing.T, bin string, capacity int, cacheDir string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-capacity", strconv.Itoa(capacity), "-cachedir", cacheDir)
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting fedgpo-worker: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Keep draining after the address line so session logs never
		// block the worker.
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
			}
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	stop := func() error {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		err := cmd.Wait()
		_ = pw.Close()
		return err
	}
	select {
	case addr := <-addrc:
		return addr, func() {
			if err := stop(); err != nil {
				t.Errorf("fedgpo-worker drain: %v", err)
			}
		}
	case <-time.After(30 * time.Second):
		_ = stop()
		t.Fatal("fedgpo-worker never reported its listening address")
		return "", nil
	}
}

// deadAddr returns a localhost address nothing listens on: any dial to
// it fails.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()
	return addr
}

// runRegistry renders every registry experiment under one runtime, in
// registry order.
func runRegistry(t *testing.T, rt *Runtime) map[string]Table {
	t.Helper()
	opts := registryOptions().WithRuntime(rt)
	tables := make(map[string]Table, len(Registry()))
	for _, e := range Registry() {
		tables[e.ID] = e.Run(opts)
	}
	return tables
}

// renderMasked renders a table's markdown for fresh-run-vs-fresh-run
// comparison: identical bytes everywhere except Sec54's wall-clock
// cells, which are blanked on both sides. Those are the rows its
// wall-clock claims name: the documented exception to cross-execution
// byte identity (two fresh runs measure different real microseconds;
// see sec54Extra). It masks copies of the rows, so the caller's table
// still prints and reads its wall-clock cells.
func renderMasked(tab Table) string {
	if tab.ID == "sec54" {
		_, claims := paperClaims(tab.ID)
		wallClock := func(label string) bool {
			return slices.ContainsFunc(claims, func(c Claim) bool { return c.wallClock && c.Name == label })
		}
		rows := slices.Clone(tab.Rows)
		for i, row := range rows {
			if len(row) >= 2 && wallClock(row[0]) {
				rows[i] = slices.Clone(row)
				rows[i][1] = "<wall-clock>"
			}
		}
		tab.Rows = rows
	}
	return tab.Markdown()
}

// startWorkerPool serves a TCP worker pool in-process, executing jobs
// through its own exp.Runtime exactly like `fedgpo-worker -listen`
// does, and returns its address plus a shutdown func (graceful drain).
func startWorkerPool(t *testing.T, capacity int, cacheDir string) (string, func()) {
	t.Helper()
	wrt, err := NewRuntime(1, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- runtime.Serve(ctx, lis, runtime.ServeConfig{
			Capacity: capacity,
			Run:      wrt.RunRequest,
			Install:  wrt.InstallSnapshot,
		})
	}()
	return lis.Addr().String(), func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("worker pool drain: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("worker pool did not drain")
		}
	}
}

// A live worker pool answers malformed requests with error results and
// keeps serving: over one real TCP session, a spec that does not decode
// and a spec addressing another cell each get an error result, and the
// valid request after them still runs. A second session that announces
// a frame over wire.MaxFrameBytes is closed, and the pool then serves a
// fresh session as before.
func TestWorkerPoolSurvivesBadRequests(t *testing.T) {
	addr, shutdown := startWorkerPool(t, 1, "")
	defer shutdown()
	ref, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	s := telemetryScenario()
	good := simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1)
	other := simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 2)
	key := ref.Job(good).Key()
	tcp := &runtime.TCPTransport{Addr: addr}
	runGood := func(conn runtime.Conn) {
		t.Helper()
		if err := conn.Send(runtime.WireRequest{Key: key, Spec: EncodeJobSpec(good)}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Err != "" || len(resp.Result.Sim.History) == 0 {
			t.Errorf("valid request: err %q, %d rounds; want a simulated result", resp.Result.Err, len(resp.Result.Sim.History))
		}
	}

	conn, err := tcp.Dial()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec json.RawMessage
		want string
	}{
		{json.RawMessage(`{"kind":`), "job spec decode"},
		{EncodeJobSpec(other), "spec addresses"},
	} {
		if err := conn.Send(runtime.WireRequest{Key: key, Spec: c.spec}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Key != key || !strings.Contains(resp.Result.Err, c.want) {
			t.Errorf("bad request answered %q with error %q, want an error result containing %q", resp.Key, resp.Result.Err, c.want)
		}
	}
	runGood(conn)
	_ = conn.Close()

	// Oversized length prefix: the worker refuses the frame before
	// reading its body and ends the session.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := wire.ReadFrame(nc, 1); err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], wire.MaxFrameBytes+1)
	if _, err := nc.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	if n, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("session after an oversized length prefix: read %d bytes, err %v; want it closed", n, err)
	}

	conn, err = tcp.Dial()
	if err != nil {
		t.Fatalf("pool stopped accepting sessions: %v", err)
	}
	defer conn.Close()
	runGood(conn)
}

// The TCP transport's acceptance contract, at the table level: the
// same 2×2 matrix run against a localhost worker pool produces
// byte-identical results to the pool backend, a fresh run simulates
// every cell, and a warm -cachedir rerun simulates zero cells without
// any live worker pool at all — even though the worker pool cached
// under its own (different) directory, because the coordinator
// persists every result it receives.
func TestScenarioMatrixTCPBackendWarmCache(t *testing.T) {
	specs, err := ScenarioMatrix(workload.CNNMNIST(),
		"fleet=20;alpha=iid,0.5;net=stable,unstable;rounds=60")
	if err != nil {
		t.Fatal(err)
	}
	p := fl.Params{B: 8, E: 10, K: 20}
	run := func(rt *Runtime) string {
		res := SweepScenarios(Options{}.WithRuntime(rt), specs, p, 1)
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	rtPool, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	pool := run(rtPool)

	addr, shutdown := startWorkerPool(t, 2, t.TempDir())
	coordDir := t.TempDir()
	coordCache, err := runtime.NewCache(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{addr},
	}), coordCache)
	if tcp := run(rtTCP); tcp != pool {
		t.Errorf("TCP matrix results differ from pool:\n--- pool ---\n%s\n--- tcp ---\n%s", pool, tcp)
	}
	if st := rtTCP.Stats(); st.Runs != 4 || st.Hits != 0 {
		t.Errorf("fresh TCP matrix run stats = %+v, want 4 runs / 0 hits", st)
	}
	if st := rtTCP.Stats(); len(st.Endpoints) != 1 || st.Endpoints[0].Dispatched != 4 {
		t.Errorf("endpoint stats = %+v, want 4 dispatched on the one TCP endpoint", st.Endpoints)
	}
	shutdown()

	// Warm rerun against the coordinator's cache with the worker pool
	// gone: hit-only, byte-identical.
	warmCache, err := runtime.NewCache(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	rtWarm := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{addr},
	}), warmCache)
	if warm := run(rtWarm); warm != pool {
		t.Error("warm TCP rerun produced different results")
	}
	if st := rtWarm.Stats(); st.Runs != 0 || st.Hits != 4 {
		t.Errorf("warm TCP rerun stats = %+v, want 0 runs / 4 hits", st)
	}
}

// The acceptance contract of the pluggable-backend refactor, enforced
// registry-wide:
//
//  1. a fresh run through a real fedgpo-worker -listen process produces
//     byte-identical tables to a fresh pool run (modulo Sec54's
//     documented wall-clock cells). The worker is a separate process,
//     so no in-process state can leak between the two sides;
//  2. a warm -cachedir rerun on the coordinator performs zero
//     simulations and reproduces the pool run's bytes exactly, Sec54
//     included (cached replay) — without ever dialing a worker.
func TestProcsBackendMatchesPoolAcrossRegistry(t *testing.T) {
	worker := buildWorker(t)

	// Fresh pool run, persisted to disk.
	poolDir := t.TempDir()
	rtPool, err := NewRuntime(0, poolDir)
	if err != nil {
		t.Fatal(err)
	}
	poolTables := runRegistry(t, rtPool)
	if rtPool.Stats().Runs == 0 {
		t.Fatal("pool run simulated nothing")
	}

	// Warm coordinator rerun over the pool run's cache. The endpoint
	// is an address nothing listens on: if any cell were dispatched
	// instead of served from cache, the run would fail loudly.
	warmCache, err := runtime.NewCache(poolDir)
	if err != nil {
		t.Fatal(err)
	}
	rtWarm := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{deadAddr(t)},
	}), warmCache)
	warmTables := runRegistry(t, rtWarm)
	if st := rtWarm.Stats(); st.Runs != 0 || st.Hits == 0 {
		t.Errorf("warm coordinator rerun stats = %+v, want zero runs and nonzero hits", st)
	}
	if eps := rtWarm.Stats().Endpoints; len(eps) != 1 || eps[0].Dispatched != 0 || eps[0].Retried != 0 {
		t.Errorf("warm coordinator rerun endpoints = %+v, want no dial and no dispatch", eps)
	}
	if warmups, _ := rtWarm.PretrainStats(); warmups != 0 {
		t.Errorf("warm coordinator rerun executed %d pretrain warm-ups, want 0", warmups)
	}
	for _, e := range Registry() {
		if warmTables[e.ID].Markdown() != poolTables[e.ID].Markdown() {
			t.Errorf("%s: warm coordinator rerun differs from the pool run", e.ID)
		}
	}

	// Fresh run against its own cache directory, shared with the
	// worker process: every cell actually executes inside it.
	procsDir := t.TempDir()
	addr, stop := startWorkerProcess(t, worker, 3, procsDir)
	defer stop()
	procsCache, err := runtime.NewCache(procsDir)
	if err != nil {
		t.Fatal(err)
	}
	rtProcs := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{addr},
	}), procsCache)
	procsTables := runRegistry(t, rtProcs)
	if st := rtProcs.Stats(); st.Runs == 0 || len(st.Endpoints) != 1 || st.Endpoints[0].Dispatched == 0 {
		t.Fatalf("fresh worker-process run stats = %+v, want cells dispatched to the worker", st)
	}
	for _, e := range Registry() {
		pool, procs := renderMasked(poolTables[e.ID]), renderMasked(procsTables[e.ID])
		if pool != procs {
			t.Errorf("%s: worker-process output differs from pool backend:\n--- pool ---\n%s--- worker ---\n%s",
				e.ID, pool, procs)
		}
	}
}

// The fleet-wide pretrain-reuse guarantee, end to end: a cold sweep of
// warm-FedGPO cells over S scenarios against a 2-endpoint fleet
// executes exactly S Q-table warm-ups across the whole fleet — the
// dispatch queue sends a scenario's cells only to the pool building
// its snapshot until the coordinator pools it, the per-process
// singleflight dedups within that pool, and a cell that lands
// elsewhere afterwards receives the shipped snapshot instead of
// re-warming.
// The scheduling machinery must not leak into result bytes: every cell
// matches the in-process pool backend exactly.
func TestFleetWideExactlyOnePretrainPerScenario(t *testing.T) {
	w := workload.CNNMNIST()
	opts := Options{FleetSize: 20, MaxRounds: 60}
	scens := []ScenarioSpec{opts.apply(Ideal(w)), opts.apply(Realistic(w))}
	var specs []JobSpec
	for _, s := range scens {
		for _, seed := range []int64{1, 2, 3} {
			specs = append(specs, simSpec(s, fedgpoWarmContender(s), seed))
		}
	}

	a1, stop1 := startWorkerPool(t, 2, t.TempDir())
	defer stop1()
	a2, stop2 := startWorkerPool(t, 2, t.TempDir())
	defer stop2()
	memCache, err := runtime.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers: []string{a1, a2},
	}), memCache)
	res := rt.runSpecs(specs)
	for i, r := range res {
		if r.Err != "" {
			t.Fatalf("spec %d failed: %s", i, r.Err)
		}
	}

	m := rt.Metrics()
	if got, want := m.Counters.PretrainRuns, int64(len(scens)); got != want {
		t.Errorf("fleet executed %d pretrain warm-ups for %d scenarios, want exactly one per scenario",
			got, want)
	}
	var dispatched int64
	for _, ep := range m.Endpoints {
		dispatched += ep.Dispatched
	}
	if dispatched != int64(len(specs)) {
		t.Errorf("fleet dispatched %d specs, want %d (each exactly once)", dispatched, len(specs))
	}
	// Every scenario's snapshot came home with its builder's response:
	// the coordinator pooled it for pre-pushing and persisted it.
	for _, s := range scens {
		key := snapshotKey(simSpec(s, fedgpoWarmContender(s), 1))
		if key == "" {
			t.Fatal("warm FedGPO spec has no snapshot key")
		}
		var raw rawBytes
		if !memCache.Get(key, &raw) || len(raw) == 0 {
			t.Errorf("coordinator cache missing shipped pretrain snapshot %q", key)
		}
		var snap core.Snapshot
		if err := snap.UnmarshalBinary(raw); err != nil {
			t.Errorf("coordinator cached snapshot %q does not decode: %v", key, err)
		}
	}

	pool, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pool.runSpecs(specs) {
		aj, _ := json.Marshal(res[i].Sim)
		bj, _ := json.Marshal(pr.Sim)
		if string(aj) != string(bj) {
			t.Errorf("spec %d: fleet result differs from pool backend:\n--- fleet ---\n%s\n--- pool ---\n%s",
				i, aj, bj)
		}
	}
}

// Processes sharing one cache directory see each other's records only
// when they open it, so within a run snapshots move over the wire:
// two pools and the coordinator all on one directory run cold
// warm-FedGPO cells over S scenarios with exactly S warm-ups fleet-wide
// and the pool backend's results, and a new runtime over the directory
// reruns every cell from the coordinator's records with no simulation.
func TestSharedCacheDirFleet(t *testing.T) {
	w := workload.CNNMNIST()
	opts := Options{FleetSize: 20, MaxRounds: 60}
	scens := []ScenarioSpec{opts.apply(Ideal(w)), opts.apply(Realistic(w))}
	var specs []JobSpec
	for _, s := range scens {
		for _, seed := range []int64{1, 2, 3} {
			specs = append(specs, simSpec(s, fedgpoWarmContender(s), seed))
		}
	}
	sims := func(res []runtime.Result) string {
		out := make([]fl.Result, len(res))
		for i, r := range res {
			if r.Err != "" {
				t.Fatalf("spec %d failed: %s", i, r.Err)
			}
			out[i] = r.Sim
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	pool, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	want := sims(pool.runSpecs(specs))

	dir := t.TempDir()
	a1, stop1 := startWorkerPool(t, 2, dir)
	defer stop1()
	a2, stop2 := startWorkerPool(t, 2, dir)
	defer stop2()
	cache, err := runtime.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{Workers: []string{a1, a2}}), cache)
	if got := sims(rt.runSpecs(specs)); got != want {
		t.Errorf("shared-directory fleet results differ from the pool backend:\n--- fleet ---\n%s\n--- pool ---\n%s", got, want)
	}
	if got := rt.Metrics().Counters.PretrainRuns; got != int64(len(scens)) {
		t.Errorf("fleet executed %d pretrain warm-ups for %d scenarios, want one per scenario", got, len(scens))
	}

	warmCache, err := runtime.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{Workers: []string{deadAddr(t)}}), warmCache)
	if got := sims(warm.runSpecs(specs)); got != want {
		t.Error("warm rerun over the shared directory changed the results")
	}
	if st := warm.Stats(); st.Runs != 0 || st.Hits != int64(len(specs)) {
		t.Errorf("warm rerun stats = %+v, want 0 runs / %d hits", st, len(specs))
	}
}

// A cell that reads a pretrain snapshot on an endpoint that did not
// build it gets the snapshot by push. The first batch's one cell
// builds the scenario's snapshot on some endpoint, which the
// coordinator then pools; that builder stops, so the second batch's
// cell runs on the other endpoint, which shares the builder's cache
// directory. The coordinator pushes it the pooled bytes, it installs
// them instead of warming up, and the fleet still runs one warm-up.
func TestSnapshotPushedToNonBuilder(t *testing.T) {
	s := Options{FleetSize: 20, MaxRounds: 60}.apply(Realistic(workload.CNNMNIST()))
	specs := []JobSpec{simSpec(s, fedgpoWarmContender(s), 1), simSpec(s, fedgpoWarmContender(s), 2)}
	sims := func(res ...runtime.Result) string {
		out := make([]fl.Result, len(res))
		for i, r := range res {
			if r.Err != "" {
				t.Fatalf("cell %d failed: %s", i, r.Err)
			}
			out[i] = r.Sim
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	pool, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	want := sims(pool.runSpecs(specs)...)

	dir := t.TempDir()
	addrs, stops := make([]string, 2), make([]func(), 2)
	for i := range addrs {
		addrs[i], stops[i] = startWorkerPool(t, 1, dir)
	}
	defer func() {
		for _, stop := range stops {
			if stop != nil {
				stop()
			}
		}
	}()
	cache, err := runtime.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{Workers: addrs}), cache)
	first := rt.runSpecs(specs[:1])
	builder := -1
	for _, ep := range rt.Metrics().Endpoints {
		for i, a := range addrs {
			if ep.Endpoint == "tcp:"+a && ep.Dispatched == 1 {
				builder = i
			}
		}
	}
	if builder < 0 {
		t.Fatalf("no endpoint ran the first cell: %+v", rt.Metrics().Endpoints)
	}
	stops[builder]()
	stops[builder] = nil

	second := rt.runSpecs(specs[1:])
	if got := sims(first[0], second[0]); got != want {
		t.Errorf("cells run across endpoints differ from the pool backend:\n--- fleet ---\n%s\n--- pool ---\n%s", got, want)
	}
	m := rt.Metrics()
	if m.Counters.SnapshotBytesShipped <= 0 {
		t.Errorf("no snapshot bytes were pushed to the non-builder endpoint: %+v", m.Endpoints)
	}
	if m.Counters.PretrainRuns != 1 {
		t.Errorf("fleet ran %d pretrain warm-ups for one scenario, want 1", m.Counters.PretrainRuns)
	}
}

// Cache entries and wire responses do not carry a result's Outcome;
// runSpecs derives it again from the history. A result served from a
// cache hit or over TCP must therefore equal the fresh result, Outcome
// included.
func TestOutcomeSurvivesCacheAndWire(t *testing.T) {
	specs := append(telemetrySpecs(), simSpec(telemetryScenario(), fedgpoWarmContender(telemetryScenario()), 2))
	sims := func(rt *Runtime) []fl.Result {
		res := rt.runSpecs(specs)
		out := make([]fl.Result, len(res))
		for i, r := range res {
			out[i] = r.Sim
		}
		return out
	}
	dir := t.TempDir()
	rt, err := NewRuntime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := sims(rt)
	for i, r := range fresh {
		if r.RoundsExecuted == 0 || r.PPW <= 0 {
			t.Fatalf("spec %d: fresh result has no outcome: %+v", i, r.Outcome)
		}
	}

	warm, err := NewRuntime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	cached := sims(warm)
	if runs := warm.Stats().Runs; runs != 0 {
		t.Fatalf("warm runtime simulated %d cells, want every one served from the cache", runs)
	}

	addr, stop := startWorkerPool(t, 1, t.TempDir())
	defer stop()
	mem, err := runtime.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	tcp := sims(NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{Workers: []string{addr}}), mem))

	for name, got := range map[string][]fl.Result{"cache hit": cached, "tcp": tcp} {
		for i := range specs {
			a, _ := json.Marshal(got[i])
			b, _ := json.Marshal(fresh[i])
			if string(a) != string(b) {
				t.Errorf("%s: spec %d differs from the fresh result:\n got %+v\nwant %+v",
					name, i, got[i].Outcome, fresh[i].Outcome)
			}
		}
	}
}

// A shipped snapshot that does not decode or fails validation is
// refused before the pretrain singleflight or the cache sees it; the
// cell that needs it then warms up and computes exactly what a runtime
// that never saw the bad snapshot computes.
func TestInstallSnapshotRejectsInvalid(t *testing.T) {
	s := telemetryScenario()
	sp := simSpec(s, fedgpoWarmContender(s), 1)
	key := snapshotKey(sp)

	ref, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	want := ref.runSpecs([]JobSpec{sp})[0].Sim
	var good rawBytes
	if !ref.cache.Get(key, &good) {
		t.Fatal("the reference run stored no snapshot")
	}
	edit := func(f func(*core.Snapshot)) []byte {
		var snap core.Snapshot
		if err := snap.UnmarshalBinary(good); err != nil {
			t.Fatal(err)
		}
		f(&snap)
		return snap.AppendBinary(nil)
	}
	bad := map[string][]byte{
		"short row": edit(func(s *core.Snapshot) {
			for state, row := range s.KTable.Q {
				s.KTable.Q[state] = row[:len(row)-1]
				return
			}
		}),
		"NaN":       edit(func(s *core.Snapshot) { s.Deadline = math.NaN() }),
		"bad mask":  edit(func(s *core.Snapshot) { s.KTable.Mask = make([]bool, len(fl.KValues())) }),
		"truncated": good[:len(good)-1],
		"trailing":  append(bytes.Clone(good), 0),
	}

	dir := t.TempDir()
	rt, err := NewRuntime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range bad {
		if err := rt.InstallSnapshot(key, data); err == nil {
			t.Errorf("%s: snapshot installed", name)
		}
	}
	var stored rawBytes
	if rt.cache.Get(key, &stored) {
		t.Fatal("a rejected snapshot reached the cache")
	}
	got := rt.runSpecs([]JobSpec{sp})[0].Sim
	if runs, _ := rt.PretrainStats(); runs != 1 {
		t.Errorf("the cell ran %d warm-ups after the rejections, want 1", runs)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Error("the cell's result differs from a runtime that never saw the bad snapshots")
	}
	if err := rt.InstallSnapshot(key, good); err != nil {
		t.Errorf("a valid snapshot was rejected: %v", err)
	}
}

// FuzzInstallSnapshot holds the snapshot install path to its contract:
// no input panics, and any snapshot it accepts restores through
// core.FromSnapshot into a controller that runs a round.
func FuzzInstallSnapshot(f *testing.F) {
	s := telemetryScenario()
	warm := s.Config(997)
	warm.MaxRounds = 20
	good := core.PretrainSnapshot(core.DefaultConfig(), warm).AppendBinary(nil)
	nK := len(fl.KValues())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(core.Snapshot{}.AppendBinary(nil))
	f.Add(core.Snapshot{LocalTables: map[string]rl.TableSnapshot{
		"H": {Q: map[string][]float64{"s": {1, 2}}, Mask: []bool{true}},
	}}.AppendBinary(nil))
	f.Add(core.Snapshot{KTable: &rl.TableSnapshot{
		Q: map[string][]float64{"s": make([]float64, nK)}, Mask: make([]bool, nK),
	}}.AppendBinary(nil))
	f.Add([]byte(`{"kTable":{"q":{"s":[0,0,0,0,0]}}}`))
	s.MaxRounds = 1
	cfg := s.Config(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, err := NewRuntime(1, "")
		if err != nil {
			t.Fatal(err)
		}
		if rt.InstallSnapshot("k", data) != nil {
			return
		}
		var snap core.Snapshot
		if err := snap.UnmarshalBinary(data); err != nil {
			t.Fatalf("an accepted snapshot does not decode: %v", err)
		}
		if res := fl.Run(cfg, core.FromSnapshot(core.DefaultConfig(), snap)); res.RoundsExecuted != 1 {
			t.Fatalf("the restored controller ran %d rounds, want 1", res.RoundsExecuted)
		}
	})
}
