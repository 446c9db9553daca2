package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedgpo/internal/core"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

// The tentpole guarantee of the parallel runtime: a table generated
// with one worker is byte-identical to the same table generated with
// eight, regardless of scheduling.
func TestParallelTableByteIdenticalToSerial(t *testing.T) {
	for _, id := range []string{"fig1", "fig11"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		serialRT, err := NewRuntime(1, "")
		if err != nil {
			t.Fatal(err)
		}
		parallelRT, err := NewRuntime(8, "")
		if err != nil {
			t.Fatal(err)
		}
		serial := e.Run(Tiny().WithRuntime(serialRT)).Markdown()
		parallel := e.Run(Tiny().WithRuntime(parallelRT)).Markdown()
		if serial != parallel {
			t.Errorf("%s: parallel=8 output differs from parallel=1:\n--- serial ---\n%s--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// A panicking pretrain warm-up must fail every cell that depends on
// it, not just the first: the singleflight entry replays the panic, so
// no sibling cell can silently proceed with an untrained zero-value
// controller (which would complete "successfully" and poison the run
// cache with plausible-but-wrong results).
func TestPretrainPanicReplaysToEveryCell(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	bad := Tiny().apply(Ideal(workload.Workload{})) // invalid workload: warm-up panics
	c := fedgpoWarmContender(bad)
	mustPanic := func(pass string) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s controller build should panic, not hand out an untrained controller", pass)
			}
		}()
		rt.controller(bad, c)
	}
	mustPanic("first")
	mustPanic("second")
	if runs, _ := rt.PretrainStats(); runs != 0 {
		t.Errorf("aborted warm-up counted as %d executed runs, want 0", runs)
	}
}

// A cell no endpoint could run fails its batch with a *JobError naming
// the cell and the endpoint error, so the CLIs can report it in one
// line instead of a goroutine dump.
func TestFailedCellPanicsWithJobError(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close() // nothing listens there now: every dial is refused
	cache, err := runtime.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeWithBackend(runtime.NewProcBackend(runtime.ProcConfig{Workers: []string{addr}}), cache)
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	defer func() {
		r := recover()
		err, _ := r.(error)
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("panic value %#v is not a *JobError", r)
		}
		if !strings.HasPrefix(je.Key, "v4|sim|") || !strings.Contains(je.Err, addr) {
			t.Errorf("JobError = %+v, want the cell's key and an error naming %s", je, addr)
		}
		if st := rt.Stats(); len(st.Endpoints) != 1 || st.Endpoints[0].Retried != 1 || st.Endpoints[0].Dispatched != 0 {
			t.Errorf("endpoint stats = %+v, want one retried dial and nothing dispatched", st.Endpoints)
		}
	}()
	SweepScenarios(Options{}.WithRuntime(rt), []ScenarioSpec{s}, fl.Params{B: 8, E: 10, K: 20}, 1)
	t.Fatal("a cell no endpoint could run did not panic")
}

// rawBytes reads a cache payload as it is stored.
type rawBytes []byte

func (r *rawBytes) UnmarshalBinary(b []byte) error {
	*r = bytes.Clone(b)
	return nil
}

// A freshly built pretrain snapshot is encoded once, and those bytes
// are everything downstream sees: the cache payload and the artifact
// the first job sharing the key carries to the coordinator. The
// snapshot every cell restores its controller from is the value those
// bytes encode.
func TestFreshPretrainSnapshotSerializedOnce(t *testing.T) {
	rt, err := NewRuntime(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := Tiny().apply(Ideal(workload.CNNMNIST()))
	sp := simSpec(s, fedgpoWarmContender(s), 1)
	res := rt.Execute(sp)
	key := snapshotKey(sp)
	if len(res.Snaps) != 1 || res.Snaps[0].Key != key {
		t.Fatalf("fresh warm-up carried %d artifacts, want one under %q", len(res.Snaps), key)
	}
	var cached rawBytes
	if !rt.cache.Get(key, &cached) {
		t.Fatal("fresh snapshot not in the cache")
	}
	if !bytes.Equal(cached, res.Snaps[0].Data) {
		t.Error("cached snapshot bytes differ from the shipped artifact")
	}
	if !bytes.Equal(rt.pretrains[key].snap.AppendBinary(nil), cached) {
		t.Error("the in-process snapshot does not re-encode to the cached bytes")
	}
}

// Every warm-up the registry runs, per-device tables included, comes
// back from its binary form equal to itself, field by field, and an
// accepted encoding re-encodes to the same bytes. Table-byte gates
// alone would miss a dropped field whose value happens not to change a
// table (a profile's PowerCurve.Steps, say).
func TestSnapshotBinaryRoundTripEveryRegistryWarmUp(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	runRegistry(t, rt)
	perDevice := false
	for key, e := range rt.pretrains {
		if !e.done {
			t.Fatalf("%s: warm-up never finished", key)
		}
		snap := e.snap
		if len(snap.LocalTables) == 0 || snap.KTable == nil || len(snap.TableProfiles) == 0 {
			t.Fatalf("%s: the warm-up built no tables", key)
		}
		perDevice = perDevice || len(snap.LocalTables) > device.NumCategories
		enc := snap.AppendBinary(nil)
		var back core.Snapshot
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%s: decode: %v", key, err)
		}
		if !reflect.DeepEqual(back, snap) {
			t.Errorf("%s: the round trip changed the snapshot", key)
		}
		if !bytes.Equal(back.AppendBinary(nil), enc) {
			t.Errorf("%s: the decoded snapshot re-encodes to other bytes", key)
		}
	}
	if !perDevice {
		t.Error("no registry warm-up built per-device tables")
	}
}

// A cache directory written while snapshots were stored as JSON holds
// pretrain records under keys without the snapshot format. Those keys
// are never looked up again: each snapshot is a plain miss (never a
// corrupt entry), is rebuilt exactly once, and the tables come out
// identical to a fresh directory's.
func TestJSONEraSnapshotIsAPlainMiss(t *testing.T) {
	opts := Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 60}
	run := func(rt *Runtime) string {
		var b strings.Builder
		for _, id := range []string{"fig5", "abl-tables"} {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(e.Run(opts.WithRuntime(rt)).Markdown())
		}
		return b.String()
	}
	fresh, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	dir := t.TempDir()
	old, err := runtime.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	suffix := "|snap=" + core.SnapshotFormat
	for key, e := range fresh.pretrains {
		if !strings.HasSuffix(key, suffix) {
			t.Fatalf("pretrain key %q does not name the snapshot format", key)
		}
		js, err := json.Marshal(e.snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Put(strings.TrimSuffix(key, suffix), js); err != nil {
			t.Fatal(err)
		}
	}

	rt, err := NewRuntime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(rt); got != want {
		t.Errorf("tables over a JSON-era cache differ from a fresh run:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	runs, distinct := rt.PretrainStats()
	if runs != distinct || runs != len(fresh.pretrains) {
		t.Errorf("%d warm-ups for %d keys, want exactly one for each of %d", runs, distinct, len(fresh.pretrains))
	}
	if c := rt.Metrics().Counters.CacheCorrupt; c != 0 {
		t.Errorf("%d corrupt cache reads, want every JSON-era snapshot to be a plain miss", c)
	}
	warm, err := NewRuntime(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(warm); got != want {
		t.Error("the warm rerun's tables differ")
	}
	if runs, _ := warm.PretrainStats(); runs != 0 || warm.Stats().Runs != 0 {
		t.Errorf("warm rerun: %d warm-ups, %d cells simulated; want 0 and 0", runs, warm.Stats().Runs)
	}
}

// A warm-cache rerun of report experiments must perform zero new
// simulations — every cell, including the fixed-best grid search, the
// FedGPO warm-up runs, and the sec54/oracle probes, is served from the
// on-disk cache — and must reproduce the same bytes. The
// pretrained-controller cache is under the same contract: the cold run
// executes exactly one Q-table warm-up per distinct pretrain key
// (scenario × controller config), and the warm rerun executes none.
func TestWarmCacheRerunZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"fig1", "fig5", "fig6", "fig11", "tab5", "sec54"}

	runAll := func(rt *Runtime) string {
		opts := Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 60}.WithRuntime(rt)
		var b strings.Builder
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(e.Run(opts).Markdown())
		}
		return b.String()
	}

	rt1, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := runAll(rt1)
	coldStats := rt1.Stats()
	if coldStats.Runs == 0 {
		t.Fatal("cold run should have simulated cells")
	}
	coldWarmups, coldKeys := rt1.PretrainStats()
	if coldKeys == 0 {
		t.Fatal("report experiments should have requested pretrained controllers")
	}
	if coldWarmups != coldKeys {
		t.Errorf("cold run executed %d pretrain warm-ups for %d distinct keys; want exactly one per key",
			coldWarmups, coldKeys)
	}

	rt2, err := NewRuntime(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := runAll(rt2)
	warmStats := rt2.Stats()
	if warmStats.Runs != 0 {
		t.Errorf("warm rerun simulated %d cells, want 0 (hits=%d)", warmStats.Runs, warmStats.Hits)
	}
	if warmStats.Hits == 0 {
		t.Error("warm rerun should have served cells from the cache")
	}
	if warmups, _ := rt2.PretrainStats(); warmups != 0 {
		t.Errorf("warm rerun executed %d pretrain warm-ups, want 0", warmups)
	}
	if warm != cold {
		t.Error("warm-cache rerun produced different bytes than the cold run")
	}
}

// Identical cells requested twice under one shared runtime (Fig5 and
// Fig6 use the same two cells) must be simulated only once.
func TestSharedRuntimeDeduplicatesCells(t *testing.T) {
	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := Tiny().WithRuntime(rt)
	Fig5(opts)
	afterFig5 := rt.Stats()
	Fig6(opts)
	afterFig6 := rt.Stats()
	if afterFig6.Runs != afterFig5.Runs {
		t.Errorf("Fig6 re-simulated %d cells that Fig5 already ran", afterFig6.Runs-afterFig5.Runs)
	}
	if afterFig6.Hits <= afterFig5.Hits {
		t.Error("Fig6's cells should be cache hits after Fig5")
	}
}

// SweepStatic must report per-run results in params order, matching a
// direct serial fl.Run of each cell.
func TestSweepStaticMatchesDirectRuns(t *testing.T) {
	o := Tiny()
	s := o.apply(Ideal(workload.CNNMNIST()))
	params := []fl.Params{{B: 8, E: 10, K: 20}, {B: 2, E: 10, K: 20}, {B: 8, E: 5, K: 10}}
	got := SweepStatic(o, s, params, 1)
	if len(got) != len(params) {
		t.Fatalf("got %d results for %d params", len(got), len(params))
	}
	for i, p := range params {
		want := fl.Run(s.Config(1), fl.NewStatic(p))
		if got[i].PPW != want.PPW || got[i].ConvergenceRound != want.ConvergenceRound {
			t.Errorf("param %v: sweep result diverges from direct run (PPW %v vs %v)",
				p, got[i].PPW, want.PPW)
		}
	}
}

// readStoreLog loads a result-store log: the last line of a repeated
// key wins.
func readStoreLog(t *testing.T, path string) map[string]runtime.Result {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]runtime.Result{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var r runtime.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		out[r.Key] = r
	}
	return out
}

// With a stream attached, the result store must record every cell a
// figure ran, with round histories attached; without one, there is no
// store.
func TestRuntimeStoreRecordsCells(t *testing.T) {
	off, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	Fig1(Tiny().WithRuntime(off))
	if off.Store() != nil {
		t.Error("runtime has a result store without StreamStore")
	}

	rt, err := NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	if err := rt.StreamStore(path); err != nil {
		t.Fatal(err)
	}
	if err := rt.StreamStore(path); err == nil {
		t.Error("second StreamStore succeeded; want an already-streaming error")
	}
	Fig1(Tiny().WithRuntime(rt))
	if err := rt.CloseStore(); err != nil {
		t.Fatal(err)
	}
	rs := readStoreLog(t, path)
	if len(rs) == 0 {
		t.Fatal("store is empty after Fig1")
	}
	if len(rs) != rt.Store().Len() {
		t.Errorf("log read back %d cells, store counted %d", len(rs), rt.Store().Len())
	}
	for key, r := range rs {
		if key == "" {
			t.Error("stored result missing canonical key")
		}
		if len(r.Sim.History) == 0 {
			t.Errorf("stored result %q missing round history", key)
		}
	}
}

func TestScenarioCacheKeyDistinguishesDeployments(t *testing.T) {
	w := workload.CNNMNIST()
	keys := map[string]string{}
	for _, s := range []ScenarioSpec{
		Ideal(w), Realistic(w), InterferenceOnly(w),
		UnstableNetworkOnly(w), NonIIDScenario(w), RealisticNonIID(w),
		Tiny().apply(Ideal(w)),
	} {
		k := s.cacheKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("scenarios %q and %q share cache key %q", prev, s.Name, k)
		}
		keys[k] = s.Name
	}
	// Defaults must resolve: the zero-valued paper fleet and the
	// explicit one name the same deployment.
	a := Ideal(w)
	b := Ideal(w)
	b.Fleet = FleetSpec{Mix: device.PaperComposition(), Size: paperFleet}
	b.MaxRounds = defaultMaxRounds
	if a.cacheKey() != b.cacheKey() {
		t.Error("explicit defaults should share the cache key with zero values")
	}
	// The display name never participates: renaming a scenario keeps
	// its cache identity.
	c := Ideal(w)
	c.Name = "renamed"
	if a.cacheKey() != c.cacheKey() {
		t.Error("display name should not participate in the cache key")
	}
}
