package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"

	"fedgpo/internal/core"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// registryOptions is the reduced deployment the registry-wide tests
// run at (same scale as the warm-cache test).
func registryOptions() Options {
	return Options{FleetSize: 20, Seeds: []int64{1}, MaxRounds: 60}
}

// comparableResult renders the parts of a result that a spec
// re-execution must reproduce byte-for-byte. The documented exception
// is the sec54 probe's phase timers (see sec54Extra): real elapsed time
// that two genuine executions can never agree on; a cached replay
// carries the first run's values. They are zeroed on both sides before
// comparison. Everything else, every kind, must match exactly.
func comparableResult(t *testing.T, kind string, r runtime.Result) string {
	t.Helper()
	extra := r.Extra
	if kind == KindSec54 {
		var ex sec54Extra
		if err := r.GetExtra(&ex); err != nil {
			t.Fatalf("sec54 extra: %v", err)
		}
		ex.IdentifyStatesNS, ex.ChooseParamsNS, ex.CalcRewardNS, ex.UpdateTablesNS = 0, 0, 0, 0
		b, err := json.Marshal(ex)
		if err != nil {
			t.Fatal(err)
		}
		extra = b
	}
	b, err := json.Marshal(struct {
		Sim   fl.Result       `json:"sim"`
		Extra json.RawMessage `json:"extra"`
	}{r.Sim, extra})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The tentpole contract of the spec refactor: every job the full
// registry emits is a self-contained, serializable spec. Encoding the
// spec, decoding it in (what stands in for) another process, and
// executing it there must reproduce the in-process run byte for byte —
// same canonical key, same simulator output, same Extra payload.
func TestSpecRoundTripRegistry(t *testing.T) {
	// On a fresh memory cache every distinct key misses once, so the
	// backend sees every cell the registry emits.
	cache, err := runtime.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	be := &recordBackend{Backend: runtime.NewPoolBackend(0)}
	rtA := NewRuntimeWithBackend(be, cache)
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	if err := rtA.StreamStore(storePath); err != nil {
		t.Fatal(err)
	}
	type recorded struct {
		kind    string
		payload json.RawMessage
	}
	opts := registryOptions().WithRuntime(rtA)
	for _, e := range Registry() {
		e.Run(opts)
	}
	jobs := map[string]recorded{} // canonical key -> spec payload
	for _, j := range be.jobs {
		if len(j.Payload) == 0 {
			t.Errorf("job %q emitted without a serialized spec", j.Key())
			continue
		}
		jobs[j.Key()] = recorded{j.Kind, j.Payload}
	}
	if len(jobs) == 0 {
		t.Fatal("registry emitted no jobs")
	}
	if err := rtA.CloseStore(); err != nil {
		t.Fatal(err)
	}
	stored := readStoreLog(t, storePath)
	for key := range stored {
		if _, ok := jobs[key]; !ok {
			t.Errorf("stored cell %q never reached the backend", key)
		}
	}

	// Re-execute every distinct spec in a fresh runtime: separate
	// pretrain singleflight, empty cache — the same situation a worker
	// pool process starts from.
	rtB, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	for key, rec := range jobs {
		sp, err := DecodeJobSpec(rec.payload)
		if err != nil {
			t.Fatalf("job %q: spec does not round-trip: %v", key, err)
		}
		if got := sp.Key(); got != key {
			t.Errorf("decoded spec addresses %q, emitted as %q", got, key)
			continue
		}
		// The scenario spec itself must survive its own JSON round-trip:
		// re-encoding the decoded scenario and decoding it again must
		// address the same deployment.
		reb, err := json.Marshal(sp.Scenario)
		if err != nil {
			t.Fatalf("job %q: scenario re-encode: %v", key, err)
		}
		var s2 ScenarioSpec
		if err := json.Unmarshal(reb, &s2); err != nil {
			t.Fatalf("job %q: scenario re-decode: %v", key, err)
		}
		if s2.cacheKey() != sp.Scenario.cacheKey() {
			t.Errorf("job %q: scenario spec does not round-trip: %q vs %q",
				key, s2.cacheKey(), sp.Scenario.cacheKey())
		}
		want, ok := stored[key]
		if !ok {
			t.Fatalf("job %q missing from the result store", key)
		}
		got, _ := rtB.execute(sp, nil)
		if comparableResult(t, rec.kind, got) != comparableResult(t, rec.kind, want) {
			t.Errorf("job %q: re-executed spec diverges from in-process run", key)
		}
	}
}

// Spec decoding must reject malformed wire payloads instead of
// producing a runnable-looking job.
func TestDecodeJobSpecRejectsMalformed(t *testing.T) {
	good := EncodeJobSpec(simSpec(Tiny().apply(Ideal(workload.CNNMNIST())), staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1))
	if _, err := DecodeJobSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, payload := range map[string]string{
		"not json":          "{nope",
		"unknown kind":      `{"kind":"bogus","scenario":{},"contender":{"type":"static"}}`,
		"unknown contender": `{"kind":"sim","scenario":{},"contender":{"type":"bogus"}}`,
		"warm sans config":  `{"kind":"sim","scenario":{},"contender":{"type":"fedgpo-warm"}}`,
		"abs sans config":   `{"kind":"sim","scenario":{},"contender":{"type":"abs"}}`,
	} {
		if _, err := DecodeJobSpec([]byte(payload)); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// The ABS agent's operating point is fixed in package abs and only its
// seed comes from the spec (CtrlSeed), so a wire spec cannot size its
// network: an "abs" object in the contender — one an older coordinator
// sent, or a hostile one — is ignored, and building the controller
// allocates what the default agent does. A spec carrying an older
// coordinator's ABS key fails the worker's key check instead of
// running.
func TestWireABSConfigIsIgnored(t *testing.T) {
	scenario := Tiny().apply(Ideal(workload.CNNMNIST()))
	plain := simSpec(scenario, ContenderSpec{Type: ContABS, Name: "ABS", CtrlSeed: 1}, 1)
	var m map[string]any
	if err := json.Unmarshal(EncodeJobSpec(plain), &m); err != nil {
		t.Fatal(err)
	}
	m["contender"].(map[string]any)["abs"] = map[string]any{"Hidden": 1 << 16, "ReplayCap": 1 << 30, "Seed": 9}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := DecodeJobSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.Key(), plain.Key(); got != want {
		t.Errorf("abs object changed the key:\n%s\nwant %s", got, want)
	}
	rt, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	rt.controller(sp.Scenario, sp.Contender)
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("building the ABS controller allocated %d bytes, want under 1 MB", grew)
	}

	oldKey := strings.Replace(rt.Job(plain).Key(), "abs/seed=1", `abs/cfg={"FixedE":10,"FixedK":20,"Hidden":24,"Seed":1}`, 1)
	if res := rt.RunRequest(oldKey, b); !strings.Contains(res.Err, "spec addresses") {
		t.Errorf("an older coordinator's ABS key ran: err %q", res.Err)
	}
}

// A static contender's display name is not part of its cell: Fixed
// (Best) and the unnamed contender with the same parameters, scenario
// and seed share one key, so a batch holding both simulates once.
func TestFixedBestSharesThePlainStaticCell(t *testing.T) {
	s := telemetryScenario()
	p := fl.Params{B: 8, E: 10, K: 20}
	best := simSpec(s, staticContender(p, "Fixed (Best)"), 1)
	plain := simSpec(s, staticContender(p, ""), 1)
	if best.Key() != plain.Key() {
		t.Fatalf("Fixed (Best) key %q differs from the plain key %q", best.Key(), plain.Key())
	}
	rt, err := NewRuntime(1, "")
	if err != nil {
		t.Fatal(err)
	}
	res := rt.runSpecs([]JobSpec{best, plain})
	if st := rt.Stats(); st.Runs != 1 || st.Hits != 0 {
		t.Errorf("batch ran %d cells and hit %d, want 1 and 0", st.Runs, st.Hits)
	}
	if res[0].Sim.PPW != res[1].Sim.PPW || res[0].Sim.PPW <= 0 {
		t.Errorf("PPW %v and %v, want one positive value", res[0].Sim.PPW, res[1].Sim.PPW)
	}
}

// A spec whose fleet, partition or round budget would allocate without
// limit must fail decoding before a worker builds anything from it,
// while the paper's own scale decodes.
func TestDecodeJobSpecRejectsUnboundedResources(t *testing.T) {
	paper := Ideal(workload.MobileNetImageNet())
	paper.MaxRounds = defaultMaxRounds
	static := staticContender(fl.Params{B: 8, E: 10, K: 20}, "")
	if _, err := DecodeJobSpec(EncodeJobSpec(simSpec(paper, static, 1))); err != nil {
		t.Fatalf("paper-scale spec rejected: %v", err)
	}
	if _, err := DecodeJobSpec(EncodeJobSpec(simSpec(paper, fedgpoWarmContender(paper), 1))); err != nil {
		t.Fatalf("paper-scale warm FedGPO spec rejected: %v", err)
	}
	if _, err := DecodeJobSpec(EncodeJobSpec(oracleSpec(paper, Options{}, 40))); err != nil {
		t.Fatalf("paper-scale oracle spec rejected: %v", err)
	}
	mutated := func(mutate func(*JobSpec)) JobSpec {
		sp := simSpec(paper, fedgpoWarmContender(paper), 1)
		mutate(&sp)
		return sp
	}
	// config rewrites the warm contender's core config.
	config := func(mutate func(*core.Config)) JobSpec {
		return mutated(func(sp *JobSpec) {
			cfg := *sp.Contender.Core
			mutate(&cfg)
			sp.Contender.Core = &cfg
		})
	}
	const huge = 1_000_000_000_000
	bad := map[string]JobSpec{
		"maxRounds 1e9": mutated(func(sp *JobSpec) { sp.Scenario.MaxRounds = 1_000_000_000 }),
		"mix 1e12 each": mutated(func(sp *JobSpec) {
			sp.Scenario.Fleet.Mix = device.FleetComposition{High: huge, Mid: huge, Low: huge}
		}),
		"mix sum overflows": mutated(func(sp *JobSpec) {
			sp.Scenario.Fleet.Mix = device.FleetComposition{High: math.MaxInt / 2, Mid: math.MaxInt / 2, Low: math.MaxInt / 2}
		}),
		"mix sum above cap": mutated(func(sp *JobSpec) {
			sp.Scenario.Fleet.Mix = device.FleetComposition{High: maxSpecDevices, Mid: maxSpecDevices, Low: 1}
		}),
		"size 1e12":       mutated(func(sp *JobSpec) { sp.Scenario.Fleet.Size = huge }),
		"classes 1e12":    mutated(func(sp *JobSpec) { sp.Scenario.Workload.NumClasses = huge }),
		"warmRounds 1e12": mutated(func(sp *JobSpec) { sp.Contender.WarmRounds = huge }),
		"warmRounds -1":   mutated(func(sp *JobSpec) { sp.Contender.WarmRounds = -1 }),
		"probeRounds 1e12": mutated(func(sp *JobSpec) {
			*sp = oracleSpec(paper, Options{}, 40)
			sp.ProbeRounds = huge
		}),
		"probeRounds -1": mutated(func(sp *JobSpec) {
			*sp = oracleSpec(paper, Options{}, 40)
			sp.ProbeRounds = -1
		}),
		"epsilon 1.5":           config(func(c *core.Config) { c.RL.Epsilon = 1.5 }),
		"learning rate -0.1":    config(func(c *core.Config) { c.RL.LearningRate = -0.1 }),
		"discount 2":            config(func(c *core.Config) { c.RL.Discount = 2 }),
		"init range inverted":   config(func(c *core.Config) { c.RL.InitLo, c.RL.InitHi = 120, 110 }),
		"alpha -1":              config(func(c *core.Config) { c.Reward.Alpha = -1 }),
		"beta -1":               config(func(c *core.Config) { c.Reward.Beta = -1 }),
		"freeze threshold -1":   config(func(c *core.Config) { c.FreezeThreshold = -1 }),
		"freeze min updates -1": config(func(c *core.Config) { c.FreezeMinUpdates = -1 }),
		"freeze after -1":       config(func(c *core.Config) { c.FreezeAfterRounds = -1 }),
	}
	// JSON carries no NaN or infinity: these rows reach only a Go
	// caller's Runtime.Job.
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		bad["epsilon "+name] = config(func(c *core.Config) { c.RL.Epsilon = v })
		bad["init high "+name] = config(func(c *core.Config) { c.RL.InitHi = v })
		bad["init low "+name] = config(func(c *core.Config) { c.RL.InitLo = v })
		bad["beta "+name] = config(func(c *core.Config) { c.Reward.Beta = v })
		bad["freeze threshold "+name] = config(func(c *core.Config) { c.FreezeThreshold = v })
	}
	for name, sp := range bad {
		if b, err := json.Marshal(sp); err == nil {
			if _, err := DecodeJobSpec(b); err == nil {
				t.Errorf("%s: decode should fail", name)
			}
		}
		if j := (&Runtime{}).Job(sp); j.Kind != kindInvalid {
			t.Errorf("%s: compiled as a %q job, want %q", name, j.Kind, kindInvalid)
		}
	}
}

// FuzzDecodeJobSpec throws arbitrary bytes at the worker's spec
// decoder. It must never panic, neither while decoding nor while the
// worker compiles and keys the decoded spec (Runtime.Job, before
// anything runs); the compiled job must address the spec's own key,
// or RunRequest would refuse it, and its Encode must build the spec's
// wire encoding byte for byte, the payload the executor dispatches;
// and a spec it accepts must survive
// its own round trip: re-encoding it decodes to the same cell, and
// that re-encoding is a fixed point.
func FuzzDecodeJobSpec(f *testing.F) {
	scenario := Tiny().apply(Ideal(workload.CNNMNIST()))
	oracle := oracleSpec(scenario, Tiny(), 40)
	sec54 := simSpec(scenario, fedgpoColdContender(), 2)
	sec54.Kind, sec54.Trace = KindSec54, telemetry.TraceDecisions
	for _, sp := range []JobSpec{
		simSpec(scenario, ContenderSpec{Type: ContABS, Name: "ABS", CtrlSeed: 1}, 3),
		oracle, sec54,
	} {
		f.Add([]byte(EncodeJobSpec(sp)))
	}
	for _, build := range []func(workload.Workload) ScenarioSpec{Ideal, Realistic, NonIIDScenario} {
		s := Tiny().apply(build(workload.CNNMNIST()))
		f.Add([]byte(EncodeJobSpec(simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, "Fixed"), 1))))
		f.Add([]byte(EncodeJobSpec(simSpec(s, fedgpoWarmContender(s), 1))))
	}
	f.Add([]byte(`{"kind":"sim","scenario":{},"contender":{"type":"static"}}`))
	f.Add([]byte(`{"kind":"sim","scenario":{"maxRounds":-1},"contender":{"type":"abs"}}`))
	// A NaN epsilon: JSON has no NaN, so the bytes must not decode, and
	// an epsilon above 1 must fail the contender's config check.
	warm := EncodeJobSpec(simSpec(scenario, fedgpoWarmContender(scenario), 1))
	for _, eps := range []string{"NaN", "1.5"} {
		seed := bytes.Replace(warm, []byte(`"Epsilon":0.1,`), []byte(`"Epsilon":`+eps+`,`), 1)
		if bytes.Equal(seed, warm) {
			f.Fatalf("the warm spec holds no epsilon of 0.1: %s", warm)
		}
		f.Add(seed)
	}
	rt, err := NewRuntime(1, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := DecodeJobSpec(b)
		if err != nil {
			return
		}
		key := sp.Key()
		j := rt.Job(sp)
		if got := j.Key(); got != key {
			t.Fatalf("compiled job addresses %q, its spec %q", got, key)
		}
		enc := EncodeJobSpec(sp)
		if lazy := j.Encode(); !bytes.Equal(lazy, enc) {
			t.Fatalf("compiled job encodes its spec as\n%s\nnot as its wire encoding\n%s", lazy, enc)
		}
		back, err := DecodeJobSpec(enc)
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v\n%s", err, enc)
		}
		if back.Key() != key {
			t.Fatalf("re-decoded spec addresses %q, want %q", back.Key(), key)
		}
		if again := EncodeJobSpec(back); !bytes.Equal(again, enc) {
			t.Fatalf("spec re-encoding is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}

// Spec-derived keys must follow the v4 canonical layout: the scenario
// half hashes the full resolved scenario spec (workload name and
// parameter digest, device-class mix, partition, channel, co-runner,
// deadline), never the display name.
// Pinning the exact bytes here keeps the layout stable — a change to
// it must be deliberate and come with a keyVersion bump.
func TestSpecKeysCanonicalScheme(t *testing.T) {
	s := Ideal(workload.CNNMNIST())
	wantScenario := "CNN-MNIST@4f982503acb74a70/fleet=H30:M70:L100/rounds=400/part=iid" +
		"/net=gauss(mean=80,std=8,floor=1,tx=0.8,weak=1.9)/intf=none/deadline=0/agg=30"
	if got := s.cacheKey(); got != wantScenario {
		t.Errorf("scenario key:\n got %q\nwant %q", got, wantScenario)
	}
	static := simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, "Fixed (Best)"), 2)
	wantStatic := "v4|sim|" + wantScenario + "|static/(8,10,20)|seed=2"
	if got := static.Key(); got != wantStatic {
		t.Errorf("static key:\n got %q\nwant %q", got, wantStatic)
	}
	r := Realistic(workload.CNNMNIST())
	deadline, err := r.Deadline.resolve(r.Workload)
	if err != nil {
		t.Fatal(err)
	}
	wantRealistic := "CNN-MNIST@4f982503acb74a70/fleet=H30:M70:L100/rounds=400/part=iid" +
		"/net=gauss(mean=38,std=25,floor=8,tx=0.8,weak=1.9)" +
		"/intf=web-browsing(cpu=0.45±0.15,mem=0.3±0.1)@0.5" +
		fmt.Sprintf("/deadline=%g/agg=30", deadline)
	if got := r.cacheKey(); got != wantRealistic {
		t.Errorf("realistic scenario key:\n got %q\nwant %q", got, wantRealistic)
	}
	warm := fedgpoWarmContender(s)
	wantWarmPrefix := "fedgpo-warm/cfg={"
	if k := warm.key(); len(k) < len(wantWarmPrefix) || k[:len(wantWarmPrefix)] != wantWarmPrefix {
		t.Errorf("warm contender key lost its config serialization: %q", k)
	}
	oracle := oracleSpec(s, Tiny(), 20)
	wantOracle := "v4|oracle|" + s.cacheKey() + "/proberounds=20|" + warm.key() + "/probe|seed=1"
	if got := oracle.Key(); got != wantOracle {
		t.Errorf("oracle key:\n got %q\nwant %q", got, wantOracle)
	}
	cold := JobSpec{Kind: KindSec54, Scenario: s, Contender: fedgpoColdContender(), Seed: 1}
	wantCold := "v4|sec54|" + s.cacheKey() + "/stopconv=false|" + fedgpoColdContender().key() + "|seed=1"
	if got := cold.Key(); got != wantCold {
		t.Errorf("sec54 key:\n got %q\nwant %q", got, wantCold)
	}
}

// A spec that keeps a registry workload's name but changes one of its
// parameters names a different cell, so the cache never serves it the
// registry workload's result.
func TestScenarioKeyHashesWorkloadParameters(t *testing.T) {
	base := Ideal(workload.CNNMNIST())
	same := Ideal(workload.CNNMNIST())
	same.Name = "renamed"
	if same.cacheKey() != base.cacheKey() {
		t.Error("equal workloads under another display name got different keys")
	}
	target, gain := base, base
	target.Workload.Learn.TargetAccuracy = 0.5
	gain.Workload.Learn.BaseGain *= 3
	seen := map[string]string{}
	for name, s := range map[string]ScenarioSpec{"registry": base, "target": target, "gain": gain} {
		key := simSpec(s, staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), 1).Key()
		if other, dup := seen[key]; dup {
			t.Errorf("%s and %s share the key %q", name, other, key)
		}
		seen[key] = name
	}
}
