package exp

import (
	"encoding/json"
	"fmt"
	"time"

	"fedgpo/internal/abs"
	"fedgpo/internal/baseline"
	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
)

// Job kinds: the families of work a JobSpec can describe. Each kind
// carries a different Extra payload and derives its cache identity
// differently, so kinds never share cache entries.
const (
	// KindSim is a plain simulation cell (figures, sweeps, grid search).
	KindSim = "sim"
	// KindQMem probes a warm controller's Q-table memory footprint
	// without running an evaluation.
	KindQMem = "qmem"
	// KindOracle measures FedGPO's selection accuracy against the
	// per-round gap-free oracle (Table 5).
	KindOracle = "oracle"
	// KindSec54 is the §5.4 convergence/overhead probe.
	KindSec54 = "sec54"
)

// Contender types: the controller families a ContenderSpec can name.
const (
	ContStatic     = "static"
	ContFedGPOWarm = "fedgpo-warm"
	ContFedGPOCold = "fedgpo-cold"
	ContBO         = "bo"
	ContGA         = "ga"
	ContFedEX      = "fedex"
	ContABS        = "abs"
)

// ContenderSpec declaratively names one controller: the policy family
// plus every configuration value needed to rebuild it in any process.
// It replaces the closure-held controller factories the experiment
// constructors used to carry — a ContenderSpec is pure data, so the
// same contender can be materialized in-process or inside a worker
// pool process and still share one cache identity.
type ContenderSpec struct {
	// Type selects the controller family (Cont* constants).
	Type string `json:"type"`
	// Name is the display name reports print; it does not participate
	// in cache identity, so a static contender named "Fixed (Best)"
	// and an unnamed one with the same parameters are one cell.
	Name string `json:"name,omitempty"`
	// Params configures the static (fixed-parameter) contender.
	Params fl.Params `json:"params,omitempty"`
	// Core is the full FedGPO configuration (warm and cold variants).
	Core *core.Config `json:"core,omitempty"`
	// WarmSeed and WarmRounds describe the warm variant's Q-table
	// warm-up deployment; together with Core and the scenario they
	// address the pretrained-controller snapshot.
	WarmSeed   int64 `json:"warmSeed,omitempty"`
	WarmRounds int   `json:"warmRounds,omitempty"`
	// CtrlSeed seeds the BO/GA/FedEX/ABS baselines.
	CtrlSeed int64 `json:"ctrlSeed,omitempty"`
}

// contenderType is one contender type's rules: how its spec keys and
// how it builds, in any process.
type contenderType struct {
	// fedgpo marks the FedGPO types: their spec carries a core config,
	// and their controller records Q-table decisions a trace can hold.
	fedgpo bool
	// key is the contender's canonical cache descriptor, the controller
	// half of a job key: the type and the values that build the
	// controller (parameters, config, seeds), never the display name.
	key func(c ContenderSpec) string
	// build materializes the contender for a scenario.
	build func(r *Runtime, s ScenarioSpec, c ContenderSpec) fl.Controller
}

// contenderTypes is the one list of contender types.
var contenderTypes = map[string]contenderType{
	ContStatic: {
		key:   func(c ContenderSpec) string { return "static/" + c.Params.String() },
		build: func(_ *Runtime, _ ScenarioSpec, c ContenderSpec) fl.Controller { return fl.NewStatic(c.Params) },
	},
	// The warm variant restores its Q-tables from the runtime's
	// pretrained-controller cache, addressed by the spec's scenario,
	// config and warm-up deployment: the warm-up runs once per pretrain
	// key per process, and once ever under a persistent cache directory.
	ContFedGPOWarm: {
		fedgpo: true,
		key: func(c ContenderSpec) string {
			return fmt.Sprintf("fedgpo-warm/cfg=%s/warmseed=%d/warmrounds=%d",
				canonJSON(*c.Core), c.WarmSeed, c.WarmRounds)
		},
		build: func(r *Runtime, s ScenarioSpec, c ContenderSpec) fl.Controller {
			cfg := *c.Core
			key := pretrainKey(s, cfg, c.WarmSeed, c.WarmRounds)
			return core.FromSnapshot(cfg, r.pretrainedSnapshot(s, cfg, c.WarmSeed, c.WarmRounds, key))
		},
	},
	ContFedGPOCold: {
		fedgpo: true,
		key:    func(c ContenderSpec) string { return "fedgpo-cold/cfg=" + canonJSON(*c.Core) },
		build:  func(_ *Runtime, _ ScenarioSpec, c ContenderSpec) fl.Controller { return core.New(*c.Core) },
	},
	ContBO:    seededContender("adaptive-bo", func(seed int64) fl.Controller { return baseline.NewBO(seed) }),
	ContGA:    seededContender("adaptive-ga", func(seed int64) fl.Controller { return baseline.NewGA(seed) }),
	ContFedEX: seededContender("fedex", func(seed int64) fl.Controller { return baseline.NewFedEX(seed) }),
	ContABS:   seededContender("abs", func(seed int64) fl.Controller { return abs.New(abs.Config{Seed: seed}) }),
}

// seededContender is a baseline type built from its CtrlSeed alone and
// keyed "name/seed=N".
func seededContender(name string, build func(seed int64) fl.Controller) contenderType {
	return contenderType{
		key:   func(c ContenderSpec) string { return fmt.Sprintf("%s/seed=%d", name, c.CtrlSeed) },
		build: func(_ *Runtime, _ ScenarioSpec, c ContenderSpec) fl.Controller { return build(c.CtrlSeed) },
	}
}

// key returns the contender's canonical cache descriptor (see
// contenderType.key) of a spec that passed validate.
func (c ContenderSpec) key() string { return contenderTypes[c.Type].key(c) }

// validate checks that the spec names a contender type and carries the
// configuration its type requires, so a malformed spec fails before
// its key is built rather than as a nil dereference mid-job.
func (c ContenderSpec) validate() error {
	t, ok := contenderTypes[c.Type]
	if !ok {
		return fmt.Errorf("exp: unknown contender type %q", c.Type)
	}
	if !t.fedgpo {
		return nil
	}
	if c.Core == nil {
		return fmt.Errorf("exp: contender %q missing core config", c.Type)
	}
	if err := c.Core.Validate(); err != nil {
		return fmt.Errorf("exp: contender %q: %w", c.Type, err)
	}
	if c.WarmRounds < 0 || c.WarmRounds > maxSpecRounds {
		return fmt.Errorf("exp: warmRounds must be in [0, %d], got %d", maxSpecRounds, c.WarmRounds)
	}
	return nil
}

// JobSpec is the declarative, serializable description of one job:
// scenario configuration, contender specification, run seed, and the
// kind-specific probe knobs. Every job the experiment harness emits —
// figure cells, sweep cells, grid-search cells, ablation variants, the
// oracle and overhead probes — is a JobSpec; Runtime.execute is the
// single entry point that reconstructs and runs one, in this process
// or in a worker pool process fed the spec's JSON encoding.
type JobSpec struct {
	Kind      string        `json:"kind"`
	Scenario  ScenarioSpec  `json:"scenario"`
	Contender ContenderSpec `json:"contender"`
	Seed      int64         `json:"seed,omitempty"`
	// ProbeRounds bounds the oracle probe's run length; it participates
	// in the oracle job's scenario key.
	ProbeRounds int `json:"probeRounds,omitempty"`
	// Trace is the RL decision-trace level (telemetry.TraceDecisions,
	// or "" for none). It deliberately does NOT participate in the
	// job's canonical key — a traced run computes byte-identical
	// results, so traced and untraced runs share one cache cell; the
	// trace itself is published under a separate spec-addressed key
	// (see traceKey). It rides the spec across the wire so worker
	// processes trace exactly the cells the coordinator asked to.
	Trace string `json:"trace,omitempty"`
}

// scenarioKey returns the scenario half of the job's canonical key,
// including the kind-specific suffixes of the probe jobs. Identical to
// the closure-era scheme.
func (sp JobSpec) scenarioKey() string {
	switch sp.Kind {
	case KindOracle:
		return sp.Scenario.cacheKey() + fmt.Sprintf("/proberounds=%d", sp.ProbeRounds)
	case KindSec54:
		return sp.Scenario.cacheKey() + "/stopconv=false"
	default:
		return sp.Scenario.cacheKey()
	}
}

// controllerKey returns the controller half of the job's canonical
// key. The oracle probe suffixes the warm contender's descriptor so
// the probe's cache identity tracks any change to the warm-up naming
// scheme without colliding with the plain cells.
func (sp JobSpec) controllerKey() string {
	k := sp.Contender.key()
	if sp.Kind == KindOracle {
		k += "/probe"
	}
	return k
}

// Key returns the job's full canonical key — the key of the job
// Runtime.Job compiles, exposed so workers can verify that a decoded
// spec addresses the cell it was dispatched as.
func (sp JobSpec) Key() string {
	j, _ := sp.keyed()
	return j.Key()
}

// kindInvalid is the job kind of a spec that fails validation. No
// valid spec has it, so an invalid spec's key never equals a valid
// cell's.
const kindInvalid = "invalid"

// keyed is the one door to a spec's key: it checks the spec, then
// returns its job's key fields, or, for an invalid spec, the job of
// kind kindInvalid that names the validation error, and that error.
// Two invalid specs with the same error and seed share that key, and
// fail alike.
func (sp JobSpec) keyed() (runtime.Job, error) {
	if err := sp.validate(); err != nil {
		return runtime.Job{Kind: kindInvalid, Scenario: err.Error(), Seed: sp.Seed}, err
	}
	return runtime.Job{
		Kind:       sp.Kind,
		Scenario:   sp.scenarioKey(),
		Controller: sp.controllerKey(),
		Seed:       sp.Seed,
	}, nil
}

// validate checks kind, scenario and contender well-formedness.
func (sp JobSpec) validate() error {
	switch sp.Kind {
	case KindSim, KindQMem, KindOracle, KindSec54:
	default:
		return fmt.Errorf("exp: unknown job kind %q", sp.Kind)
	}
	switch sp.Trace {
	case telemetry.TraceNone, telemetry.TraceDecisions:
	default:
		return fmt.Errorf("exp: unknown trace level %q", sp.Trace)
	}
	if err := sp.Scenario.Validate(); err != nil {
		return err
	}
	if sp.ProbeRounds < 0 || sp.ProbeRounds > maxSpecRounds {
		return fmt.Errorf("exp: probeRounds must be in [0, %d], got %d", maxSpecRounds, sp.ProbeRounds)
	}
	return sp.Contender.validate()
}

// traceable reports whether this spec's execution can produce an RL
// decision trace: a FedGPO contender (the only controller with
// Q-table decisions to record) on a kind that runs a full simulation.
func (sp JobSpec) traceable() bool {
	return contenderTypes[sp.Contender.Type].fedgpo && (sp.Kind == KindSim || sp.Kind == KindSec54)
}

// traceKey addresses a spec's decision-trace artifact in the
// content-addressed cache. It reuses the job's canonical key parts
// under a distinct "trace" kind, so the artifact is spec-addressed
// exactly like the result it annotates while never colliding with it:
//
//	<keyVersion>|trace|<level>|<kind>|<scenario key>|<controller key>|seed=<N>
func traceKey(sp JobSpec) string {
	return runtime.KeyFor("trace", sp.Trace, sp.Kind,
		sp.scenarioKey(), sp.controllerKey(), fmt.Sprintf("seed=%d", sp.Seed))
}

// hasTrace reports whether the spec's trace artifact is already in the
// run cache.
func (r *Runtime) hasTrace(sp JobSpec) bool {
	var raw json.RawMessage
	return r.cache.Get(traceKey(sp), &raw)
}

// EncodeJobSpec serializes a spec for the wire.
func EncodeJobSpec(sp JobSpec) json.RawMessage {
	b, err := json.Marshal(sp)
	if err != nil {
		panic("exp: unmarshalable job spec: " + err.Error())
	}
	return b
}

// DecodeJobSpec parses and validates a wire spec: the wire's door, so
// a worker answers a malformed request with the validation error.
// Runtime.Job checks every spec again before it builds the spec's key,
// wherever the spec came from.
func DecodeJobSpec(b []byte) (JobSpec, error) {
	var sp JobSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		return JobSpec{}, fmt.Errorf("exp: job spec decode: %w", err)
	}
	if err := sp.validate(); err != nil {
		return JobSpec{}, err
	}
	return sp, nil
}

// Job compiles a spec into a runnable runtime job: the canonical key
// fields, the spec's encoder for process-crossing backends, and the
// in-process execution closure for the pool backend. Both execution
// paths run through execute, so a cell computes the same result no
// matter which side of a process boundary it lands on. The job's
// Encode is EncodeJobSpec of the spec, and the executor builds the
// payload once per dispatched job (Executor.RunAll): a cell the cache
// serves is never encoded.
//
// The spec is checked before its key is built (keyed). An invalid
// spec's job is never looked up in the cache (ForceRun), never grouped
// with another cell (see horizonGroups) and never shares a valid
// cell's key, so the executor cannot serve it another cell's result;
// its body fails with the validation error, and a worker pool handed
// its spec rejects it with the same error (DecodeJobSpec).
//
// When the runtime has a trace level configured it is stamped onto
// the spec here — but only when the spec carries none, so a worker
// compiling a wire-decoded spec preserves the coordinator's request
// rather than its own (always-empty) setting. A traced cell whose
// trace artifact is not yet cached is marked ForceRun: the cell
// re-executes once to capture the trace (publishing byte-identical
// results), and once the artifact exists re-tracing is a pure cache
// hit costing zero simulations.
func (r *Runtime) Job(sp JobSpec) runtime.Job {
	if r.traceLevel != "" && sp.Trace == "" {
		sp.Trace = r.traceLevel
	}
	j, err := sp.keyed()
	if err != nil {
		// A spec holding a NaN or an infinity does not encode, and a
		// coordinator reports its job as having no spec.
		j.Encode = func() json.RawMessage {
			b, _ := json.Marshal(sp)
			return b
		}
		j.ForceRun = true
		j.Run = func() runtime.Result { panic(err.Error()) }
		return j
	}
	j.Encode = func() json.RawMessage { return EncodeJobSpec(sp) }
	j.ForceRun = sp.Trace != "" && sp.traceable() && !r.hasTrace(sp)
	j.SnapshotKey = snapshotKey(sp)
	j.Run = func() runtime.Result {
		res, _ := r.execute(sp, nil)
		return res
	}
	return j
}

// snapshotKey returns the pretrained-controller snapshot key a warm
// FedGPO cell reads, "" for every contender with no per-scenario
// warm-up. The coordinator dispatches a cell reading a snapshot only
// where that snapshot is pooled, being built, or about to be built
// (pretrainedSnapshot singleflights per key per process), so each
// warm-up runs once across the fleet. It never enters the cache
// identity.
func snapshotKey(sp JobSpec) string {
	c := sp.Contender
	if c.Type != ContFedGPOWarm || c.Core == nil {
		return ""
	}
	return pretrainKey(sp.Scenario, *c.Core, c.WarmSeed, c.WarmRounds)
}

// RunJob executes one compiled job through the runtime's executor —
// run-cache check, panic isolation, cache write-back.
func (r *Runtime) RunJob(j runtime.Job) runtime.Result {
	return r.exec.RunAll([]runtime.Job{j})[0]
}

// RunRequest is a worker pool's request handler (runtime.ServeConfig's
// Run): it decodes the wire spec, checks that it addresses the cell it
// was dispatched as, and runs it through RunJob. A spec that does not
// decode or addresses another cell yields an error result — anything
// else would poison the coordinator's cache under the dispatched key.
// The job carries the spec it arrived as for its payload, so a miss is
// not encoded again.
func (r *Runtime) RunRequest(key string, spec json.RawMessage) runtime.Result {
	sp, err := DecodeJobSpec(spec)
	if err != nil {
		return runtime.Result{Key: key, Err: err.Error()}
	}
	job := r.Job(sp)
	if got := job.Key(); got != key {
		return runtime.Result{Key: key, Err: fmt.Sprintf("exp: spec addresses %q, dispatched as %q", got, key)}
	}
	job.Payload = spec
	return r.RunJob(job)
}

// execute reconstructs and runs one job from its declarative spec,
// which passed validate (Job checks it). It is deterministic in the
// spec for every kind except the sec54 probe's wall-clock overhead
// measurements (see sec54Extra), and it is the single entry point both
// backends funnel into — the pool backend through Job's closure, worker
// pools through the decoded wire spec. For a plain simulation cell run
// over horizons, it also returns the cell's result at each of them
// (see executeSim).
func (r *Runtime) execute(sp JobSpec, horizons []int) (runtime.Result, []fl.Result) {
	var res runtime.Result
	var sims []fl.Result
	switch sp.Kind {
	case KindSim:
		res, sims, _ = executeSim(r, sp, horizons)
	case KindQMem:
		res = executeQMem(r, sp)
	case KindOracle:
		res = executeOracle(r, sp)
	default: // KindSec54, the one kind left that validate admits
		res = executeSec54(r, sp)
	}
	// If this job's warm-up built a fresh pretrain snapshot, the first
	// result sharing its key carries the artifact out (the coordinator ships
	// it fleet-wide). Observational only: Sim bytes are untouched.
	r.attachBuiltSnapshot(sp, &res)
	return res, sims
}

// executeSim runs a simulation cell with per-job telemetry and returns
// it with the controller that ran it: controller construction
// (pretrained-snapshot restore or warm-up included) timed as the
// pretrain phase, round and merge phases recorded by the simulator,
// and the snapshot attached to the result for the executor — or,
// across a process boundary, the wire — to fold into the run-level
// collector. A sec54 spec runs full length (no convergence stop).
// Telemetry and tracing are observational only; the Sim outcome is
// byte-identical to an uninstrumented run.
//
// With horizons (ascending round budgets, the last the spec's own), the
// one run also returns its result at each budget, byte-identical to a
// run of the spec with that budget (fl.RunHorizons); the results share
// one History array, the last is the returned Result's Sim, and the
// returned Result's telemetry counts the rounds run once. Every member
// of a horizon group reads its result from these (see horizonGroup).
func executeSim(r *Runtime, sp JobSpec, horizons []int) (runtime.Result, []fl.Result, fl.Controller) {
	col := telemetry.NewCollector()
	t0 := time.Now()
	ctrl := r.controller(sp.Scenario, sp.Contender)
	col.RecordPhase(telemetry.PhasePretrain, time.Since(t0))
	traced := r.traceTarget(sp, ctrl)
	cfg := sp.Scenario.Config(sp.Seed)
	cfg.StopAtConvergence = cfg.StopAtConvergence && sp.Kind != KindSec54
	cfg.Telemetry = col
	var res runtime.Result
	var sims []fl.Result
	if horizons == nil {
		res.Sim = fl.Run(cfg, ctrl)
	} else {
		sims = fl.RunHorizons(cfg, ctrl, horizons)
		res.Sim = sims[len(sims)-1]
	}
	r.publishTrace(sp, traced)
	m := col.Snapshot()
	res.Telemetry = &m
	return res, sims, ctrl
}

// traceTarget enables decision tracing on the controller when the spec
// asks for it and the contender supports it, returning the controller
// to harvest the trace from (nil otherwise).
func (r *Runtime) traceTarget(sp JobSpec, ctrl fl.Controller) *core.Controller {
	if sp.Trace == "" || !sp.traceable() {
		return nil
	}
	c, ok := ctrl.(*core.Controller)
	if !ok {
		return nil
	}
	c.EnableTrace()
	return c
}

// publishTrace stores a traced controller's decision record as the
// spec's trace artifact. Best effort, like every cache write: a failed
// publish costs one future re-trace.
func (r *Runtime) publishTrace(sp JobSpec, c *core.Controller) {
	if c == nil {
		return
	}
	if tr := c.DecisionTrace(); len(tr) > 0 {
		_ = r.cache.Put(traceKey(sp), tr)
	}
}

// controller materializes a contender spec into a live controller for
// a scenario (see contenderType.build).
func (r *Runtime) controller(s ScenarioSpec, c ContenderSpec) fl.Controller {
	return contenderTypes[c.Type].build(r, s, c)
}

// pretrainKey addresses a pretrained-controller snapshot in the
// content-addressed cache: scenario, full controller config, the
// warm-up deployment, and the snapshot's encoding, so an entry in
// another encoding is a plain miss (see the runtime package doc's key
// scheme).
func pretrainKey(s ScenarioSpec, cfg core.Config, warmSeed int64, warmRounds int) string {
	return runtime.KeyFor("pretrain", s.cacheKey(), "cfg="+canonJSON(cfg),
		fmt.Sprintf("warmseed=%d", warmSeed), fmt.Sprintf("warmrounds=%d", warmRounds),
		"snap="+core.SnapshotFormat)
}

// staticContender names a fixed-(B,E,K) contender; an empty name
// displays as "Fixed(B,E,K)". The name is display only.
func staticContender(p fl.Params, name string) ContenderSpec {
	if name == "" {
		name = "Fixed" + p.String()
	}
	return ContenderSpec{Type: ContStatic, Name: name, Params: p}
}

// fedgpoWarmContender names the paper's steady-state FedGPO contender:
// the Q-tables are trained on a warm-up run (distinct seed) and
// frozen, matching the paper's §5.4 framing of the learning phase as
// amortized server-side infrastructure.
func fedgpoWarmContender(s ScenarioSpec) ContenderSpec {
	return fedgpoVariantContender(s, "FedGPO", nil)
}

// fedgpoVariantContender builds a warm-started FedGPO contender with a
// customized configuration. The spec serializes the full controller
// config plus the warm-up deployment, so any config deviation names a
// distinct cell — and any process can rebuild the controller from the
// spec alone.
func fedgpoVariantContender(s ScenarioSpec, name string, mutate func(*core.Config)) ContenderSpec {
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return ContenderSpec{
		Type:       ContFedGPOWarm,
		Name:       name,
		Core:       &cfg,
		WarmSeed:   warmupSeed,
		WarmRounds: min(150, s.rounds()),
	}
}

// fedgpoColdContender names the cold FedGPO contender (learning inside
// the measured run).
func fedgpoColdContender() ContenderSpec {
	cfg := core.DefaultConfig()
	return ContenderSpec{Type: ContFedGPOCold, Name: "FedGPO (cold)", Core: &cfg}
}

// canonJSON canonically serializes a controller config for use inside
// a cache key. Struct fields marshal in declaration order, so the
// encoding is stable across processes.
func canonJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("exp: unmarshalable config in cache key: " + err.Error())
	}
	return string(b)
}
