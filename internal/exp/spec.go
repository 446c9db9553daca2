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
	// in cache identity.
	Name string `json:"name,omitempty"`
	// Params and Label configure the static (fixed-parameter)
	// contender. The label participates in the cache key: a labeled
	// controller records its label in the stored result, so labeled and
	// unlabeled runs of the same setting stay distinct cells.
	Params fl.Params `json:"params,omitempty"`
	Label  string    `json:"label,omitempty"`
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

// key returns the contender's canonical cache descriptor — the
// controller half of a job key. The strings are byte-identical to the
// closure-era scheme, so existing cache directories stay valid.
func (c ContenderSpec) key() string {
	switch c.Type {
	case ContStatic:
		k := "static/" + c.Params.String()
		if c.Label != "" {
			k += "/label=" + c.Label
		}
		return k
	case ContFedGPOWarm:
		return fmt.Sprintf("fedgpo-warm/cfg=%s/warmseed=%d/warmrounds=%d",
			canonJSON(*c.Core), c.WarmSeed, c.WarmRounds)
	case ContFedGPOCold:
		return "fedgpo-cold/cfg=" + canonJSON(*c.Core)
	case ContBO:
		return fmt.Sprintf("adaptive-bo/seed=%d", c.CtrlSeed)
	case ContGA:
		return fmt.Sprintf("adaptive-ga/seed=%d", c.CtrlSeed)
	case ContFedEX:
		return fmt.Sprintf("fedex/seed=%d", c.CtrlSeed)
	case ContABS:
		return fmt.Sprintf("abs/seed=%d", c.CtrlSeed)
	default:
		panic("exp: unknown contender type " + c.Type)
	}
}

// validate checks that the spec carries the configuration its type
// requires, so a malformed wire spec fails at decode time rather than
// as a nil dereference mid-job.
func (c ContenderSpec) validate() error {
	switch c.Type {
	case ContStatic, ContBO, ContGA, ContFedEX, ContABS:
		return nil
	case ContFedGPOWarm, ContFedGPOCold:
		if c.Core == nil {
			return fmt.Errorf("exp: contender %q missing core config", c.Type)
		}
		if c.WarmRounds < 0 || c.WarmRounds > maxSpecRounds {
			return fmt.Errorf("exp: warmRounds must be in [0, %d], got %d", maxSpecRounds, c.WarmRounds)
		}
		return nil
	default:
		return fmt.Errorf("exp: unknown contender type %q", c.Type)
	}
}

// JobSpec is the declarative, serializable description of one job:
// scenario configuration, contender specification, run seed, and the
// kind-specific probe knobs. Every job the experiment harness emits —
// figure cells, sweep cells, grid-search cells, ablation variants, the
// oracle and overhead probes — is a JobSpec; Runtime.Execute is the
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

// Key returns the job's full canonical key — the same key
// runtime.Job.Key derives, exposed so workers can verify that a
// decoded spec addresses the cell it was dispatched as.
func (sp JobSpec) Key() string {
	return runtime.Job{
		Kind:       sp.Kind,
		Scenario:   sp.scenarioKey(),
		Controller: sp.controllerKey(),
		Seed:       sp.Seed,
	}.Key()
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
	switch sp.Contender.Type {
	case ContFedGPOWarm, ContFedGPOCold:
	default:
		return false
	}
	return sp.Kind == KindSim || sp.Kind == KindSec54
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

// DecodeJobSpec parses and validates a wire spec.
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
// fields, the serialized spec for process-crossing backends, and the
// in-process execution closure for the pool backend. Both execution
// paths run through Execute, so a cell computes the same result no
// matter which side of a process boundary it lands on.
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
	return runtime.Job{
		Kind:        sp.Kind,
		Scenario:    sp.scenarioKey(),
		Controller:  sp.controllerKey(),
		Seed:        sp.Seed,
		Payload:     EncodeJobSpec(sp),
		Run:         func() runtime.Result { return r.Execute(sp) },
		ForceRun:    sp.Trace != "" && sp.traceable() && !r.hasTrace(sp),
		SnapshotKey: snapshotKey(sp),
	}
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
func (r *Runtime) RunRequest(key string, spec json.RawMessage) runtime.Result {
	sp, err := DecodeJobSpec(spec)
	if err != nil {
		return runtime.Result{Key: key, Err: err.Error()}
	}
	job := r.Job(sp)
	if got := job.Key(); got != key {
		return runtime.Result{Key: key, Err: fmt.Sprintf("exp: spec addresses %q, dispatched as %q", got, key)}
	}
	return r.RunJob(job)
}

// Execute reconstructs and runs one job from its declarative spec.
// It is deterministic in the spec for every kind except the sec54
// probe's wall-clock overhead measurements (see sec54Extra), and it is
// the single entry point both backends funnel into — the pool backend
// through Job's closure, worker pools through the decoded wire spec.
func (r *Runtime) Execute(sp JobSpec) runtime.Result {
	if err := sp.validate(); err != nil {
		panic(err.Error())
	}
	var res runtime.Result
	switch sp.Kind {
	case KindSim:
		res = executeSim(r, sp)
	case KindQMem:
		res = executeQMem(r, sp)
	case KindOracle:
		res = executeOracle(r, sp)
	case KindSec54:
		res = executeSec54(r, sp)
	default:
		panic("exp: unknown job kind " + sp.Kind)
	}
	// If this job's warm-up built a fresh pretrain snapshot, the first
	// result sharing its key carries the artifact out (the coordinator ships
	// it fleet-wide). Observational only: Sim bytes are untouched.
	r.attachBuiltSnapshot(sp, &res)
	return res
}

// executeSim runs a plain simulation cell with per-job telemetry:
// controller construction (pretrained-snapshot restore or warm-up
// included) timed as the pretrain phase, round and merge phases
// recorded by the simulator, and the snapshot attached to the result
// for the executor — or, across a process boundary, the wire — to
// fold into the run-level collector. Telemetry and tracing are
// observational only; the Sim outcome is byte-identical to an
// uninstrumented run.
func executeSim(r *Runtime, sp JobSpec) runtime.Result {
	col := telemetry.NewCollector()
	t0 := time.Now()
	ctrl := r.controller(sp.Scenario, sp.Contender)
	col.RecordPhase(telemetry.PhasePretrain, time.Since(t0))
	traced := r.traceTarget(sp, ctrl)
	cfg := sp.Scenario.Config(sp.Seed)
	cfg.Telemetry = col
	res := runtime.Result{Sim: fl.Run(cfg, ctrl)}
	r.publishTrace(sp, traced)
	m := col.Snapshot()
	res.Telemetry = &m
	return res
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
// a scenario. The warm FedGPO variant restores its Q-tables from the
// runtime's pretrained-controller cache, addressed by the spec's
// scenario, config and warm-up deployment — the warm-up runs once per
// pretrain key per process, and once ever under a persistent cache
// directory.
func (r *Runtime) controller(s ScenarioSpec, c ContenderSpec) fl.Controller {
	if err := c.validate(); err != nil {
		panic(err.Error())
	}
	switch c.Type {
	case ContStatic:
		return &fl.Static{P: c.Params, Label: c.Label}
	case ContFedGPOWarm:
		cfg := *c.Core
		snap := r.pretrainedSnapshot(s, cfg, c.WarmSeed, c.WarmRounds, pretrainKey(s, cfg, c.WarmSeed, c.WarmRounds))
		return core.FromSnapshot(cfg, snap)
	case ContFedGPOCold:
		return core.New(*c.Core)
	case ContBO:
		return baseline.NewBO(c.CtrlSeed)
	case ContGA:
		return baseline.NewGA(c.CtrlSeed)
	case ContFedEX:
		return baseline.NewFedEX(c.CtrlSeed)
	case ContABS:
		cfg := abs.DefaultConfig()
		cfg.Seed = c.CtrlSeed
		return abs.New(cfg)
	default:
		panic("exp: unknown contender type " + c.Type)
	}
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

// staticContender names a fixed-(B,E,K) contender.
func staticContender(p fl.Params, label string) ContenderSpec {
	name := label
	if name == "" {
		name = "Fixed" + p.String()
	}
	return ContenderSpec{Type: ContStatic, Name: name, Params: p, Label: label}
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
