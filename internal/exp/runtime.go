package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
)

// Runtime bundles the experiment runtime shared by every figure
// generated under one Options value: the execution backend (in-process
// worker pool or the shard coordinator over TCP worker pools), the
// content-addressed run cache, the pretrained-controller cache, and
// the structured result store.
type Runtime struct {
	exec  *runtime.Executor
	cache *runtime.Cache
	// store, nil until StreamStore, records every cell the runtime
	// runs or serves from cache.
	store *runtime.Store
	// onJob, when set, observes every job a batch submits (test hook
	// for spec round-trip coverage).
	onJob func(runtime.Job)
	// col accumulates the runtime's telemetry: job-level hit/run
	// counters from the executor, cache-level I/O from the cache,
	// dispatch latency and retry/failover counters from the
	// coordinator, and per-job phase timings folded in per result.
	col *telemetry.Collector
	// traceLevel, when non-empty, is stamped onto every JobSpec this
	// runtime compiles (telemetry.TraceDecisions records RL decision
	// traces as spec-addressed cache artifacts).
	traceLevel string

	// The pretrained-controller singleflight: one warm-up per distinct
	// (scenario, controller config, warm-up seed/rounds) key per
	// process, no matter how many cells across how many workers request
	// the same pretrained Q-tables concurrently.
	pretrainMu   sync.Mutex
	pretrains    map[string]*pretrainEntry
	pretrainRuns atomic.Int64
	// builtSnaps holds the serialized artifacts of snapshots this
	// process built from scratch, keyed by pretrain key and guarded by
	// pretrainMu. Each artifact is taken exactly once, by the first
	// finished job sharing the key (attachBuiltSnapshot), which carries
	// it back to the coordinator over the wire.
	builtSnaps map[string][]byte
}

// pretrainEntry is one pretrain key's singleflight slot. A plain
// sync.Once would be wrong here: a panic inside the warm-up would mark
// the once done and hand every sibling cell a zero-value snapshot —
// an untrained controller producing plausible-but-wrong results that
// would then be cached. Instead the entry records the outcome and
// replays a panic to every requester, so each affected cell fails
// loudly (and is never cached) exactly like the cell that warmed it.
type pretrainEntry struct {
	mu       sync.Mutex
	done     bool
	snap     core.Snapshot
	panicked any
}

// NewRuntime builds a runtime on the in-process pool backend with the
// given worker count (0 selects GOMAXPROCS) and optional on-disk cache
// directory ("" keeps the run cache in memory only).
func NewRuntime(parallel int, cacheDir string) (*Runtime, error) {
	cache, err := runtime.NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	return NewRuntimeWithBackend(runtime.NewPoolBackend(parallel), cache), nil
}

// NewRuntimeWithBackend builds a runtime on an explicit execution
// backend and cache — the constructor behind the CLIs' -workers flag.
// With a runtime.Coordinator the batch runs across worker processes;
// sharing the cache's directory with the workers gives run results and
// pretrained-controller snapshots one home, so hit semantics match the
// pool backend's exactly.
func NewRuntimeWithBackend(b runtime.Backend, cache *runtime.Cache) *Runtime {
	r := &Runtime{
		exec:      runtime.NewExecutorBackend(b, cache),
		cache:     cache,
		pretrains: make(map[string]*pretrainEntry),
		col:       telemetry.NewCollector(),
	}
	// Telemetry is wired by construction: executor (job-level counters,
	// per-job phase fold-in) and, through it, a coordinator backend
	// (per-endpoint dispatch counters and latency), plus the cache (I/O
	// timings, mem/disk hit split).
	r.exec.SetCollector(r.col)
	cache.SetCollector(r.col)
	// A coordinator backend additionally gets the run cache so worker-
	// returned pretrain snapshots persist under their own keys
	// and re-ship fleet-wide.
	if bc, ok := b.(interface {
		SetCache(*runtime.Cache)
	}); ok {
		bc.SetCache(cache)
	}
	return r
}

// Stats returns the executor's lifetime cache-hit/run counters and
// endpoint entries, read from the runtime's collector.
func (r *Runtime) Stats() runtime.Stats { return r.exec.Stats() }

// Close does nothing: cache hits refresh their entry's mtime inline,
// so no maintenance is left to flush.
//
// Deprecated: there is nothing to close; it always returns nil.
func (r *Runtime) Close() error { return nil }

// SetTraceLevel sets the RL decision-trace level stamped onto every
// job this runtime compiles: telemetry.TraceDecisions enables
// per-round decision recording for traceable cells, "" (the default)
// disables it. Tracing never changes canonical keys or result bytes;
// it only adds spec-addressed trace artifacts to the cache.
func (r *Runtime) SetTraceLevel(level string) { r.traceLevel = level }

// Metrics snapshots the runtime's collector, the one record of its
// job, cache and endpoint counts (Stats reads the same record).
func (r *Runtime) Metrics() telemetry.Metrics { return r.col.Snapshot() }

// Workers returns the execution backend's parallelism.
func (r *Runtime) Workers() int { return r.exec.Workers() }

// SetInnerParallel does nothing: rounds always model their
// participants serially, and the only parallelism is across cells.
//
// Deprecated: ignored.
func (r *Runtime) SetInnerParallel(int) {}

// PretrainStats reports the pretrained-controller cache's activity:
// runs is how many Q-table warm-ups actually executed in this process,
// distinct how many distinct pretrain keys were requested. On a cold
// run runs == distinct (exactly one warm-up per scenario/config); on a
// warm disk-cache rerun runs == 0. Under the coordinator the warm-ups
// execute inside the worker pools, so the coordinator's counters stay
// at zero.
func (r *Runtime) PretrainStats() (runs, distinct int) {
	r.pretrainMu.Lock()
	defer r.pretrainMu.Unlock()
	return int(r.pretrainRuns.Load()), len(r.pretrains)
}

// pretrainedSnapshot returns (building at most once per process, and
// at most once ever under a persistent cache directory) the pretrained
// FedGPO controller snapshot for a scenario. The binary form is exact
// (UnmarshalBinary returns a value equal to the one encoded), so every
// consumer sees identical values whether the snapshot was built here,
// read from the cache or shipped by another process.
func (r *Runtime) pretrainedSnapshot(s ScenarioSpec, cfg core.Config, warmSeed int64, warmRounds int, key string) core.Snapshot {
	r.pretrainMu.Lock()
	e, ok := r.pretrains[key]
	if !ok {
		e = &pretrainEntry{}
		r.pretrains[key] = e
	}
	r.pretrainMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.panicked != nil {
		// The warm-up is deterministic, so retrying would fail the same
		// way; replay the failure for every cell that depends on it.
		panic(e.panicked)
	}
	if e.done {
		return e.snap
	}
	// A cache directory an earlier run filled is a process boundary too.
	if !r.cache.Get(key, &e.snap) || e.snap.Validate() != nil {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					e.panicked = rec
					panic(rec)
				}
			}()
			warmCfg := s.Config(warmSeed)
			warmCfg.MaxRounds = warmRounds
			snap := core.PretrainSnapshot(cfg, warmCfg)
			r.pretrainRuns.Add(1)
			// Encode once: the same bytes are the cache payload and the
			// artifact the first finished job sharing this key carries to
			// the coordinator for fleet-wide reuse, so a coordinator
			// persisting them writes the entry this process did.
			data := snap.AppendBinary(nil)
			// A failed cache write only costs a future warm-up.
			_ = r.cache.Put(key, data)
			r.pretrainMu.Lock()
			if r.builtSnaps == nil {
				r.builtSnaps = make(map[string][]byte)
			}
			r.builtSnaps[key] = data
			r.pretrainMu.Unlock()
			e.snap = snap
		}()
	}
	e.done = true
	return e.snap
}

// attachBuiltSnapshot moves a freshly built pretrain artifact onto the
// first finished result that reads its snapshot key — taken exactly
// once, so the artifact crosses the wire a single time no matter how
// many sibling cells follow. The carrying result also counts the
// warm-up in its per-job telemetry (Counters.PretrainRuns), which the
// coordinator folds fleet-wide: a cold sweep's counter equals the
// number of warm-ups that actually executed anywhere in the fleet.
func (r *Runtime) attachBuiltSnapshot(sp JobSpec, res *runtime.Result) {
	key := snapshotKey(sp)
	if key == "" {
		return
	}
	r.pretrainMu.Lock()
	data, ok := r.builtSnaps[key]
	if ok {
		delete(r.builtSnaps, key)
	}
	r.pretrainMu.Unlock()
	if !ok {
		return
	}
	res.Snaps = append(res.Snaps, runtime.SnapshotArtifact{Key: key, Data: data})
	if res.Telemetry == nil {
		res.Telemetry = &telemetry.Metrics{}
	}
	res.Telemetry.Counters.PretrainRuns++
}

// InstallSnapshot installs a coordinator-shipped pretrained-controller
// artifact (WireRequest.Snaps) into this runtime's pretrain
// singleflight and run cache, so a cell needing key deserializes it
// instead of re-running the warm-up. An entry this process already
// resolved wins — the shipped copy is byte-identical by construction,
// so skipping it changes nothing. A snapshot that fails to decode
// (core.Snapshot.UnmarshalBinary) or to validate is neither installed
// nor stored.
func (r *Runtime) InstallSnapshot(key string, data []byte) error {
	var snap core.Snapshot
	if err := snap.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("exp: installing snapshot %q: %w", key, err)
	}
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("exp: installing snapshot %q: %w", key, err)
	}
	r.pretrainMu.Lock()
	e, ok := r.pretrains[key]
	if !ok {
		e = &pretrainEntry{}
		r.pretrains[key] = e
	}
	r.pretrainMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done || e.panicked != nil {
		return nil
	}
	e.snap = snap
	e.done = true
	// Persist like a locally built snapshot would (best effort), so this
	// process's cache directory serves future cold runs too.
	_ = r.cache.Put(key, data)
	return nil
}

// SetProgress installs a per-job progress callback.
func (r *Runtime) SetProgress(fn func(runtime.Progress)) { r.exec.SetProgress(fn) }

// StreamStore turns on result recording: from now on every cell the
// runtime runs or serves from cache is appended to path as JSON Lines,
// round history included, the moment its batch completes, and nothing
// is retained in memory. Off by default — a paper-scale report holds
// hundreds of multi-hundred-round histories, dead weight unless
// something (the CLIs' -results flag) will consume them. Call
// CloseStore when done.
func (r *Runtime) StreamStore(path string) error {
	if r.store != nil {
		return fmt.Errorf("exp: result store already streaming")
	}
	st, err := runtime.NewStore(path)
	if err != nil {
		return err
	}
	r.store = st
	return nil
}

// CloseStore flushes and closes the result store (no-op without one),
// surfacing any write error the stream hit along the way.
func (r *Runtime) CloseStore() error {
	if r.store == nil {
		return nil
	}
	return r.store.Close()
}

// Store returns the result store, nil until StreamStore. Its Len
// counts the cells recorded; their payloads live in the stream file.
func (r *Runtime) Store() *runtime.Store { return r.store }

// cell is one (scenario, contender) simulation cell; crossed with the
// seed set it names the jobs of an experiment.
type cell struct {
	s ScenarioSpec
	c ContenderSpec
}

// JobError is the panic value of a failed cell: runSpecs raises it
// after the rest of the batch drained, and the CLIs recover it (and
// nothing else) into one error line. A spec that fails validation is
// such a cell too, under a key of its own (see Runtime.Job).
type JobError struct {
	// Key is the failed cell's canonical key; Err its Result.Err (a
	// panic message, a validation error, or the endpoint error that
	// left it unrun).
	Key, Err string
}

func (e *JobError) Error() string { return fmt.Sprintf("exp: cell %s failed: %s", e.Key, e.Err) }

// runSpecs executes a spec batch through the runtime's executor and
// returns the results in spec order, each with its Outcome derived
// from its spec's workload and its history (cache entries and wire
// responses do not carry it). It records the results in the store and
// panics with a *JobError on job failure — matching fl.Run's
// panic-on-invalid-config semantics while still letting the rest of
// the batch drain. Every spec is checked as Job compiles it, so an
// invalid spec fails as a cell of its own and never panics here before
// the batch runs.
//
// Cells that differ only in their round budget run as one (see
// horizonGroup): their jobs run the group's body instead of execute,
// so the first of them to start runs the group and the rest wait for
// it, and the batch is dispatched longest members first.
func (r *Runtime) runSpecs(specs []JobSpec) []runtime.Result {
	jobs := make([]runtime.Job, len(specs))
	for i, sp := range specs {
		jobs[i] = r.Job(sp)
	}
	groups, order := r.horizonGroups(specs, jobs)
	for i, g := range groups {
		if g != nil {
			jobs[i].Run = func() runtime.Result { return g.run(r, i) }
		}
	}
	if r.onJob != nil {
		for _, j := range jobs {
			r.onJob(j)
		}
	}
	var results []runtime.Result
	if order == nil {
		results = r.exec.RunAll(jobs)
	} else {
		dispatch := make([]runtime.Job, len(jobs))
		for k, i := range order {
			dispatch[k] = jobs[i]
		}
		out := r.exec.RunAll(dispatch)
		results = make([]runtime.Result, len(jobs))
		for k, i := range order {
			results[i] = out[k]
		}
	}
	for i := range results {
		res := &results[i]
		res.Sim.Outcome = fl.OutcomeOf(specs[i].Scenario.Workload, res.Sim.History)
		// Set after the cache write-backs, the provenance tag never
		// reaches a cache entry; only the in-memory results (and the
		// -results store JSON) see it.
		if res.Cached {
			res.Provenance = runtime.ProvenanceReplayed
		} else {
			res.Provenance = runtime.ProvenanceMeasured
		}
	}
	if r.store != nil {
		r.store.Add(results...)
	}
	for _, res := range results {
		if res.Err != "" {
			panic(&JobError{Key: res.Key, Err: res.Err})
		}
	}
	return results
}

// extra decodes the Kind-specific payload of a result runSpecs
// returned. The payload is written by this package's own job body, so
// a payload that does not decode is a bug, not an input error.
func extra[T any](res runtime.Result) T {
	var v T
	if err := res.GetExtra(&v); err != nil {
		panic(fmt.Sprintf("exp: %T payload of %s: %v", v, res.Key, err))
	}
	return v
}

// simSpec names one plain simulation cell: figures, sweeps and the
// grid search all describe their cells here so they share cache
// identity.
func simSpec(s ScenarioSpec, c ContenderSpec, seed int64) JobSpec {
	return JobSpec{Kind: KindSim, Scenario: s, Contender: c, Seed: seed}
}

// summaries fans len(cells) × len(seeds) jobs out over the execution
// backend and aggregates each cell over its seeds in seed order
// (fl.Summarize) — tables built from these summaries are
// byte-identical to the serial path regardless of backend or worker
// count.
func (r *Runtime) summaries(cells []cell, seeds []int64) []fl.Summary {
	specs := make([]JobSpec, 0, len(cells)*len(seeds))
	for _, cl := range cells {
		for _, seed := range seeds {
			specs = append(specs, simSpec(cl.s, cl.c, seed))
		}
	}
	results := r.runSims(specs)
	sums := make([]fl.Summary, len(cells))
	for i, cl := range cells {
		sums[i] = fl.Summarize(cl.s.rounds(), results[i*len(seeds):(i+1)*len(seeds)])
	}
	return sums
}

// runSims is runSpecs for callers that need only the simulator results.
func (r *Runtime) runSims(specs []JobSpec) []fl.Result {
	results := r.runSpecs(specs)
	out := make([]fl.Result, len(results))
	for i, res := range results {
		out[i] = res.Sim
	}
	return out
}

// SweepStatic runs one static-parameter simulation per entry of params
// on the scenario, fanned out over the options' runtime, and returns
// the per-run results in params order. The cells share their cache
// identity with the figure constructors', so a sweep warms the report
// cache and vice versa.
func SweepStatic(o Options, s ScenarioSpec, params []fl.Params, seed int64) []fl.Result {
	specs := make([]JobSpec, len(params))
	for i, p := range params {
		specs[i] = simSpec(s, staticContender(p, ""), seed)
	}
	return o.runtime().runSims(specs)
}

// SweepScenarios runs one simulation per scenario spec at a single
// static parameter setting, fanned out over the options' runtime, and
// returns the per-run results in spec order — the executor behind
// fedgpo-sweep's -matrix and -scenario-file modes. The cells share
// their cache identity with every other constructor touching the same
// deployments, so a matrix sweep warms the report cache and vice
// versa.
//
// On the in-process backend, specs that differ only in their round
// budget (a matrix's rounds axis) run each deployment once, at the
// longest budget, at any worker count, and read the shorter budgets'
// results off that run at their rounds (see horizonGroup); each is
// byte-identical to its own run and still counts, and is cached, as a
// cell of its own. Such results share one History array, so no caller
// writes through or decodes into a returned Result's slices or maps
// (see fl.Result).
func SweepScenarios(o Options, specs []ScenarioSpec, p fl.Params, seed int64) []fl.Result {
	jobSpecs := make([]JobSpec, len(specs))
	for i, s := range specs {
		jobSpecs[i] = simSpec(s, staticContender(p, ""), seed)
	}
	return o.runtime().runSims(jobSpecs)
}

// gridSearchBest is the paper's Fixed (Best) selection ("the most
// energy-efficient parameter combination identified by grid search"):
// it runs every grid setting on the scenario for each seed and returns
// the first setting with the strictly greatest mean PPW. The grid's
// cells fan out over the execution backend and are cached one by one.
func (r *Runtime) gridSearchBest(s ScenarioSpec, grid []fl.Params, seeds []int64) fl.Params {
	cells := make([]cell, len(grid))
	for i, p := range grid {
		cells[i] = cell{s, staticContender(p, "")}
	}
	return grid[bestPPW(r.summaries(cells, seeds))]
}

// bestPPW is the one argmax over settings: the index of the first
// summary with the strictly greatest MeanPPW.
func bestPPW(sums []fl.Summary) int {
	best := 0
	for i, s := range sums {
		if s.MeanPPW > sums[best].MeanPPW {
			best = i
		}
	}
	return best
}
