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
	// col accumulates the runtime's telemetry: job-level hit/run
	// counters from the executor, cache-level I/O from the cache,
	// dispatch latency and retry/failover counters from the
	// coordinator, and per-job phase timings folded in per result.
	col *telemetry.Collector

	// The pretrained-controller singleflight: one entry, resolved
	// once, per distinct (scenario, controller config, warm-up
	// seed/rounds) key per process, no matter how many cells across how
	// many workers request the same pretrained Q-tables concurrently.
	// pretrainRuns counts the warm-ups it executed.
	pretrainMu   sync.Mutex
	pretrains    map[string]*pretrainEntry
	pretrainRuns atomic.Int64
}

// pretrainEntry is one pretrain key's singleflight slot.
type pretrainEntry struct {
	// snap resolves the key once (sync.OnceValue) and returns the
	// snapshot to every caller. A warm-up that panics panics again in
	// every caller, so each cell reading the snapshot fails loudly, and
	// is never cached, instead of restoring an untrained controller
	// whose plausible-but-wrong results would be.
	snap func() core.Snapshot
	// built holds the encoded snapshot when this process built it from
	// scratch, until the first finished job reading the key takes it
	// (attachBuiltSnapshot) to carry it back to the coordinator.
	built atomic.Pointer[[]byte]
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
// at zero; Metrics().Counters.PretrainRuns counts the warm-ups of
// either backend (fleet-wide under the coordinator).
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
		e.snap = sync.OnceValue(func() core.Snapshot {
			// A cache directory an earlier run filled is a process
			// boundary too, and so is a snapshot another process shipped
			// (InstallSnapshot).
			var snap core.Snapshot
			if r.cache.Get(key, &snap) && snap.Validate() == nil {
				return snap
			}
			warmCfg := s.Config(warmSeed)
			warmCfg.MaxRounds = warmRounds
			snap = core.PretrainSnapshot(cfg, warmCfg)
			r.pretrainRuns.Add(1)
			// Encode once: the same bytes are the cache payload and the
			// artifact the first finished job reading this key carries to
			// the coordinator for fleet-wide reuse, so a coordinator
			// persisting them writes the entry this process did.
			data := snap.AppendBinary(nil)
			// A failed cache write only costs a future warm-up.
			_ = r.cache.Put(key, data)
			e.built.Store(&data)
			return snap
		})
		r.pretrains[key] = e
	}
	r.pretrainMu.Unlock()
	return e.snap()
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
	e := r.pretrains[key]
	r.pretrainMu.Unlock()
	if e == nil {
		return
	}
	data := e.built.Swap(nil)
	if data == nil {
		return
	}
	res.Snaps = append(res.Snaps, runtime.SnapshotArtifact{Key: key, Data: *data})
	if res.Telemetry == nil {
		res.Telemetry = &telemetry.Metrics{}
	}
	res.Telemetry.Counters.PretrainRuns++
}

// InstallSnapshot stores a coordinator-shipped pretrained-controller
// artifact (WireRequest.Snaps) in this runtime's run cache, where a
// cell needing key reads it as it reads a snapshot an earlier run left
// in a cache directory, instead of re-running the warm-up. An entry
// this process already resolved keeps its snapshot: the shipped copy
// is byte-identical by construction. A snapshot that fails to decode
// (core.Snapshot.UnmarshalBinary) or to validate reaches neither the
// cache nor the singleflight.
func (r *Runtime) InstallSnapshot(key string, data []byte) error {
	var snap core.Snapshot
	err := snap.UnmarshalBinary(data)
	if err == nil {
		err = snap.Validate()
	}
	if err == nil {
		err = r.cache.Put(key, data)
	}
	if err != nil {
		return fmt.Errorf("exp: installing snapshot %q: %w", key, err)
	}
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
// it. The batch is dispatched in dispatchOrder.
func (r *Runtime) runSpecs(specs []JobSpec) []runtime.Result {
	jobs := make([]runtime.Job, len(specs))
	for i, sp := range specs {
		jobs[i] = r.Job(sp)
	}
	order := dispatchOrder(specs, jobs, r.horizonGroups(specs, jobs))
	// Reorder in place, not into copies of the batch's jobs and
	// results.
	rank := make([]int, len(order))
	for k, i := range order {
		rank[i] = k
	}
	scatter(jobs, rank)
	results := r.exec.RunAll(jobs)
	scatter(results, order)
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

// dispatchOrder is the one order a batch reaches its backend in, as
// batch indexes (the executor hands its misses on in the order it
// receives them):
//
//  1. the first job reading each distinct Job.SnapshotKey;
//  2. then every horizon group's longest member (groups by batch
//     index, from horizonGroups), spread over their environments
//     (spreadEnvironments);
//  3. then the rest, in batch order.
//
// The snapshot leaders are taken in the order steps 2 and 3 give,
// which is batch order in every batch without a horizon group. A
// leader's cell runs its snapshot's Q-table warm-up, and a sibling
// reading the same snapshot waits on that warm-up; dispatching the
// leaders first starts distinct warm-ups on distinct workers instead of
// parking a worker behind a sibling's, on both backends. A batch [A(K1),
// B(K1), C(K2), D] reaches the backend as [A, C, B, D]. A group's run
// is the longest one of the batch, so it starts next. The order
// changes no byte of any result: results land by batch index.
func dispatchOrder(specs []JobSpec, jobs []runtime.Job, groups []*horizonGroup) []int {
	order := make([]int, 0, len(jobs))
	if groups != nil {
		for i, g := range groups {
			if g != nil && g.longest == i {
				order = append(order, i)
			}
		}
		spreadEnvironments(specs, order)
	}
	for i := range jobs {
		if groups == nil || groups[i] == nil || groups[i].longest != i {
			order = append(order, i)
		}
	}
	leader := make(map[string]int)
	out := make([]int, 0, len(order))
	for _, i := range order {
		if k := jobs[i].SnapshotKey; k != "" {
			if _, ok := leader[k]; !ok {
				leader[k] = i
				out = append(out, i)
			}
		}
	}
	for _, i := range order {
		if l, ok := leader[jobs[i].SnapshotKey]; !ok || l != i {
			out = append(out, i)
		}
	}
	return out
}

// scatter moves s[i] to s[to[i]] for every i, in place, and leaves to
// the identity.
func scatter[T any](s []T, to []int) {
	for i := range to {
		for to[i] != i {
			j := to[i]
			s[i], s[j] = s[j], s[i]
			to[i], to[j] = to[j], to[i]
		}
	}
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
