package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// sweepMatrix is the sweep-matrix workload's scenario matrix: 216
// Static cells over every axis the scenario generator knows.
const sweepMatrix = "fleet=50,100,200;alpha=iid,0.1,0.5;net=stable,unstable;intf=none,web-browsing,heavy-game@0.3;deadline=none,auto;rounds=100,300"

// tinyMatrix is the smoke-test stand-in for sweepMatrix.
const tinyMatrix = "fleet=20;alpha=iid,0.5;rounds=50"

// sweepParams is the (B,E,K) setting every sweep cell runs at.
var sweepParams = fl.Params{B: 8, E: 10, K: 20}

// fleetEndpoints is the number of in-process TCP endpoints paper-fleet
// dispatches to, each serving one session at a time.
const fleetEndpoints = 2

// runConfig is what every iteration shares: the workload seed, the
// scale, and the process's temporary directory (removed at exit).
type runConfig struct {
	seed int64
	tiny bool
	tmp  string
}

// reportOptions are the report workloads' inputs: the paper-scale
// registry over seeds {S, S+1} (S = 1 is fedgpo-report's default seed
// set), or the Tiny scale on seed S for the smoke test.
func (c runConfig) reportOptions() exp.Options {
	if c.tiny {
		o := exp.Tiny()
		o.Seeds = []int64{c.seed}
		return o
	}
	o := exp.Default()
	o.Seeds = []int64{c.seed, c.seed + 1}
	return o
}

// workloadDef names one closed-loop workload: a single client that
// starts the next iteration only after the previous one returned. Each
// iteration runs in a fresh child process, as each fedgpo-report
// invocation does, so nothing one report leaves in process memory (the
// Fixed (Best) grid-search memo, pooled arenas, heap state) reaches
// the next.
type workloadDef struct {
	name string
	why  string
	// minIters and minSeconds are the floor of a run in set mode
	// (-out), where no -seconds is given.
	minIters   int
	minSeconds float64
	// fill: set-up fills a cache directory with a cold report, which the
	// iterations then read. reference: a cold report computed once
	// before set-up is what every iteration must reproduce.
	fill, reference bool
	// fileWeight weights the reference kernel's file part into the
	// factor that scales the workload's times (calibrate.go).
	// sweep-matrix spends about 40% of its worker time publishing cache
	// entries, and over 199 sampled iterations its times tracked the
	// file part; at a quarter weight the file part is a third of the
	// kernel's reference time. The reports' times tracked the memory
	// part alone, and the file part's own noise would only add to theirs.
	fileWeight float64
}

var workloads = []workloadDef{
	{name: "paper-cold", why: "full paper-scale report, fresh cache dir each time: kernel, controllers and pretraining do the work; the cache is only written",
		minIters: 20, minSeconds: 30},
	{name: "paper-warm", why: "the same report over a cache dir a cold run filled: the cache read and decode path does all the work, nothing is simulated",
		minIters: 100, minSeconds: 12, fill: true},
	{name: "paper-fleet", why: "the cold report through the coordinator to two localhost TCP endpoints: routing, wire codec and snapshot shipping",
		minIters: 20, reference: true},
	{name: "sweep-matrix", why: "216 Static scenario-matrix cells, fresh cache dir each time: per-cell orchestration, no controller or pretraining",
		minIters: 100, fileWeight: 0.25},
}

func workloadByName(name string) (workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// outcome is what an iteration produced, checked against the run's
// reference.
type outcome struct {
	Digest string `json:"digest"`
	// Sims is the number of cells simulated; PretrainRuns the Q-table
	// warm-ups executed (fleet-wide on paper-fleet).
	Sims         int64 `json:"sims"`
	PretrainRuns int64 `json:"pretrain_runs"`
}

// iteration is one measured iteration.
type iteration struct {
	outcome
	wall, cpu            time.Duration
	allocBytes, liveHeap uint64
	// cells is how many cells the iteration attempted (simulated or
	// served from cache); failed how many came back with Result.Err.
	cells, failed int64
	workers       int
	metrics       telemetry.Metrics
	endpoints     []runtime.EndpointStats
	dirBytes      int64
	captured      []captured
}

// meter brackets a timed region: wall clock, process CPU time and Go
// heap bytes allocated.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	alloc uint64
}

func startMeter() meter {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuTime(), alloc: ms.TotalAlloc}
}

func (m meter) stop(it *iteration) {
	it.wall = time.Since(m.t0)
	it.cpu = cpuTime() - m.cpu0
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	it.allocBytes = ms.TotalAlloc - m.alloc
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
// Callers keep the iteration's runtime alive across the call. Two
// cycles empty the sync.Pool caches (a pool survives one in its victim
// cache), so whether a pooled arena happened to be parked does not
// move the number.
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// finish fills the parts of an iteration read from the runtime after
// the timed region: live heap (the runtime still reachable), cell
// counts and telemetry.
func finish(it *iteration, rt *exp.Runtime, be *probeBackend) {
	it.liveHeap = liveHeap()
	st := rt.Stats()
	it.cells = st.Runs + st.Hits
	it.Sims = st.Runs
	it.failed = be.failed.Load()
	it.workers = rt.Workers()
	it.metrics = rt.Metrics()
	it.endpoints = st.Endpoints
	it.captured = be.captured
	runs, _ := rt.PretrainStats()
	it.PretrainRuns = int64(runs)
	goruntime.KeepAlive(rt)
}

// runReport runs every registry experiment in order, one span each.
// A failed cell panics inside exp, by design; the panic becomes an
// error here so the run reports it instead of crashing.
func runReport(o exp.Options, tr *tracer) (tables []exp.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("report failed: %v", r)
		}
	}()
	for _, e := range exp.Registry() {
		sp := tr.begin("exp." + e.ID)
		tables = append(tables, e.Run(o))
		tr.end(sp)
	}
	return tables, nil
}

// poolRuntime builds the CLI-default runtime (fedgpo-report with no
// backend flags) over a cache directory, behind the counting backend.
func poolRuntime(dir string, tr *tracer) (*exp.Runtime, *probeBackend, error) {
	cache, err := runtime.NewCache(dir)
	if err != nil {
		return nil, nil, err
	}
	be := newProbeBackend(runtime.NewPoolBackend(0), tr)
	rt := exp.NewRuntimeWithBackend(be, cache)
	rt.SetInnerParallel(-1)
	return rt, be, nil
}

// iterate runs one iteration of the named workload in this process;
// only the workload's own work is inside the timed region. dir is the
// cache directory a paper-warm iteration reads, or where a paper-cold
// iteration leaves its cache ("" = a fresh directory, removed after).
// tr, when non-nil, records spans.
func iterate(name string, cfg runConfig, dir string, tr *tracer) (iteration, error) {
	switch name {
	case "paper-cold":
		return reportIteration(cfg, dir, dir == "", tr)
	case "paper-warm":
		if dir == "" {
			return iteration{}, fmt.Errorf("paper-warm needs the cache directory a cold report filled")
		}
		return reportIteration(cfg, dir, false, tr)
	case "paper-fleet":
		return fleetIteration(cfg, tr)
	case "sweep-matrix":
		return sweepIteration(cfg, tr)
	}
	return iteration{}, fmt.Errorf("unknown workload %q", name)
}

// reportIteration is paper-cold and paper-warm: exp.NewRuntime(0, dir)
// with the adaptive inner budget, exactly fedgpo-report's defaults.
// With fresh set, dir is replaced by a new directory removed after.
func reportIteration(cfg runConfig, dir string, fresh bool, tr *tracer) (iteration, error) {
	var it iteration
	if fresh {
		d, err := os.MkdirTemp(cfg.tmp, "cold-")
		if err != nil {
			return it, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	m := startMeter()
	rt, be, err := poolRuntime(dir, tr)
	if err != nil {
		return it, err
	}
	tables, err := runReport(cfg.reportOptions().WithRuntime(rt), tr)
	if err != nil {
		return it, err
	}
	_ = rt.Close()
	m.stop(&it)
	finish(&it, rt, be)
	it.Digest = tablesDigest(tables)
	if tr != nil {
		it.dirBytes = dirBytes(dir)
	}
	return it, nil
}

// fleetIteration is paper-fleet: the cold report through the shard
// coordinator (affinity routing, adaptive inner budget) with a
// memory-only cache, dispatching to fleetEndpoints in-process
// runtime.Serve endpoints of capacity 1. The endpoints start before
// and drain after the timed region; they drain before the live heap is
// read, so it holds the coordinator's runtime alone, as a separate
// worker fleet would leave it.
func fleetIteration(cfg runConfig, tr *tracer) (iteration, error) {
	var it iteration
	fleet, err := startFleet(tr)
	if err != nil {
		return it, err
	}
	defer fleet.stop()
	m := startMeter()
	cache, err := runtime.NewCache("")
	if err != nil {
		return it, err
	}
	be := newProbeBackend(runtime.NewProcBackend(runtime.ProcConfig{
		Workers:       fleet.addrs,
		InnerParallel: -1,
		Route:         "affinity",
	}), tr)
	rt := exp.NewRuntimeWithBackend(be, cache)
	rt.SetInnerParallel(-1)
	tables, err := runReport(cfg.reportOptions().WithRuntime(rt), tr)
	if err != nil {
		return it, err
	}
	_ = rt.Close()
	m.stop(&it)
	fleet.stop()
	finish(&it, rt, be)
	it.Digest = tablesDigest(tables)
	// Warm-ups run inside the endpoints; the fleet-wide count comes back
	// over the wire with each result's telemetry.
	it.PretrainRuns = it.metrics.Counters.PretrainRuns
	return it, nil
}

// fleet is a set of in-process listening endpoints.
type fleet struct {
	addrs []string
	stops []func() error
}

// startFleet starts fleetEndpoints endpoints on 127.0.0.1:0, each a
// fresh exp.NewRuntime(1, "") serving one session at a time, with the
// request handler fedgpo-worker uses.
func startFleet(tr *tracer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < fleetEndpoints; i++ {
		wrt, err := exp.NewRuntime(1, "")
		if err != nil {
			f.stop()
			return nil, err
		}
		wrt.SetInnerParallel(0)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			errc <- runtime.Serve(ctx, lis, runtime.ServeConfig{
				Capacity: 1,
				Run:      endpointRun(wrt, tr),
				SetInner: func(n int) {
					if n >= 0 {
						wrt.SetInnerParallel(n)
					}
				},
				Install: wrt.InstallSnapshot,
			})
		}()
		f.addrs = append(f.addrs, lis.Addr().String())
		f.stops = append(f.stops, func() error {
			cancel()
			err := <-errc
			_ = wrt.Close()
			return err
		})
	}
	return f, nil
}

// endpointRun is fedgpo-worker's per-request handler, with a span
// around each call when tracing.
func endpointRun(wrt *exp.Runtime, tr *tracer) func(string, json.RawMessage) runtime.Result {
	return func(key string, spec json.RawMessage) runtime.Result {
		sp := tr.beginChild("fleet.worker", tr.currentBatch())
		defer tr.end(sp)
		js, err := exp.DecodeJobSpec(spec)
		if err != nil {
			return runtime.Result{Key: key, Err: "endpoint: " + err.Error()}
		}
		job := wrt.Job(js)
		if got := job.Key(); got != key {
			return runtime.Result{Key: key, Err: fmt.Sprintf("endpoint: spec addresses %q, dispatched as %q", got, key)}
		}
		return wrt.RunJob(job)
	}
}

// stop drains every endpoint and waits for it to return.
func (f *fleet) stop() {
	for _, s := range f.stops {
		if err := s(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: endpoint:", err)
		}
	}
	f.stops = nil
}

// sweepIteration is sweep-matrix: exp.SweepScenarios over the
// 216-cell matrix at (8,10,20), fresh cache dir each iteration.
func sweepIteration(cfg runConfig, tr *tracer) (iteration, error) {
	var it iteration
	m := sweepMatrix
	if cfg.tiny {
		m = tinyMatrix
	}
	specs, err := exp.ScenarioMatrix(workload.CNNMNIST(), m)
	if err != nil {
		return it, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "sweep-")
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	meter := startMeter()
	rt, be, err := poolRuntime(dir, tr)
	if err != nil {
		return it, err
	}
	results, err := runSweep(exp.Default().WithRuntime(rt), specs, cfg.seed, tr)
	if err != nil {
		return it, err
	}
	_ = rt.Close()
	meter.stop(&it)
	finish(&it, rt, be)
	it.Digest, err = resultsDigest(results)
	if tr != nil {
		it.dirBytes = dirBytes(dir)
	}
	return it, err
}

func runSweep(o exp.Options, specs []exp.ScenarioSpec, seed int64, tr *tracer) (res []fl.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep failed: %v", r)
		}
	}()
	sp := tr.begin("exp.sweep")
	defer tr.end(sp)
	return exp.SweepScenarios(o, specs, sweepParams, seed), nil
}

// wallClockRows are the sec54 rows whose measured column is a
// wall-clock reading of this machine, not a simulated result: the
// controller-overhead timings and their share of round time.
var wallClockRows = map[string]bool{
	"identify per-device states":   true,
	"choose global parameters":     true,
	"calculate reward":             true,
	"update Q-tables":              true,
	"total controller overhead":    true,
	"overhead share of round time": true,
}

// maskTable blanks the wall-clock cells of a table (a copy; the input
// is not modified).
func maskTable(t exp.Table) exp.Table {
	if t.ID != "sec54" {
		return t
	}
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = row
		if len(row) > 1 && wallClockRows[row[0]] {
			rows[i] = append([]string(nil), row...)
			rows[i][1] = "(wall clock)"
		}
	}
	t.Rows = rows
	return t
}

// tablesDigest hashes the masked markdown of every table in order.
func tablesDigest(tables []exp.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(maskTable(t).Markdown()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultsDigest hashes sweep results with their one wall-clock field
// (the measured controller overhead) zeroed.
func resultsDigest(results []fl.Result) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range results {
		r.ControllerOverheadSec = 0
		if err := enc.Encode(r); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// probeBackend wraps the runtime's execution backend. It always counts
// cells whose Result.Err is set; given a tracer it also records a span
// per batch and per job body and keeps the batch's jobs and results as
// inputs for the layer probes. It forwards the optional interfaces
// exp.NewRuntimeWithBackend and Executor.Stats look for, so wrapping
// changes nothing about how the runtime drives its backend.
type probeBackend struct {
	inner  runtime.Backend
	tr     *tracer
	failed atomic.Int64
	// captured is appended only from the batch's calling goroutine.
	captured []captured
}

// captured is one dispatched job and its result.
type captured struct {
	job runtime.Job
	res runtime.Result
}

func newProbeBackend(inner runtime.Backend, tr *tracer) *probeBackend {
	return &probeBackend{inner: inner, tr: tr}
}

func (b *probeBackend) Workers() int { return b.inner.Workers() }

func (b *probeBackend) Run(jobs []runtime.Job, done func(int, runtime.Result)) []runtime.Result {
	if b.tr == nil {
		out := b.inner.Run(jobs, done)
		b.countFailed(out)
		return out
	}
	batch := b.tr.beginChild("runtime.batch", b.tr.currentExp())
	prev := b.tr.setBatch(batch.id)
	wrapped := make([]runtime.Job, len(jobs))
	for i, j := range jobs {
		if run := j.Run; run != nil {
			j.Run = func() runtime.Result {
				sp := b.tr.beginChild("runtime.job", batch.id)
				defer b.tr.end(sp)
				return run()
			}
		}
		wrapped[i] = j
	}
	out := b.inner.Run(wrapped, done)
	b.tr.setBatch(prev)
	b.tr.end(batch)
	b.countFailed(out)
	for i := range jobs {
		b.captured = append(b.captured, captured{job: jobs[i], res: out[i]})
	}
	return out
}

func (b *probeBackend) countFailed(out []runtime.Result) {
	for _, r := range out {
		if r.Err != "" {
			b.failed.Add(1)
		}
	}
}

func (b *probeBackend) SetCollector(c *telemetry.Collector) {
	if s, ok := b.inner.(interface{ SetCollector(*telemetry.Collector) }); ok {
		s.SetCollector(c)
	}
}

func (b *probeBackend) SetCache(c *runtime.Cache) {
	if s, ok := b.inner.(interface{ SetCache(*runtime.Cache) }); ok {
		s.SetCache(c)
	}
}

func (b *probeBackend) EndpointStats() []runtime.EndpointStats {
	if s, ok := b.inner.(runtime.EndpointStatser); ok {
		return s.EndpointStats()
	}
	return nil
}
