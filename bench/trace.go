package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedgpo/internal/exp"
	"fedgpo/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the trace started;
// Parent is the span that caused this one (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced iterations pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	exp   atomic.Int64 // the experiment span batches belong to
	batch atomic.Int64 // the batch span job bodies belong to
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	id, parent int64
	name       string
	start      time.Time
}

// begin opens an experiment-level span; batches dispatched until the
// next begin are its children.
func (t *tracer) begin(name string) *openSpan {
	if t == nil {
		return nil
	}
	sp := t.beginChild(name, 0)
	t.exp.Store(sp.id)
	return sp
}

// beginChild opens a span caused by parent.
func (t *tracer) beginChild(name string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes a span and records it.
func (t *tracer) end(sp *openSpan) {
	if t == nil || sp == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: sp.id, Parent: sp.parent, Name: sp.name,
		Start: int64(sp.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

func (t *tracer) currentExp() int64 {
	if t == nil {
		return 0
	}
	return t.exp.Load()
}

func (t *tracer) currentBatch() int64 {
	if t == nil {
		return 0
	}
	return t.batch.Load()
}

// setBatch marks id as the running batch and returns the previous one.
func (t *tracer) setBatch(id int64) int64 { return t.batch.Swap(id) }

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// goSampler watches the Go runtime during the traced iteration: GC
// cycles and pause time, and the peak of the live-object heap sampled
// every few milliseconds.
type goSampler struct {
	stop     chan struct{}
	done     chan struct{}
	peak     uint64
	gc0      uint32
	pause0   uint64
	gcCycles uint32
	pauseNS  uint64
}

func startGoSampler() *goSampler {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	s := &goSampler{stop: make(chan struct{}), done: make(chan struct{}), gc0: ms.NumGC, pause0: ms.PauseTotalNs}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.peak {
				s.peak = v.Uint64()
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it to exit.
func (s *goSampler) finish() {
	close(s.stop)
	<-s.done
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	s.gcCycles = ms.NumGC - s.gc0
	s.pauseNS = ms.PauseTotalNs - s.pause0
}

// maxRSS is the process's peak resident set size in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// layerMetrics derives the per-layer numbers of a traced iteration
// from its spans, its runtime telemetry and the probes. layers holds
// the metrics of layerDefs except trace.overhead; extra holds the
// times of layers only some workloads call, and only when this
// workload called them (a measured zero would read as a result).
func layerMetrics(it iteration, spans []span, pr probeResults, gs *goSampler) (layers, extra map[string]float64) {
	layers = map[string]float64{}
	extra = map[string]float64{}
	wall := it.wall.Seconds()

	// internal/exp: one span per experiment (or the sweep call).
	var expSum float64
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "exp.") {
			extra[sp.Name+".s"] += sp.seconds()
			expSum += sp.seconds()
		}
	}
	layers["exp.residual.s"] = wall - expSum

	// internal/runtime executor: the backend wrapper's batch and job spans.
	batches := map[int64]span{}
	for _, sp := range spans {
		if sp.Name == "runtime.batch" {
			batches[sp.ID] = sp
		}
	}
	var jobDur []float64
	var busy, wait, batchTotal float64
	byBatch := map[int64][]span{}
	for _, sp := range spans {
		if sp.Name != "runtime.job" {
			continue
		}
		jobDur = append(jobDur, float64(sp.End-sp.Start)/1e3)
		busy += sp.seconds()
		if b, ok := batches[sp.Parent]; ok {
			wait += float64(sp.Start-b.Start) / 1e9
		}
		byBatch[sp.Parent] = append(byBatch[sp.Parent], sp)
	}
	var tail float64
	for id, b := range batches {
		batchTotal += b.seconds()
		tail += batchTail(b, byBatch[id], it.workers)
	}
	layers["runtime.batches"] = float64(len(batches))
	layers["runtime.jobs"] = float64(len(it.captured))
	layers["runtime.utilization"] = 0
	if batchTotal > 0 && it.workers > 0 {
		layers["runtime.utilization"] = busy / (float64(it.workers) * batchTotal)
	}
	if len(jobDur) > 0 {
		extra["runtime.job_busy.s"] = busy
		extra["runtime.job.p50_us"] = percentile(jobDur, 0.5)
		extra["runtime.job.p99_us"] = percentile(jobDur, 0.99)
		extra["runtime.job_wait.s"] = wait
		extra["runtime.batch_tail.s"] = tail
	}

	// internal/runtime cache: the runtime's own telemetry plus probes.
	m := it.metrics
	c := m.Counters
	layers["cache.read.s"] = m.Phases[telemetry.PhaseCacheRead].Seconds
	if p, ok := m.Phases[telemetry.PhaseCacheDecode]; ok {
		extra["cache.decode.s"] = p.Seconds
	}
	if p, ok := m.Phases[telemetry.PhaseCacheWrite]; ok {
		extra["cache.write.s"] = p.Seconds
	}
	layers["cache.mem_hits"] = float64(c.CacheMemHits)
	layers["cache.disk_hits"] = float64(c.CacheDiskHits)
	layers["cache.payload_hits"] = float64(c.CachePayloadHits)
	layers["cache.misses"] = float64(c.CacheMisses)
	layers["cache.corrupt"] = float64(c.CacheCorrupt)
	layers["cache.touches"] = float64(c.CacheTouches)
	hits := c.CacheMemHits + c.CacheDiskHits + c.CachePayloadHits
	layers["cache.hit_ratio"] = ratio(float64(hits), float64(hits+c.CacheMisses+c.CacheCorrupt))
	layers["cache.dir_bytes"] = float64(it.dirBytes)
	layers["cache.put.us"] = pr.cachePutUS
	layers["cache.get_disk.us"] = pr.cacheGetDiskUS
	layers["cache.get_payload.us"] = pr.cacheGetPayloadUS

	// internal/runtime coordinator and wire: endpoint stats and the
	// spans around the endpoints' request handler.
	var sent, recv, frames, specs, latency float64
	for _, ep := range m.Endpoints {
		sent += float64(ep.BytesSent)
		recv += float64(ep.BytesRecv)
		frames += float64(ep.Frames)
		specs += float64(ep.Specs)
		latency += ep.Latency.SumSeconds
	}
	var workerBusy float64
	for _, sp := range spans {
		if sp.Name == "fleet.worker" {
			workerBusy += sp.seconds()
		}
	}
	layers["wire.bytes_per_cell"] = ratio(sent+recv, specs)
	layers["wire.frames"] = frames
	layers["wire.specs_per_frame"] = ratio(specs, frames)
	layers["wire.snapshot_bytes"] = float64(c.SnapshotBytesShipped)
	layers["fleet.affinity_hit_rate"] = ratio(float64(c.AffinityHits), float64(c.AffinityHits+c.AffinityMisses))
	layers["fleet.stolen"] = float64(c.StolenJobs)
	layers["fleet.retries"] = float64(c.Retries)
	layers["fleet.failovers"] = float64(c.Failovers)
	layers["fleet.pretrain_runs"] = 0
	layers["fleet.worker_idle_share"] = 0
	if len(it.endpoints) > 0 {
		layers["fleet.pretrain_runs"] = float64(c.PretrainRuns)
		layers["fleet.worker_idle_share"] = 1 - workerBusy/(float64(len(it.endpoints))*wall)
		extra["fleet.worker_busy.s"] = workerBusy
		extra["fleet.queue_wire.s"] = latency - workerBusy
	}
	layers["wire.write.us_per_kb"] = pr.wireWriteUSPerKB
	layers["wire.read.us_per_kb"] = pr.wireReadUSPerKB

	// internal/fl: kernel probes plus the simulator's own phase clocks.
	rounds := m.Phases[telemetry.PhaseRounds]
	layers["fl.ideal.round.ns"] = pr.idealRoundNS
	layers["fl.realistic.round.ns"] = pr.realisticRoundNS
	layers["fl.round.allocs"] = pr.roundAllocs
	layers["fl.round_alpha.ns"] = pr.roundAlphaNS
	layers["fl.round_beta.ns_per_participant"] = pr.roundBetaPerParticipant
	layers["fl.round_beta.ns_per_device"] = pr.roundBetaPerDevice
	layers["fl.rounds"] = float64(rounds.Count)
	if rounds.Count > 0 {
		extra["fl.rounds.s"] = rounds.Seconds
		extra["fl.merge.s"] = m.Phases[telemetry.PhaseMerge].Seconds
	}

	// internal/core + internal/rl: controller probes plus the run's
	// pretrain accounting.
	layers["core.plan.us"] = pr.corePlanUS
	layers["core.observe.us"] = pr.coreObserveUS
	layers["core.share"] = pr.coreShare
	layers["core.round.allocs"] = pr.coreRoundAllocs
	layers["core.round.bytes"] = pr.coreRoundBytes
	layers["core.identify.us"] = pr.coreIdentifyUS
	layers["core.choose.us"] = pr.coreChooseUS
	layers["core.reward.us"] = pr.coreRewardUS
	layers["core.update.us"] = pr.coreUpdateUS
	layers["core.pretrain.s"] = pr.corePretrainS
	layers["core.qtable_bytes"] = pr.coreQTableBytes
	layers["core.warm.plan.us"] = pr.coreWarmPlanUS
	layers["core.warm.observe.us"] = pr.coreWarmObserveUS
	layers["core.pretrain_runs"] = float64(it.PretrainRuns)
	if p, ok := m.Phases[telemetry.PhasePretrain]; ok && it.Sims > 0 {
		extra["core.pretrain_phase.s"] = p.Seconds
	}

	// Baseline controllers.
	for _, name := range ctrlNames {
		layers["ctrl."+name+".us_per_round"] = pr.ctrlUSPerRound[name]
	}

	// Go runtime and tracing.
	layers["go.gc_cycles"] = float64(gs.gcCycles)
	layers["go.gc_pause.ms"] = float64(gs.pauseNS) / 1e6
	layers["go.max_rss_mb"] = maxRSS() / 1e6
	layers["go.peak_heap_mb"] = float64(gs.peak) / 1e6
	// trace.overhead needs the untraced median, which only the parent
	// run knows; it fills the metric in.
	return layers, extra
}

// batchTail is the time within a batch during which fewer than workers
// job bodies were running: the batch's ramp-up and its straggler tail.
func batchTail(b span, jobs []span, workers int) float64 {
	type event struct {
		at    int64
		delta int
	}
	events := make([]event, 0, 2*len(jobs))
	for _, j := range jobs {
		events = append(events, event{j.Start, 1}, event{j.End, -1})
	}
	sort.Slice(events, func(i, k int) bool {
		if events[i].at != events[k].at {
			return events[i].at < events[k].at
		}
		return events[i].delta < events[k].delta
	})
	var tail int64
	active, last := 0, b.Start
	for _, e := range events {
		if active < workers {
			tail += e.at - last
		}
		active += e.delta
		last = e.at
	}
	if active < workers {
		tail += b.End - last
	}
	return float64(tail) / 1e9
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// attribution checks that the per-layer numbers of a traced iteration
// add up against its wall time; each violation is one message.
func attribution(it iteration, layers, extra map[string]float64) []string {
	wall := it.wall.Seconds()
	const eps = 1e-6
	var bad []string
	var expSum float64
	for name, v := range extra {
		if strings.HasPrefix(name, "exp.") {
			expSum += v
		}
	}
	if got := expSum + layers["exp.residual.s"]; math.Abs(got-wall) > eps || layers["exp.residual.s"] < -eps {
		bad = append(bad, fmt.Sprintf("experiment spans %.6fs + residual %.6fs != wall %.6fs", expSum, layers["exp.residual.s"], wall))
	}
	busy := extra["runtime.job_busy.s"]
	if io := busy + layers["cache.read.s"] + extra["cache.write.s"]; io > float64(it.workers)*wall+eps {
		bad = append(bad, fmt.Sprintf("job busy + cache read + cache write = %.3fs exceeds %d workers x wall %.3fs", io, it.workers, wall))
	}
	if r := extra["fl.rounds.s"]; r > busy+extra["fleet.worker_busy.s"]+eps {
		bad = append(bad, fmt.Sprintf("simulated rounds %.3fs exceed job bodies %.3fs", r, busy+extra["fleet.worker_busy.s"]))
	}
	if wb := extra["fleet.worker_busy.s"]; wb > fleetEndpoints*wall+eps {
		bad = append(bad, fmt.Sprintf("endpoint busy %.3fs exceeds %d x wall %.3fs", wb, fleetEndpoints, wall))
	}
	return bad
}

// layerDefs lists the per-layer metrics every workload reports, in
// the order BENCHMARK.json lists them.
var layerDefs = func() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		d("exp.residual.s", "s", "lower"),
		d("runtime.batches", "count", "lower"),
		d("runtime.jobs", "count", "lower"),
		d("runtime.utilization", "ratio", "higher"),
		d("cache.read.s", "s", "lower"),
		d("cache.mem_hits", "count", "higher"),
		d("cache.disk_hits", "count", "higher"),
		d("cache.payload_hits", "count", "higher"),
		d("cache.misses", "count", "lower"),
		d("cache.corrupt", "count", "lower"),
		d("cache.touches", "count", "lower"),
		d("cache.hit_ratio", "ratio", "higher"),
		d("cache.dir_bytes", "bytes", "lower"),
		d("cache.put.us", "us", "lower"),
		d("cache.get_disk.us", "us", "lower"),
		d("cache.get_payload.us", "us", "lower"),
		d("wire.bytes_per_cell", "bytes/cell", "lower"),
		d("wire.frames", "count", "lower"),
		d("wire.specs_per_frame", "specs/frame", "higher"),
		d("wire.snapshot_bytes", "bytes", "lower"),
		d("fleet.affinity_hit_rate", "ratio", "higher"),
		d("fleet.stolen", "count", "lower"),
		d("fleet.retries", "count", "lower"),
		d("fleet.failovers", "count", "lower"),
		d("fleet.pretrain_runs", "count", "lower"),
		d("fleet.worker_idle_share", "ratio", "lower"),
		d("wire.write.us_per_kb", "us/KB", "lower"),
		d("wire.read.us_per_kb", "us/KB", "lower"),
		d("fl.ideal.round.ns", "ns", "lower"),
		d("fl.realistic.round.ns", "ns", "lower"),
		d("fl.round.allocs", "allocs/round", "lower"),
		d("fl.round_alpha.ns", "ns", "lower"),
		d("fl.round_beta.ns_per_participant", "ns/participant", "lower"),
		d("fl.round_beta.ns_per_device", "ns/device", "lower"),
		d("fl.rounds", "count", "lower"),
		d("core.plan.us", "us", "lower"),
		d("core.observe.us", "us", "lower"),
		d("core.share", "ratio", "lower"),
		d("core.round.allocs", "allocs/round", "lower"),
		d("core.round.bytes", "bytes/round", "lower"),
		d("core.identify.us", "us", "lower"),
		d("core.choose.us", "us", "lower"),
		d("core.reward.us", "us", "lower"),
		d("core.update.us", "us", "lower"),
		d("core.pretrain.s", "s", "lower"),
		d("core.qtable_bytes", "bytes", "lower"),
		d("core.pretrain_runs", "count", "lower"),
		d("core.warm.plan.us", "us", "lower"),
		d("core.warm.observe.us", "us", "lower"),
	}
	for _, n := range ctrlNames {
		defs = append(defs, d("ctrl."+n+".us_per_round", "us/round", "lower"))
	}
	return append(defs,
		d("go.gc_cycles", "count", "lower"),
		d("go.gc_pause.ms", "ms", "lower"),
		d("go.max_rss_mb", "MB", "lower"),
		d("go.peak_heap_mb", "MB", "lower"),
		d("trace.overhead", "ratio", "lower"))
}()

// extraLayerDefs lists the per-layer metrics only some workloads
// measure, because their layer is idle on the others. They are not in
// BENCHMARK.json: a time that is structurally zero on a workload would
// read the same on every run.
func extraLayerDefs() []metricDef {
	d := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	var defs []metricDef
	for _, e := range exp.Registry() {
		defs = append(defs, d("exp."+e.ID+".s", "s"))
	}
	return append(defs, d("exp.sweep.s", "s"),
		d("runtime.job_busy.s", "s"), d("runtime.job.p50_us", "us"), d("runtime.job.p99_us", "us"),
		d("runtime.job_wait.s", "s"), d("runtime.batch_tail.s", "s"),
		d("cache.decode.s", "s"), d("cache.write.s", "s"),
		d("fleet.worker_busy.s", "s"), d("fleet.queue_wire.s", "s"),
		d("fl.rounds.s", "s"), d("fl.merge.s", "s"), d("core.pretrain_phase.s", "s"))
}
