// Package telemetry is the run-metrics model shared by the whole
// stack: a serializable Metrics snapshot (per-phase timings, counters,
// per-endpoint dispatch counters and latency histograms) and a
// concurrency-safe Collector that accumulates one. The executor,
// cache, coordinator and simulator all record into collectors; worker
// processes carry their per-job snapshots back in the metrics field of
// each wire response, so a remote pool is exactly as observable as an
// in-process one.
//
// A run's collector is its only ledger: the executor's job counts
// (runtime.Executor.Stats) and the coordinator's endpoint counts
// (runtime.Coordinator.EndpointStats) are read back out of it, never
// kept beside it. Each fact is recorded once. The fleet-wide Retries,
// Failovers and SnapshotBytesShipped counters are derived: Snapshot
// sums them over the endpoints' Retried, Failed and SnapBytesSent.
//
// Telemetry is observational only: nothing recorded here may influence
// a simulation's outcome, a canonical cache key, or a cached entry's
// bytes. Every Collector method is nil-safe — a nil collector records
// nothing — so instrumented code paths never branch on whether
// observability is wired up.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names recorded by the instrumented layers. Phases are
// monotonic accumulators: seconds only ever grow within a process.
const (
	// PhasePretrain is controller construction, including the FedGPO
	// Q-table warm-up when the pretrained-controller cache misses
	// (near-zero on a snapshot hit).
	PhasePretrain = "pretrain"
	// PhaseRounds is full simulated-round execution (fl.Run's loop:
	// observe, plan, execute, learn, feed back). A run records it once,
	// timed around the whole loop, with Count the rounds it executed.
	PhaseRounds = "rounds"
	// PhaseMerge is the serial merge inside each round (straggler
	// semantics, energy accounting, aggregation). A run times it on one
	// round in 16 (rounds 1, 17, 33, ...) and records it once, scaled
	// to all its rounds, with Count the rounds it executed: Seconds is
	// an estimate, Count exact.
	PhaseMerge = "merge"
	// PhaseCacheRead / PhaseCacheWrite are run-cache I/O (lookup
	// including payload unmarshal; serialize + pack append).
	PhaseCacheRead  = "cacheRead"
	PhaseCacheWrite = "cacheWrite"
	// PhaseCacheDecode is the payload-unmarshal slice of a cache hit —
	// payload bytes into the caller's value — timed separately from the
	// envelope read so decode-bound warm paths are visible. It nests
	// inside PhaseCacheRead, so the two must not be summed.
	PhaseCacheDecode = "cacheDecode"
)

// Trace levels for the opt-in RL decision traces (the CLIs'
// -trace-level flag and JobSpec.Trace field).
const (
	// TraceNone disables decision tracing (the default).
	TraceNone = ""
	// TraceDecisions records per-round RL decisions: state, masked
	// action set, chosen action, reward and Q-delta (see core package).
	TraceDecisions = "decisions"
)

// Phase is one phase's accumulated wall time and entry count.
type Phase struct {
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Counters are the run-level event counters. The job-level pair
// (CacheHits, SimsExecuted) is counted by the executor, whose Stats
// reads it back: Stats.Hits is CacheHits and Stats.Runs is
// SimsExecuted. The cache-level trio (mem/disk hits, misses) counts
// individual cache reads — job results, pretrained snapshots and
// trace artifacts alike — so it may exceed the job-level hit count.
// Retries, Failovers and SnapshotBytesShipped are derived, not
// counted: Snapshot fills them with sums over Metrics.Endpoints (what
// a Count writes there is dropped), and Add does not merge them.
type Counters struct {
	// CacheHits counts jobs served from the run cache (job-level).
	CacheHits int64 `json:"cacheHits"`
	// CacheMemHits / CacheDiskHits split successful cache reads by
	// storage mode (cache-level; includes non-job artifacts).
	CacheMemHits  int64 `json:"cacheMemHits"`
	CacheDiskHits int64 `json:"cacheDiskHits"`
	// CachePayloadHits is written by nothing: every disk-mode hit reads
	// its record. It stays so existing readers keep compiling.
	//
	// Deprecated: always zero; the cache keeps no decoded payloads.
	CachePayloadHits int64 `json:"cachePayloadHits"`
	// CacheMisses counts clean cache misses: no entry exists under the
	// key in any format (cache-level).
	CacheMisses int64 `json:"cacheMisses"`
	// CacheCorrupt counts reads that found an entry but discarded it —
	// torn writes, foreign-key envelopes, undecodable payloads. Split
	// from CacheMisses so a directory quietly shedding entries is
	// distinguishable from one that never held them.
	CacheCorrupt int64 `json:"cacheCorrupt"`
	// CacheTouches counts mtime touches applied by hits (cache-level).
	CacheTouches int64 `json:"cacheTouches"`
	// SimsExecuted counts jobs whose body actually ran (job-level).
	SimsExecuted int64 `json:"simsExecuted"`
	// Evictions counts cache entries removed by Prune.
	Evictions int64 `json:"evictions"`
	// Retries counts worker sessions that failed and were retried on a
	// fresh session: the sum of the endpoints' Retried.
	Retries int64 `json:"retries"`
	// Failovers counts jobs a session gave up on (retry budget spent)
	// and handed back to the fleet for another endpoint to absorb: the
	// sum of the endpoints' Failed.
	Failovers int64 `json:"failovers"`
	// PretrainRuns counts FedGPO Q-table warm-ups that actually executed
	// anywhere in the fleet (each warm-up is counted once, by the worker
	// process that ran it, and carried home over the wire like every
	// other counter). The coordinator's dispatch queue sends a cell
	// reading a snapshot only where that snapshot is pooled or being
	// built, so a cold sweep over S scenarios performs exactly S of
	// them.
	PretrainRuns int64 `json:"pretrainRuns"`
	// AffinityHits, AffinityMisses and StolenJobs are written by
	// nothing; they stay so existing readers keep compiling.
	//
	// Deprecated: always zero; the coordinator keeps no placement
	// tallies.
	AffinityHits int64 `json:"affinityHits"`
	// Deprecated: always zero; see AffinityHits.
	AffinityMisses int64 `json:"affinityMisses"`
	// Deprecated: always zero; see AffinityHits.
	StolenJobs int64 `json:"stolenJobs"`
	// SnapshotBytesShipped counts serialized pretrain-snapshot bytes the
	// coordinator pre-pushed to workers inside wire requests: the sum of
	// the endpoints' SnapBytesSent.
	SnapshotBytesShipped int64 `json:"snapshotBytesShipped"`
}

// Histogram is a log-bucketed latency distribution. Bucket i counts
// observations in [histBase·2^i, histBase·2^(i+1)); the last bucket is
// open-ended. Count and SumSeconds make the mean recoverable exactly.
type Histogram struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sumSeconds"`
	Buckets    []int64 `json:"buckets,omitempty"`
}

// histBase is the lower edge of bucket 0 (1 µs), fine enough to
// resolve sub-millisecond dispatches; histBuckets spans 1 µs .. ~18 min
// (2^30 µs), wide enough for multi-minute simulation cells.
const (
	histBase    = time.Microsecond
	histBuckets = 30
)

// observe records one duration.
func (h *Histogram) observe(d time.Duration) {
	if len(h.Buckets) == 0 {
		h.Buckets = make([]int64, histBuckets)
	}
	i := 0
	for edge := histBase; d >= 2*edge && i < histBuckets-1; edge *= 2 {
		i++
	}
	if d < histBase {
		i = 0
	}
	h.Buckets[i]++
	h.Count++
	h.SumSeconds += d.Seconds()
}

// merge folds another histogram into h.
func (h *Histogram) merge(o Histogram) {
	h.Count += o.Count
	h.SumSeconds += o.SumSeconds
	if len(o.Buckets) == 0 {
		return
	}
	if len(h.Buckets) < len(o.Buckets) {
		b := make([]int64, len(o.Buckets))
		copy(b, h.Buckets)
		h.Buckets = b
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// MeanSeconds returns the mean observed latency (0 when empty).
func (h Histogram) MeanSeconds() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumSeconds / float64(h.Count)
}

// Endpoint is one worker endpoint's dispatch view: the coordinator's
// counters plus the request round-trip latency histogram (Send of the
// request to Recv of its response, so it includes the cell's execution
// time on the worker).
type Endpoint struct {
	// Endpoint is the transport's name ("tcp:host:port").
	Endpoint string `json:"endpoint"`
	// Dispatched counts requests sent to the endpoint, resends
	// included.
	Dispatched int64 `json:"dispatched"`
	// Retried counts session failures that were retried on a fresh
	// session (the failing session's unanswered job is resent; answered
	// jobs never are).
	Retried int64 `json:"retried"`
	// Failed counts jobs this endpoint gave up on after its retry
	// budget ran out — handed back to the fleet, and surfaced as error
	// results only when no endpoint could take them.
	Failed int64 `json:"failed"`
	// BytesSent / BytesRecv are raw wire bytes through the endpoint's
	// sessions, handshakes and framing included. Zero for sessions that
	// don't meter (scripted test conns).
	BytesSent int64 `json:"bytesSent,omitempty"`
	BytesRecv int64 `json:"bytesRecv,omitempty"`
	// Frames counts request frames; Specs counts the specs inside them.
	// Every request frame carries one spec, so the two are equal; both
	// stay for the benchmark's wire metrics.
	Frames int64 `json:"frames,omitempty"`
	Specs  int64 `json:"specs,omitempty"`
	// SnapBytesSent counts pretrain-snapshot bytes pre-pushed to this
	// endpoint.
	SnapBytesSent int64     `json:"snapBytesSent,omitempty"`
	Latency       Histogram `json:"latency"`
}

// Metrics is one serializable telemetry snapshot: what the CLIs write
// to -metrics-out and what a worker attaches to each wire response.
// All fields are plain data; a Metrics value never changes canonical
// keys or cached bytes (results exclude their telemetry from JSON).
type Metrics struct {
	Phases    map[string]Phase `json:"phases,omitempty"`
	Counters  Counters         `json:"counters"`
	Endpoints []Endpoint       `json:"endpoints,omitempty"`
}

// Summary renders a compact human-readable view: the -v output of
// fedgpo-report and fedgpo-sweep, one line per endpoint.
func (m Metrics) Summary() string {
	var b strings.Builder
	c := m.Counters
	fmt.Fprintf(&b, "telemetry: %d sims executed, %d cache hits (%d mem / %d disk reads, %d misses, %d corrupt), %d evictions, %d retries, %d failovers\n",
		c.SimsExecuted, c.CacheHits, c.CacheMemHits, c.CacheDiskHits,
		c.CacheMisses, c.CacheCorrupt, c.Evictions, c.Retries, c.Failovers)
	if c.CacheTouches > 0 {
		fmt.Fprintf(&b, "  cache touches: %d\n", c.CacheTouches)
	}
	if c.PretrainRuns+c.SnapshotBytesShipped > 0 {
		fmt.Fprintf(&b, "  scheduling: %d fleet pretrain runs, %d snapshot B shipped\n",
			c.PretrainRuns, c.SnapshotBytesShipped)
	}
	if len(m.Phases) > 0 {
		names := make([]string, 0, len(m.Phases))
		for n := range m.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  phases:")
		for _, n := range names {
			p := m.Phases[n]
			fmt.Fprintf(&b, " %s=%.3fs/%d", n, p.Seconds, p.Count)
		}
		b.WriteByte('\n')
	}
	for _, ep := range m.Endpoints {
		fmt.Fprintf(&b, "  endpoint %s: %d dispatched, %d retried, %d failed, mean dispatch latency %.1fms%s\n",
			ep.Endpoint, ep.Dispatched, ep.Retried, ep.Failed, 1000*ep.Latency.MeanSeconds(), ep.wireSummary())
	}
	return b.String()
}

// wireSummary renders the wire-level counters as a summary-line
// suffix, empty when the endpoint moved no frames (an in-process pool
// has no wire).
func (ep Endpoint) wireSummary() string {
	var s string
	if ep.Frames > 0 {
		s = fmt.Sprintf(", %d frames, %d B sent / %d B recv", ep.Frames, ep.BytesSent, ep.BytesRecv)
	}
	if ep.SnapBytesSent > 0 {
		s += fmt.Sprintf(", %d snap B pushed", ep.SnapBytesSent)
	}
	return s
}

// Collector accumulates a Metrics snapshot. It is safe for concurrent
// use, and every method is nil-safe: instrumented code records
// unconditionally and a nil collector drops everything.
type Collector struct {
	mu        sync.Mutex
	phases    map[string]Phase
	counters  Counters
	endpoints map[string]*Endpoint
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		phases:    make(map[string]Phase),
		endpoints: make(map[string]*Endpoint),
	}
}

// RecordPhase accumulates one timed entry into a named phase.
func (c *Collector) RecordPhase(name string, d time.Duration) { c.RecordPhaseN(name, d, 1) }

// RecordPhaseN accumulates n entries timed together as d into a named
// phase: a loop records its iterations once, not once each.
func (c *Collector) RecordPhaseN(name string, d time.Duration, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	p := c.phases[name]
	p.Seconds += d.Seconds()
	p.Count += int64(n)
	c.phases[name] = p
	c.mu.Unlock()
}

// Count mutates the counters under the collector's lock; fn must not
// block or call back into the collector.
func (c *Collector) Count(fn func(*Counters)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	fn(&c.counters)
	c.mu.Unlock()
}

// CountEndpoint mutates one endpoint's entry under the collector's
// lock, listing it (with zero counts) first if it is new; fn must not
// block or call back into the collector. A no-op fn just lists the
// endpoint.
func (c *Collector) CountEndpoint(endpoint string, fn func(*Endpoint)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	fn(c.endpoint(endpoint))
	c.mu.Unlock()
}

// RecordLatency observes one request round-trip on an endpoint's
// dispatch latency histogram.
func (c *Collector) RecordLatency(endpoint string, d time.Duration) {
	c.CountEndpoint(endpoint, func(ep *Endpoint) { ep.Latency.observe(d) })
}

// endpoint returns the named endpoint's entry, creating it; callers
// hold c.mu.
func (c *Collector) endpoint(name string) *Endpoint {
	ep, ok := c.endpoints[name]
	if !ok {
		ep = &Endpoint{Endpoint: name}
		c.endpoints[name] = ep
	}
	return ep
}

// Add merges a snapshot into the collector: phases and counters sum
// (the derived ones excepted, see Counters), endpoints merge by name. It is how a worker's per-job
// metrics (carried on the wire) fold into the coordinator's run view.
func (c *Collector) Add(m Metrics) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for name, p := range m.Phases {
		q := c.phases[name]
		q.Seconds += p.Seconds
		q.Count += p.Count
		c.phases[name] = q
	}
	cc := &c.counters
	mc := m.Counters
	cc.CacheHits += mc.CacheHits
	cc.CacheMemHits += mc.CacheMemHits
	cc.CacheDiskHits += mc.CacheDiskHits
	cc.CacheMisses += mc.CacheMisses
	cc.CacheCorrupt += mc.CacheCorrupt
	cc.CacheTouches += mc.CacheTouches
	cc.SimsExecuted += mc.SimsExecuted
	cc.Evictions += mc.Evictions
	cc.PretrainRuns += mc.PretrainRuns
	for _, mep := range m.Endpoints {
		ep := c.endpoint(mep.Endpoint)
		ep.Dispatched += mep.Dispatched
		ep.Retried += mep.Retried
		ep.Failed += mep.Failed
		ep.BytesSent += mep.BytesSent
		ep.BytesRecv += mep.BytesRecv
		ep.Frames += mep.Frames
		ep.Specs += mep.Specs
		ep.SnapBytesSent += mep.SnapBytesSent
		ep.Latency.merge(mep.Latency)
	}
	c.mu.Unlock()
}

// Snapshot returns a deep copy of the accumulated metrics, with
// endpoints in name order so the JSON encoding is deterministic, and
// the derived counters summed over them. A nil collector snapshots to
// the zero Metrics.
func (c *Collector) Snapshot() Metrics {
	if c == nil {
		return Metrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{Counters: c.counters}
	m.Counters.Retries, m.Counters.Failovers, m.Counters.SnapshotBytesShipped = 0, 0, 0
	if len(c.phases) > 0 {
		m.Phases = make(map[string]Phase, len(c.phases))
		for n, p := range c.phases {
			m.Phases[n] = p
		}
	}
	for _, ep := range c.endpoints {
		cp := *ep
		cp.Latency.Buckets = append([]int64(nil), ep.Latency.Buckets...)
		m.Endpoints = append(m.Endpoints, cp)
		m.Counters.Retries += ep.Retried
		m.Counters.Failovers += ep.Failed
		m.Counters.SnapshotBytesShipped += ep.SnapBytesSent
	}
	sort.Slice(m.Endpoints, func(i, j int) bool {
		return m.Endpoints[i].Endpoint < m.Endpoints[j].Endpoint
	})
	return m
}
