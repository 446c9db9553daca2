package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

// A nil collector must accept every call and snapshot to zero — the
// instrumented layers record unconditionally.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.RecordPhase(PhaseRounds, time.Second)
	c.Count(func(cc *Counters) { cc.SimsExecuted++ })
	c.RecordLatency("tcp:x", time.Millisecond)
	c.Add(Metrics{Counters: Counters{CacheHits: 3}})
	if m := c.Snapshot(); len(m.Phases) != 0 || len(m.Endpoints) != 0 || m.Counters != (Counters{}) {
		t.Fatalf("nil collector snapshot not empty: %+v", m)
	}
}

func TestCollectorAccumulatesAndMerges(t *testing.T) {
	c := NewCollector()
	c.RecordPhase(PhaseRounds, 2*time.Second)
	c.RecordPhase(PhaseRounds, time.Second)
	c.RecordPhase(PhaseMerge, 500*time.Millisecond)
	c.Count(func(cc *Counters) { cc.SimsExecuted += 2; cc.CacheHits++ })
	c.RecordLatency("tcp:b", 10*time.Millisecond)
	c.RecordLatency("tcp:a", 20*time.Millisecond)

	// Fold in a worker-side snapshot, as pump does with wire metrics.
	worker := NewCollector()
	worker.RecordPhase(PhaseRounds, time.Second)
	worker.Count(func(cc *Counters) { cc.CacheMisses++ })
	worker.RecordLatency("tcp:a", 40*time.Millisecond)
	c.Add(worker.Snapshot())

	m := c.Snapshot()
	if got := m.Phases[PhaseRounds]; got.Seconds != 4 || got.Count != 3 {
		t.Fatalf("rounds phase = %+v, want 4s over 3 entries", got)
	}
	if m.Counters.SimsExecuted != 2 || m.Counters.CacheHits != 1 || m.Counters.CacheMisses != 1 {
		t.Fatalf("counters = %+v", m.Counters)
	}
	if len(m.Endpoints) != 2 || m.Endpoints[0].Endpoint != "tcp:a" || m.Endpoints[1].Endpoint != "tcp:b" {
		t.Fatalf("endpoints not sorted by name: %+v", m.Endpoints)
	}
	a := m.Endpoints[0].Latency
	if a.Count != 2 || a.MeanSeconds() != 0.03 {
		t.Fatalf("tcp:a latency = %+v (mean %v)", a, a.MeanSeconds())
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	c := NewCollector()
	c.RecordLatency("ep", time.Millisecond)
	m := c.Snapshot()
	m.Endpoints[0].Latency.Buckets[0] = 99
	if got := c.Snapshot().Endpoints[0].Latency.Buckets[0]; got != 1 {
		t.Fatalf("snapshot aliases collector state: bucket = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.observe(time.Microsecond)     // below base -> bucket 0
	h.observe(time.Millisecond)     // [1ms,2ms) -> bucket 0
	h.observe(3 * time.Millisecond) // [2ms,4ms) -> bucket 1
	h.observe(1000 * time.Hour)     // beyond range -> last bucket
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[histBuckets-1] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	if h.Count != 4 {
		t.Fatalf("count = %d", h.Count)
	}
}

func TestSetEndpointCounts(t *testing.T) {
	var m Metrics
	m.SetEndpointCounts("tcp:b", EndpointCounts{Dispatched: 5, Retried: 1})
	m.SetEndpointCounts("tcp:a", EndpointCounts{Dispatched: 3, Failed: 1})
	// Overwrite, not append; wire counters land too.
	m.SetEndpointCounts("tcp:b", EndpointCounts{Dispatched: 6, Retried: 1, BytesSent: 100, BytesRecv: 200, Frames: 2, Specs: 6})
	if len(m.Endpoints) != 2 || m.Endpoints[0].Endpoint != "tcp:a" || m.Endpoints[1].Dispatched != 6 {
		t.Fatalf("endpoints = %+v", m.Endpoints)
	}
	if ep := m.Endpoints[1]; ep.BytesSent != 100 || ep.BytesRecv != 200 || ep.Frames != 2 || ep.Specs != 6 {
		t.Fatalf("wire counters lost: %+v", ep)
	}
}

// The JSON encoding of a snapshot must be deterministic (sorted
// endpoints, stable struct fields) — it lands in -metrics-out files
// that CI diffs and asserts on with jq.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		c := NewCollector()
		c.RecordLatency("tcp:z", time.Millisecond)
		c.RecordLatency("tcp:a", time.Millisecond)
		c.RecordPhase(PhasePretrain, time.Second)
		b, err := json.Marshal(c.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := build(), build(); string(a) != string(b) {
		t.Fatalf("snapshot JSON unstable:\n%s\n%s", a, b)
	}
}
