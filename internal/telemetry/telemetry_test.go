package telemetry

import (
	"encoding/json"
	"strings"
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
	c.RecordPhaseN(PhaseMerge, time.Second, 16)
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
	if got := m.Phases[PhaseMerge]; got.Seconds != 1.5 || got.Count != 17 {
		t.Fatalf("merge phase = %+v, want 1.5s over 17 entries", got)
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
	c.RecordLatency("ep", time.Microsecond) // bucket 0
	m := c.Snapshot()
	m.Endpoints[0].Latency.Buckets[0] = 99
	if got := c.Snapshot().Endpoints[0].Latency.Buckets[0]; got != 1 {
		t.Fatalf("snapshot aliases collector state: bucket = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.observe(time.Nanosecond)      // below base -> bucket 0
	h.observe(time.Microsecond)     // [1µs,2µs) -> bucket 0
	h.observe(3 * time.Microsecond) // [2µs,4µs) -> bucket 1
	h.observe(time.Millisecond)     // [512µs,1024µs) -> bucket 9
	h.observe(10 * time.Minute)     // [2^29µs,2^30µs) -> bucket 29, the last
	h.observe(1000 * time.Hour)     // beyond range -> last bucket
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[9] != 1 || h.Buckets[histBuckets-1] != 2 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	if h.Count != 6 {
		t.Fatalf("count = %d", h.Count)
	}
	// The last bucket opens below ten minutes, so multi-minute cells
	// keep distinct buckets up to there.
	if top := histBase << (histBuckets - 1); top < 5*time.Minute || top > 10*time.Minute {
		t.Fatalf("last bucket opens at %v", top)
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

// Retries, Failovers and SnapshotBytesShipped are read off the
// endpoints, never stored: a merged snapshot's copies of them are
// dropped, and the endpoints' counts are what Snapshot reports.
func TestDerivedCountersSumEndpoints(t *testing.T) {
	c := NewCollector()
	c.CountEndpoint("tcp:a", func(ep *Endpoint) { ep.Retried, ep.Failed, ep.SnapBytesSent = 1, 1, 100 })
	c.CountEndpoint("tcp:b", func(ep *Endpoint) { ep.Retried, ep.SnapBytesSent = 2, 50 })
	c.CountEndpoint("tcp:idle", func(*Endpoint) {})
	c.Add(Metrics{Counters: Counters{Retries: 7, Failovers: 7, SnapshotBytesShipped: 7}})
	m := c.Snapshot()
	if got := m.Counters; got.Retries != 3 || got.Failovers != 1 || got.SnapshotBytesShipped != 150 {
		t.Errorf("derived counters = %d retries, %d failovers, %d snapshot B; want 3, 1, 150",
			got.Retries, got.Failovers, got.SnapshotBytesShipped)
	}
	if len(m.Endpoints) != 3 || m.Endpoints[2].Endpoint != "tcp:idle" || m.Endpoints[2].Dispatched != 0 {
		t.Errorf("a no-op CountEndpoint must list the endpoint with zero counts: %+v", m.Endpoints)
	}
}

// An endpoint's summary line shows the frames and bytes columns only
// when frames moved (an in-process pool has no wire), and the snapshot
// column only when snapshot bytes were pushed.
func TestSummaryEndpointColumns(t *testing.T) {
	line := func(ep Endpoint) string {
		for _, l := range strings.Split(Metrics{Endpoints: []Endpoint{ep}}.Summary(), "\n") {
			if strings.HasPrefix(l, "  endpoint ") {
				return l
			}
		}
		t.Fatalf("no endpoint line for %+v", ep)
		return ""
	}
	ep := Endpoint{Endpoint: "tcp:10.0.0.5:9331", Dispatched: 12, Retried: 1}
	if l := line(ep); strings.Contains(l, "frames") || strings.Contains(l, "pushed") {
		t.Errorf("idle wire or snapshot column leaked into %q", l)
	}
	ep.SnapBytesSent = 4096
	if l := line(ep); !strings.HasSuffix(l, "ms, 4096 snap B pushed") {
		t.Errorf("endpoint line = %q, want only the snapshot column after the latency", l)
	}
	ep.Frames, ep.Specs, ep.BytesSent, ep.BytesRecv = 12, 12, 900, 4000
	if l, want := line(ep), ", 12 frames, 900 B sent / 4000 B recv, 4096 snap B pushed"; !strings.HasSuffix(l, want) {
		t.Errorf("endpoint line = %q, want suffix %q", l, want)
	}
}
