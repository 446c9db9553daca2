package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
)

// affJob builds a spec-carrying stub job tagged with a scheduling
// affinity key.
func affJob(i int, affinity string) Job {
	j := stubJob(i, stubSpec{Value: float64(i)})
	j.Affinity = affinity
	return j
}

// assignGroups is the placement kernel: capacity-weighted relative
// load, lowest-index tiebreak, deterministic in its inputs.
func TestAssignGroupsCapacityWeighted(t *testing.T) {
	// Ten unit groups over capacities 4:1 split exactly 8:2.
	unit := make([]int, 10)
	for i := range unit {
		unit[i] = 1
	}
	counts := [2]int{}
	for _, home := range assignGroups(unit, []int{4, 1}) {
		counts[home]++
	}
	if counts[0] != 8 || counts[1] != 2 {
		t.Errorf("unit groups split %v over caps [4,1], want [8 2]", counts)
	}

	// LPT greedy over equal capacities: largest first, ties to the
	// lowest index.
	homes := assignGroups([]int{5, 3, 2, 2}, []int{2, 2})
	if want := []int{0, 1, 1, 0}; !reflect.DeepEqual(homes, want) {
		t.Errorf("homes = %v, want %v", homes, want)
	}

	// Degenerate capacities clamp to 1 instead of dividing by zero, and
	// an empty fleet places everything on endpoint 0.
	homes = assignGroups([]int{1, 1}, []int{0, -3})
	if !reflect.DeepEqual(homes, []int{0, 1}) {
		t.Errorf("clamped-capacity homes = %v, want [0 1]", homes)
	}
	if homes = assignGroups([]int{1}, nil); homes[0] != 0 {
		t.Errorf("no-fleet home = %v, want 0", homes[0])
	}
}

// A capacity-4 endpoint must absorb ~4x the cells of a capacity-1
// sibling under affinity routing: once the hellos have advertised the
// capacities, placement is capacity-weighted up front, and work
// stealing only rebalances what the weighting got wrong. Responders
// sleep so throughput, not scheduling latency, decides the split.
func TestAffinityCapacityWeightedDispatch(t *testing.T) {
	respond := func(_ int, req WireRequest) (WireResponse, error) {
		time.Sleep(2 * time.Millisecond)
		return okResponse(req)
	}
	big := newFakeTransport("fake:big", 4, respond)
	small := newFakeTransport("fake:small", 1, respond)
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = affJob(i, fmt.Sprintf("group-%02d", i))
	}
	c := NewCoordinator(ProcConfig{}, big, small)
	// A first batch probes both endpoints, so the second is placed by
	// the advertised capacities.
	c.Run(specJobs(1), nil)
	before := c.EndpointStats()
	for i, r := range c.Run(jobs, nil) {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
	}
	// EndpointStats sorts by name: "fake:big" first.
	st := c.EndpointStats()
	for i := range st {
		st[i].Dispatched -= before[i].Dispatched
		st[i].AffinityHits -= before[i].AffinityHits
		st[i].AffinityMisses -= before[i].AffinityMisses
	}
	bigN, smallN := st[0].Dispatched, st[1].Dispatched
	if bigN+smallN != int64(len(jobs)) {
		t.Fatalf("dispatched %d+%d, want %d total", bigN, smallN, len(jobs))
	}
	// The static assignment is 16:4; stealing under timing jitter may
	// shift a couple of groups, never the shape.
	if bigN < 12 {
		t.Errorf("capacity-4 endpoint ran %d of %d cells, want >= 12 (~4x its capacity-1 sibling's %d)",
			bigN, len(jobs), smallN)
	}
	if hits, misses := st[0].AffinityHits+st[1].AffinityHits, st[0].AffinityMisses+st[1].AffinityMisses; hits+misses != int64(len(jobs)) {
		t.Errorf("affinity tallies %d hits + %d misses, want %d placements", hits, misses, len(jobs))
	}
}

// Cells sharing a pretrain key must run in one worker process: without
// a shippable snapshot, a touched group is never split — whole-group
// adoption is the only migration, and it keeps the group co-located.
func TestAffinityCoLocatesGroups(t *testing.T) {
	var mu sync.Mutex
	ranOn := make(map[string]map[string]bool) // affinity key -> endpoints
	byJobKey := make(map[string]string)       // job key -> affinity key
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = affJob(i, fmt.Sprintf("pretrain-%d", i/4))
		byJobKey[jobs[i].Key()] = jobs[i].Affinity
	}
	respond := func(name string) func(int, WireRequest) (WireResponse, error) {
		return func(_ int, req WireRequest) (WireResponse, error) {
			mu.Lock()
			a := byJobKey[req.Key]
			if ranOn[a] == nil {
				ranOn[a] = make(map[string]bool)
			}
			ranOn[a][name] = true
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return okResponse(req)
		}
	}
	c := NewCoordinator(ProcConfig{},
		newFakeTransport("fake:a", 2, respond("a")),
		newFakeTransport("fake:b", 2, respond("b")))
	for i, r := range c.Run(jobs, nil) {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
	}
	for a, eps := range ranOn {
		if len(eps) != 1 {
			t.Errorf("group %s ran on %d endpoints (%v), want co-location on exactly 1", a, len(eps), eps)
		}
	}
	var misses int64
	for _, ep := range c.EndpointStats() {
		misses += ep.AffinityMisses
	}
	if misses != 0 {
		t.Errorf("%d affinity misses; with no shippable snapshots every cell must run at its group's home", misses)
	}
}

// An idle endpoint must steal a straggler's untouched groups — whole,
// so no warm-up is split — and no job may execute twice in the
// process. The schedule is pinned by handshake rather than sleeps so
// it holds under race-detector load: the straggler blocks inside the
// first cell of its first frame (its group is now touched) while the
// fast endpoint — which may not finish anything before the straggler
// has started — drains its own two groups, adopts the one untouched
// group, and only then releases the straggler to finish its touched
// group.
func TestAffinityStragglerGroupsStolenWithoutDoubleExecution(t *testing.T) {
	// Each group exactly fills one request frame (the batch's fair share
	// exceeds the frame cap), so the straggler's first frame holds its
	// first group and nothing of its second.
	const group = maxSpecsPerFrame
	slowStarted := make(chan struct{})
	release := make(chan struct{})
	var fastRan, slowRan int64
	fast := newFakeTransport("fake:fast", 1, func(_ int, req WireRequest) (WireResponse, error) {
		<-slowStarted
		if atomic.AddInt64(&fastRan, 1) == 3*group {
			close(release)
		}
		return okResponse(req)
	})
	slow := newFakeTransport("fake:slow", 1, func(_ int, req WireRequest) (WireResponse, error) {
		if atomic.AddInt64(&slowRan, 1) == 1 {
			close(slowStarted)
			<-release
		}
		return okResponse(req)
	})
	// Four groups over caps [1,1] place g0,g2 on fast and g1,g3 on
	// slow; fast drains its two groups, then adopts the untouched
	// slow-homed group while slow is still inside its first frame. The
	// rest of slow's touched group is in that frame, so fast cannot split
	// that warm-up and the final dispatch split is exactly 3:1 groups.
	jobs := make([]Job, 4*group)
	for i := range jobs {
		jobs[i] = affJob(i, fmt.Sprintf("g%d", i/group))
	}
	c := NewCoordinator(ProcConfig{}, fast, slow)
	for i, r := range c.Run(jobs, nil) {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
	}
	for i := range jobs {
		total := fast.sendCount(jobs[i].Key()) + slow.sendCount(jobs[i].Key())
		if total != 1 {
			t.Errorf("job %d executed %d times, want exactly once", i, total)
		}
	}
	// EndpointStats sorts by name: "fake:fast" first, "fake:slow" second.
	st := c.EndpointStats()
	if st[0].Stolen != group {
		t.Errorf("fast endpoint stole %d jobs, want the straggler's untouched %d-job group", st[0].Stolen, group)
	}
	if st[0].Dispatched != 3*group || st[1].Dispatched != group {
		t.Errorf("dispatch split %d/%d, want %d/%d (fast absorbed the untouched group)", st[0].Dispatched, st[1].Dispatched, 3*group, group)
	}
}

// Singles may only be stolen out of a touched group once the
// coordinator holds the group's snapshot: the thief's request ships
// it, so the stolen cell deserializes instead of re-warming. Until
// then the would-be thief blocks; a snapshot arrival (wake) releases
// it.
func TestAffinityQueueSnapshotGatesSingleSteal(t *testing.T) {
	var mu sync.Mutex
	haveSnap := false
	hasSnap := func(string) bool {
		mu.Lock()
		defer mu.Unlock()
		return haveSnap
	}
	jobs := []Job{affJob(0, "k"), affJob(1, "k"), affJob(2, "k")}
	q := newAffinityQueue(jobs, []int{0, 1, 2}, []int{1, 1}, hasSnap)

	if i, ok := q.pop(0); !ok || jobs[i].Affinity != "k" {
		t.Fatalf("home pop = (%d, %v), want a group job", i, ok)
	}
	got := make(chan int, 1)
	go func() {
		i, ok := q.pop(1)
		if !ok {
			i = -1
		}
		got <- i
	}()
	select {
	case i := <-got:
		t.Fatalf("endpoint 1 stole job %d from a touched group with no shippable snapshot", i)
	case <-time.After(30 * time.Millisecond):
	}
	mu.Lock()
	haveSnap = true
	mu.Unlock()
	q.wake()
	select {
	case i := <-got:
		if i < 0 {
			t.Fatal("pop returned done with jobs still queued")
		}
	case <-time.After(time.Second):
		t.Fatal("snapshot arrival did not release the blocked steal")
	}
	qs := q.stats(1)
	if qs.stolen != 1 || qs.affinityMisses != 1 {
		t.Errorf("thief tally = %+v, want 1 stolen / 1 miss", qs)
	}
}

// snapSpec is the snapshot-shipping TCP tests' job description.
type snapSpec struct {
	Value float64 `json:"value"`
	// Snap, when set, makes the worker return a freshly built snapshot
	// artifact under that key with its response.
	Snap string `json:"snap,omitempty"`
}

// snapJob builds a spec job whose worker-side execution may return a
// snapshot artifact (snap != "").
func snapJob(i int, affinity, snap string) Job {
	payload, _ := json.Marshal(snapSpec{Value: float64(i), Snap: snap})
	return Job{
		Kind:     "sim",
		Scenario: fmt.Sprintf("snap-%d", i),
		Seed:     int64(i),
		Payload:  payload,
		Affinity: affinity,
	}
}

// snapArtifact is the deterministic payload the test worker "builds":
// bytes in no particular format, which the coordinator must pool, ship
// and persist as they are.
var snapArtifact = []byte("snap\x00\xff\x01")

// installLog counts the snapshot installs one worker pool received,
// per key.
type installLog struct {
	mu   sync.Mutex
	n    map[string]int
	data map[string][]byte
}

func (l *installLog) install(key string, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == nil {
		l.n, l.data = make(map[string]int), make(map[string][]byte)
	}
	l.n[key]++
	l.data[key] = bytes.Clone(data)
	return nil
}

func (l *installLog) count(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n[key]
}

// tcpServeSnaps serves a capacity-1 worker pool that returns snapshot
// artifacts on request and records every coordinator-pushed install.
func tcpServeSnaps(t *testing.T, installs *installLog) (addr string, shutdown func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, lis, ServeConfig{
			Capacity: 1,
			Install:  installs.install,
			Run: func(key string, spec json.RawMessage) Result {
				var s snapSpec
				if err := json.Unmarshal(spec, &s); err != nil {
					return Result{Key: key, Err: err.Error()}
				}
				res := Result{Key: key, Sim: fl.Result{ControllerOverheadSec: s.Value}}
				if s.Snap != "" {
					res.Snaps = []SnapshotArtifact{{Key: s.Snap, Data: snapArtifact}}
				}
				return res
			},
		})
	}()
	return lis.Addr().String(), func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("snap pool drain: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("snap pool did not drain")
		}
	}
}

// Snapshot shipping end to end: a worker-built snapshot artifact
// returns with its response, and the coordinator pools and persists it
// under its own cache key. The coordinator tracks what each pool holds
// across batches and sessions: the capacity-1 pool that built the
// snapshot is never pushed it, even from a fresh session in a later
// batch, while a pool that never held it receives it exactly once —
// metered in the endpoint stats and telemetry counters.
func TestCoordinatorPoolsAndShipsSnapshots(t *testing.T) {
	var builderLog, otherLog installLog
	builderAddr, stopBuilder := tcpServeSnaps(t, &builderLog)
	defer stopBuilder()
	otherAddr, stopOther := tcpServeSnaps(t, &otherLog)
	defer stopOther()

	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	c := NewProcBackend(ProcConfig{Workers: []string{builderAddr}})
	c.SetCache(cache)
	c.SetCollector(col)

	// Batch 1: the job builds the snapshot; its response carries the
	// artifact home.
	res := c.Run([]Job{snapJob(0, "pretrain-k", "pretrain-k")}, nil)
	if res[0].Err != "" {
		t.Fatalf("builder job failed: %s", res[0].Err)
	}
	var raw rawSink
	if !cache.Get("pretrain-k", &raw) {
		t.Fatal("worker-built snapshot not persisted to the coordinator cache")
	}
	if !bytes.Equal(raw, snapArtifact) {
		t.Errorf("persisted artifact = %q, want the byte-identical worker payload %q", raw, snapArtifact)
	}

	// Batch 2 runs on a fresh session of the same capacity-1 pool,
	// which built the snapshot in batch 1 and still holds it: no push.
	res = c.Run([]Job{snapJob(1, "pretrain-k", "")}, nil)
	if res[0].Err != "" {
		t.Fatalf("consumer job failed: %s", res[0].Err)
	}
	if st := c.EndpointStats(); st[0].Dispatched != 2 || st[0].SnapBytesSent != 0 {
		t.Errorf("builder pool: %d dispatched, %d snapshot bytes pushed; want 2 and 0 (it built the snapshot)",
			st[0].Dispatched, st[0].SnapBytesSent)
	}
	if n := builderLog.count("pretrain-k"); n != 0 {
		t.Errorf("builder pool saw %d installs of its own snapshot", n)
	}
	if m := col.Snapshot(); m.Counters.SnapshotBytesShipped != 0 {
		t.Errorf("counters.SnapshotBytesShipped = %d, want 0", m.Counters.SnapshotBytesShipped)
	}

	// A coordinator holding the pooled artifact, over a pool that never
	// held it: the first request of the first batch carries it, and
	// neither the frame's second request nor a later batch's fresh
	// session pushes it again.
	col = telemetry.NewCollector()
	c = NewProcBackend(ProcConfig{Workers: []string{otherAddr}})
	c.SetCollector(col)
	c.storeSnapshot(SnapshotArtifact{Key: "pretrain-k", Data: snapArtifact}, false)
	for b, jobs := range [][]Job{
		{snapJob(2, "pretrain-k", ""), snapJob(3, "pretrain-k", "")},
		{snapJob(4, "pretrain-k", "")},
	} {
		for i, r := range c.Run(jobs, nil) {
			if r.Err != "" {
				t.Fatalf("batch %d job %d failed: %s", b, i, r.Err)
			}
		}
	}
	if n := otherLog.count("pretrain-k"); n != 1 {
		t.Errorf("pool that never held the snapshot installed it %d times, want exactly 1", n)
	}
	otherLog.mu.Lock()
	got := otherLog.data["pretrain-k"]
	otherLog.mu.Unlock()
	if string(got) != string(snapArtifact) {
		t.Errorf("installed artifact = %s, want %s", got, snapArtifact)
	}
	if st := c.EndpointStats(); st[0].SnapBytesSent != int64(len(snapArtifact)) {
		t.Errorf("endpoint metered %d snapshot bytes, want %d", st[0].SnapBytesSent, len(snapArtifact))
	}
	if m := col.Snapshot(); m.Counters.SnapshotBytesShipped != int64(len(snapArtifact)) {
		t.Errorf("counters.SnapshotBytesShipped = %d, want %d", m.Counters.SnapshotBytesShipped, len(snapArtifact))
	}
}
