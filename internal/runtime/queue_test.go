package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// keyedJob builds a spec-carrying stub job that reads pretrain
// snapshot key ("" for none).
func keyedJob(i int, key string) Job {
	j := stubJob(i, stubSpec{Value: float64(i)})
	j.SnapshotKey = key
	return j
}

// never is a pooled callback for a coordinator that holds no snapshot.
func never(string) bool { return false }

// popAsync pops for ep in the background; the channel delivers the
// job index, or -1 if the pop returned done.
func popAsync(q *dispatchQueue, ep int) <-chan int {
	got := make(chan int, 1)
	go func() {
		i, ok := q.pop(ep)
		if !ok {
			i = -1
		}
		got <- i
	}()
	return got
}

// Jobs with no snapshot key come out of the queue in FIFO order, each
// exactly once, however many endpoints pull — and with no endpoint at
// all, the batch drains to abandoned in the same order.
func TestAssignGroupsCapacityWeighted(t *testing.T) {
	jobs := specJobs(7)
	idxs := []int{3, 0, 6, 1, 5, 2, 4}
	for eps := 0; eps <= 2; eps++ {
		q := newDispatchQueue(jobs, idxs, eps, never)
		var got []int
		for n := 0; eps > 0 && n < len(idxs); n++ {
			i, ok := q.pop(n % eps)
			if !ok {
				t.Fatalf("%d endpoints: pop %d returned done", eps, n)
			}
			got = append(got, i)
			q.finalize()
		}
		got = append(got, q.abandoned()...)
		if !reflect.DeepEqual(got, idxs) {
			t.Errorf("%d endpoints: dispatch order %v, want FIFO %v", eps, got, idxs)
		}
		if _, ok := q.pop(0); ok {
			t.Errorf("%d endpoints: pop after the batch drained returned a job", eps)
		}
	}
}

// A capacity-4 endpoint must absorb ~4x the cells of a capacity-1
// sibling: its four sessions pull from the same FIFO as the sibling's
// one. Responders sleep so throughput, not scheduling latency, decides
// the split.
func TestAffinityCapacityWeightedDispatch(t *testing.T) {
	respond := func(_ int, req WireRequest) (WireResponse, error) {
		time.Sleep(2 * time.Millisecond)
		return okResponse(req)
	}
	big := newFakeTransport("fake:big", 4, respond)
	small := newFakeTransport("fake:small", 1, respond)
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = keyedJob(i, fmt.Sprintf("group-%02d", i))
	}
	c := NewCoordinator(big, small)
	// A first batch probes both endpoints, so the second runs every
	// advertised session from its start.
	c.Run(specJobs(1), nil)
	before := c.EndpointStats()
	for i, r := range c.Run(jobs, nil) {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
	}
	// EndpointStats sorts by name: "fake:big" first.
	st := c.EndpointStats()
	bigN, smallN := st[0].Dispatched-before[0].Dispatched, st[1].Dispatched-before[1].Dispatched
	if bigN+smallN != int64(len(jobs)) {
		t.Fatalf("dispatched %d+%d, want %d total", bigN, smallN, len(jobs))
	}
	if bigN < 12 {
		t.Errorf("capacity-4 endpoint ran %d of %d cells, want >= 12 (~4x its capacity-1 sibling's %d)",
			bigN, len(jobs), smallN)
	}
}

// Cells sharing a pretrain key must run in one worker process while
// the coordinator pools no snapshot for it: the first endpoint to pop
// a key builds it, and nobody else may take that key's cells.
func TestAffinityCoLocatesGroups(t *testing.T) {
	var mu sync.Mutex
	ranOn := make(map[string]map[string]bool) // snapshot key -> endpoints
	byJobKey := make(map[string]string)       // job key -> snapshot key
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = keyedJob(i, fmt.Sprintf("pretrain-%d", i/4))
		byJobKey[jobs[i].Key()] = jobs[i].SnapshotKey
	}
	respond := func(name string) func(int, WireRequest) (WireResponse, error) {
		return func(_ int, req WireRequest) (WireResponse, error) {
			mu.Lock()
			k := byJobKey[req.Key]
			if ranOn[k] == nil {
				ranOn[k] = make(map[string]bool)
			}
			ranOn[k][name] = true
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return okResponse(req)
		}
	}
	c := NewCoordinator(
		newFakeTransport("fake:a", 2, respond("a")),
		newFakeTransport("fake:b", 2, respond("b")))
	for i, r := range c.Run(jobs, nil) {
		if r.Err != "" {
			t.Fatalf("job %d failed: %s", i, r.Err)
		}
	}
	if len(ranOn) != 3 {
		t.Fatalf("ran %d snapshot keys, want 3", len(ranOn))
	}
	for k, eps := range ranOn {
		if len(eps) != 1 {
			t.Errorf("key %s ran on %d endpoints (%v), want exactly 1", k, len(eps), eps)
		}
	}
}

// An idle endpoint must pick up every key a straggler has not claimed,
// and no job may execute twice. The schedule is pinned by handshake
// rather than sleeps so it holds under race-detector load: the
// straggler blocks inside its first cell, whose key it now builds,
// while the fast endpoint — which may not finish anything before the
// straggler has started — runs the other three keys, and only then
// releases the straggler. The straggler's key stays its own
// throughout: its queued cells wait for it rather than go to the fast
// endpoint.
func TestAffinityStragglerGroupsStolenWithoutDoubleExecution(t *testing.T) {
	const group = 4 // cells per snapshot key
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
	jobs := make([]Job, 4*group)
	for i := range jobs {
		jobs[i] = keyedJob(i, fmt.Sprintf("g%d", i/group))
	}
	c := NewCoordinator(fast, slow)
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
	if st[0].Dispatched != 3*group || st[1].Dispatched != group {
		t.Errorf("dispatch split %d/%d, want %d/%d (fast ran every key the straggler had not claimed)",
			st[0].Dispatched, st[1].Dispatched, 3*group, group)
	}
}

// A job reading snapshot K may not go to an endpoint other than K's
// builder while the coordinator pools no K: that endpoint blocks, and
// the snapshot's arrival (wake) releases it.
func TestAffinityQueueSnapshotGatesSingleSteal(t *testing.T) {
	var mu sync.Mutex
	haveSnap := false
	pooled := func(string) bool {
		mu.Lock()
		defer mu.Unlock()
		return haveSnap
	}
	jobs := []Job{keyedJob(0, "k"), keyedJob(1, "k"), keyedJob(2, "k")}
	q := newDispatchQueue(jobs, []int{0, 1, 2}, 2, pooled)

	if i, ok := q.pop(0); !ok || i != 0 {
		t.Fatalf("builder pop = (%d, %v), want job 0", i, ok)
	}
	got := popAsync(q, 1)
	select {
	case i := <-got:
		t.Fatalf("endpoint 1 took job %d of a key endpoint 0 is building, with no pooled snapshot", i)
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
		t.Fatal("snapshot arrival did not release the blocked pop")
	}
}

// A builder that exits frees its keys: a blocked endpoint claims the
// snapshot and becomes its builder, so a dead endpoint never strands
// work.
func TestDispatchQueueDeadBuilderFreesKey(t *testing.T) {
	jobs := []Job{keyedJob(0, "k"), keyedJob(1, "k"), keyedJob(2, "k")}
	q := newDispatchQueue(jobs, []int{0, 1, 2}, 2, never)
	if i, ok := q.pop(0); !ok || i != 0 {
		t.Fatalf("builder pop = (%d, %v), want job 0", i, ok)
	}
	q.requeue(0) // the builder gave its in-flight job back, then died
	got := popAsync(q, 1)
	select {
	case i := <-got:
		t.Fatalf("endpoint 1 took job %d while the builder was live", i)
	case <-time.After(30 * time.Millisecond):
	}
	q.endpointDone(0)
	select {
	case i := <-got:
		if i != 1 {
			t.Fatalf("pop after the builder exited = %d, want job 1", i)
		}
	case <-time.After(time.Second):
		t.Fatal("the builder's exit did not free its key")
	}
	for _, want := range []int{2, 0} {
		if i, ok := q.pop(1); !ok || i != want {
			t.Errorf("new builder's pop = (%d, %v), want job %d", i, ok, want)
		}
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
func snapJob(i int, key, snap string) Job {
	payload, _ := json.Marshal(snapSpec{Value: float64(i), Snap: snap})
	return Job{
		Kind:        "sim",
		Scenario:    fmt.Sprintf("snap-%d", i),
		Seed:        int64(i),
		Payload:     payload,
		SnapshotKey: key,
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
	c.storeSnapshot(SnapshotArtifact{Key: "pretrain-k", Data: snapArtifact})
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

// A snapshot counts as held only once a request reading it is
// answered: when the first send fails, the retried frame must carry the
// snapshot again, or the worker would run a second warm-up.
func TestCoordinatorResendAfterFailedSendCarriesSnapshot(t *testing.T) {
	var mu sync.Mutex
	var got [][]SnapshotArtifact
	tr := newFakeTransport("fake:a", 1, func(_ int, req WireRequest) (WireResponse, error) {
		mu.Lock()
		got = append(got, req.Snaps)
		mu.Unlock()
		return okResponse(req)
	})
	tr.sendErr = func(dial int) error {
		if dial == 1 {
			return errors.New("broken pipe")
		}
		return nil
	}
	c := NewCoordinator(tr)
	c.storeSnapshot(SnapshotArtifact{Key: "pretrain-k", Data: snapArtifact})
	if res := c.Run([]Job{snapJob(0, "pretrain-k", "")}, nil); res[0].Err != "" {
		t.Fatalf("job failed: %s", res[0].Err)
	}
	if len(got) != 1 {
		t.Fatalf("worker served %d requests, want 1", len(got))
	}
	if len(got[0]) != 1 || got[0][0].Key != "pretrain-k" || !bytes.Equal(got[0][0].Data, snapArtifact) {
		t.Errorf("resent request carried snapshots %+v, want the pooled pretrain-k artifact", got[0])
	}
	if st := c.EndpointStats(); st[0].Retried != 1 || st[0].SnapBytesSent != int64(len(snapArtifact)) {
		t.Errorf("endpoint stats %+v, want 1 retry and %d snapshot bytes pushed once", st[0], len(snapArtifact))
	}
}

// Two sessions of one pool may both be waiting on requests for a pooled
// snapshot key before either is answered; the pool may run the second
// before it installs the first's artifact. So a sent artifact does not
// make the key held: both requests must carry it. The fake pool holds
// each request until both have arrived, and dials its second session
// only once the first request is held.
func TestCoordinatorPushesSnapshotWithEveryUnansweredRequest(t *testing.T) {
	var mu sync.Mutex
	var got [][]SnapshotArtifact
	firstHeld, bothHeld := make(chan struct{}), make(chan struct{})
	tr := newFakeTransport("fake:a", 2, func(_ int, req WireRequest) (WireResponse, error) {
		mu.Lock()
		got = append(got, req.Snaps)
		switch len(got) {
		case 1:
			close(firstHeld)
		case 2:
			close(bothHeld)
		}
		mu.Unlock()
		select {
		case <-bothHeld:
		case <-time.After(10 * time.Second):
			return WireResponse{}, errors.New("the second session's request never arrived")
		}
		return okResponse(req)
	})
	tr.dialErr = func(dial int) error {
		if dial != 2 {
			return nil
		}
		select {
		case <-firstHeld:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the first session's request never arrived")
		}
	}
	c := NewCoordinator(tr)
	c.storeSnapshot(SnapshotArtifact{Key: "pretrain-k", Data: snapArtifact})
	for _, res := range c.Run([]Job{snapJob(0, "pretrain-k", ""), snapJob(1, "pretrain-k", "")}, nil) {
		if res.Err != "" {
			t.Fatalf("job failed: %s", res.Err)
		}
	}
	if len(got) != 2 {
		t.Fatalf("worker served %d requests, want 2", len(got))
	}
	for i, snaps := range got {
		if len(snaps) != 1 || snaps[0].Key != "pretrain-k" || !bytes.Equal(snaps[0].Data, snapArtifact) {
			t.Errorf("request %d carried snapshots %+v, want the pooled pretrain-k artifact", i, snaps)
		}
	}
}
