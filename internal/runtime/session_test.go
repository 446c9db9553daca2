package runtime

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedgpo/internal/fl"
)

// startPipeWorker runs ServeSession on a goroutine over in-process
// pipes and returns the coordinator-side Conn plus the worker's write
// end (closing it kills the worker mid-session) and a channel carrying
// ServeSession's error once the worker exits.
func startPipeWorker(opt WorkerOptions, run func(key string, spec json.RawMessage) Result) (Conn, *io.PipeWriter, <-chan error, error) {
	cr, ww := io.Pipe() // worker writes -> coordinator reads
	wr, cw := io.Pipe() // coordinator writes -> worker reads
	errc := make(chan error, 1)
	go func() {
		err := ServeSession(wr, ww, run, opt)
		_ = ww.Close()
		_ = wr.Close()
		errc <- err
	}()
	conn, err := newWireConn(cr, cw, 0, cw.Close)
	return conn, ww, errc, err
}

// pipeSession is startPipeWorker for tests driving one session by
// hand: wait closes the coordinator side and returns the worker's
// ServeSession error.
func pipeSession(t *testing.T, opt WorkerOptions, run func(key string, spec json.RawMessage) Result) (Conn, func() error) {
	t.Helper()
	conn, _, errc, err := startPipeWorker(opt, run)
	if err != nil {
		t.Fatalf("newWireConn: %v", err)
	}
	return conn, func() error {
		_ = conn.Close()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			return io.ErrNoProgress
		}
	}
}

// pipeTransport dials a fresh in-process pipe worker per session; run
// builds each dial's job body and may kill that worker mid-frame.
type pipeTransport struct {
	run func(dial int, kill func()) func(key string, spec json.RawMessage) Result

	mu    sync.Mutex
	dials int
}

func (p *pipeTransport) Name() string { return "pipe" }

func (p *pipeTransport) Dial() (Conn, error) {
	p.mu.Lock()
	p.dials++
	dial := p.dials
	p.mu.Unlock()
	var ww *io.PipeWriter
	kill := func() { _ = ww.CloseWithError(io.ErrClosedPipe) }
	conn, w, _, err := startPipeWorker(WorkerOptions{}, func(key string, spec json.RawMessage) Result {
		return p.run(dial, kill)(key, spec)
	})
	ww = w
	return conn, err
}

// One wire session end to end: the worker opens with a framed hello,
// and a request envelope carrying several specs is answered one
// response frame per spec in request order. Through the coordinator, a
// worker dying mid-frame costs only the frame's unanswered tail: the
// retry resends exactly those specs, never one that was already
// answered.
func TestWireSessionStreamsAndRequeuesTail(t *testing.T) {
	conn, wait := pipeSession(t, WorkerOptions{Capacity: 2}, stubRun)
	if h := conn.Hello(); !h.Hello || h.Proto != ProtoVersion || h.KeyVersion != keyVersion || h.Capacity != 2 {
		t.Errorf("hello = %+v, want protocol %d, key scheme %q, capacity 2", h, ProtoVersion, keyVersion)
	}
	jobs := specJobs(3)
	reqs := make([]WireRequest, len(jobs))
	for i, j := range jobs {
		reqs[i] = WireRequest{Key: j.Key(), Spec: j.Payload}
	}
	if err := conn.SendBatch(reqs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	for i, req := range reqs {
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if resp.Key != req.Key || resp.Result.Sim.ControllerOverheadSec != float64(i) || len(resp.Snaps) != 0 {
			t.Errorf("frame %d = %q value %v snaps %d, want %q value %v no snaps (request order)", i, resp.Key, resp.Result.Sim.ControllerOverheadSec, len(resp.Snaps), req.Key, float64(i))
		}
	}
	if sent, recv := conn.(WireStatser).WireStats(); sent <= 0 || recv <= 0 {
		t.Errorf("WireStats = (%d, %d), want both positive after a batch", sent, recv)
	}
	if err := wait(); err != nil {
		t.Errorf("worker session: %v", err)
	}

	// Tail requeue: one session holds the whole 5-spec batch in one
	// frame; the first worker answers two specs and dies running the
	// third.
	var mu sync.Mutex
	ran := make(map[int][]string)
	pt := &pipeTransport{run: func(dial int, kill func()) func(string, json.RawMessage) Result {
		return func(key string, spec json.RawMessage) Result {
			mu.Lock()
			ran[dial] = append(ran[dial], key)
			n := len(ran[dial])
			mu.Unlock()
			if dial == 1 && n == 3 {
				kill()
			}
			return stubRun(key, spec)
		}
	}}
	jobs = specJobs(5)
	c := NewCoordinator(ProcConfig{}, pt)
	for i, r := range c.Run(jobs, nil) {
		if r.Err != "" || r.Sim.ControllerOverheadSec != float64(i) {
			t.Errorf("job %d = %+v after a mid-frame worker death", i, r)
		}
	}
	var tail []string
	for _, j := range jobs[2:] {
		tail = append(tail, j.Key())
	}
	if !reflect.DeepEqual(ran[2], tail) {
		t.Errorf("retry session ran %v, want exactly the unanswered tail %v", ran[2], tail)
	}
	st := c.EndpointStats()[0]
	if st.Retried != 1 || st.Failed != 0 || st.Frames != 2 || st.Dispatched != int64(len(jobs)+len(tail)) {
		t.Errorf("endpoint stats = %+v, want 1 retry, 2 frames, %d dispatched", st, len(jobs)+len(tail))
	}
}

// Snapshots ride the same session: a snapshot pushed with a request is installed before that request
// runs, and a snapshot a job builds returns with its response.
func TestWireSessionSnapshotRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var events []string
	record := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	run := func(key string, spec json.RawMessage) Result {
		record("run:" + key)
		var s snapSpec
		if err := json.Unmarshal(spec, &s); err != nil {
			return Result{Key: key, Err: err.Error()}
		}
		res := Result{Key: key, Sim: fl.Result{ControllerOverheadSec: s.Value}}
		if s.Snap != "" {
			res.Snaps = []SnapshotArtifact{{Key: s.Snap, Data: snapArtifact}}
		}
		return res
	}
	conn, wait := pipeSession(t, WorkerOptions{
		Capacity: 2,
		Install: func(key string, _ []byte) error {
			record("install:" + key)
			return nil
		},
	}, run)
	if h := conn.Hello(); !h.Hello || h.Proto != ProtoVersion || h.KeyVersion != keyVersion || h.Capacity != 2 {
		t.Errorf("hello = %+v, want protocol %d, key scheme %q, capacity 2", h, ProtoVersion, keyVersion)
	}

	builder := snapJob(0, "pk", "pk") // builds the snapshot
	consumer := snapJob(1, "pk", "")  // gets it pushed
	plain := snapJob(2, "", "")
	reqs := []WireRequest{
		{Key: builder.Key(), Spec: builder.Payload},
		{Key: consumer.Key(), Spec: consumer.Payload, Snaps: []SnapshotArtifact{{Key: "pk", Data: snapArtifact}}},
		{Key: plain.Key(), Spec: plain.Payload},
	}
	if err := conn.SendBatch(reqs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	for i, req := range reqs {
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if resp.Key != req.Key || resp.Result.Sim.ControllerOverheadSec != float64(i) {
			t.Errorf("frame %d = %q value %v, want %q value %v (request order)", i, resp.Key, resp.Result.Sim.ControllerOverheadSec, req.Key, float64(i))
		}
		wantSnaps := 0
		if i == 0 {
			wantSnaps = 1
		}
		if len(resp.Snaps) != wantSnaps {
			t.Errorf("frame %d returned %d snapshot artifacts, want %d", i, len(resp.Snaps), wantSnaps)
		} else if wantSnaps == 1 && (resp.Snaps[0].Key != "pk" || string(resp.Snaps[0].Data) != string(snapArtifact)) {
			t.Errorf("builder returned %+v, want the built artifact under key pk", resp.Snaps[0])
		}
	}
	if err := wait(); err != nil {
		t.Errorf("worker session: %v", err)
	}
	mu.Lock()
	got := append([]string(nil), events...)
	mu.Unlock()
	want := []string{"run:" + builder.Key(), "install:pk", "run:" + consumer.Key(), "run:" + plain.Key()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event order = %v, want %v (installs precede the request that shipped them)", got, want)
	}
}

// When an endpoint of a two-pool fleet dies mid-batch, the surviving
// endpoint must absorb its jobs and the dead endpoint's retry and
// failover counters must record the handoff.
func TestFleetFailoverAccounting(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.Map
	answered := make(chan struct{}, 64)
	// The schedule is pinned by handshake so it holds under
	// race-detector load: every healthy cell and the flaky endpoint's
	// first cell block until the kill goroutine has closed the flaky
	// listener and every accepted conn. The healthy sibling therefore
	// cannot drain the queue before the flaky endpoint holds a frame in
	// flight, and the flaky worker's response write is guaranteed to
	// fail — the coordinator must requeue that frame (retry) and, with
	// the listener gone, hand it off (failover).
	killed := make(chan struct{})
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			conns.Store(nc, struct{}{})
			go func(nc net.Conn) {
				_ = ServeSession(nc, nc, func(key string, spec json.RawMessage) Result {
					answered <- struct{}{}
					<-killed
					return stubRun(key, spec)
				}, WorkerOptions{Capacity: 1})
			}(nc)
		}
	}()

	healthyLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, healthyLis, ServeConfig{
			Capacity: 1,
			Run: func(key string, spec json.RawMessage) Result {
				<-killed
				return stubRun(key, spec)
			},
		})
	}()
	jobs := specJobs(12)
	c := NewProcBackend(ProcConfig{Workers: []string{lis.Addr().String(), healthyLis.Addr().String()}})
	go func() {
		<-answered
		_ = lis.Close()
		conns.Range(func(k, _ any) bool {
			_ = k.(net.Conn).Close()
			return true
		})
		close(killed)
	}()
	results := c.Run(jobs, nil)
	for i, r := range results {
		if r.Err != "" || r.Sim.ControllerOverheadSec != float64(i) {
			t.Errorf("job %d = %+v after endpoint death", i, r)
		}
	}
	flakyName := "tcp:" + lis.Addr().String()
	for _, ep := range c.EndpointStats() {
		if ep.Endpoint == flakyName {
			if ep.Retried == 0 {
				t.Errorf("dead endpoint recorded no retry")
			}
			if ep.Failed == 0 {
				t.Errorf("dead endpoint recorded no failover handoff")
			}
		} else if ep.Failed != 0 {
			t.Errorf("surviving endpoint %s recorded %d failed", ep.Endpoint, ep.Failed)
		}
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("graceful drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not drain within 5s")
	}
}
