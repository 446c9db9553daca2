package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedgpo/internal/fl"
	"fedgpo/internal/runtime/wire"
)

// fakeTransport is an in-process Transport whose sessions are scripted
// per dial: respond decides, given the dial ordinal and the request,
// whether to answer or to break the session. It records every send so
// tests can assert exactly which jobs were resent after a failure.
type fakeTransport struct {
	name  string
	hello WireHello
	// respond serves one request; returning an error breaks the
	// session (the coordinator sees it from Recv).
	respond func(dial int, req WireRequest) (WireResponse, error)
	// dialErr, when non-nil, can fail a dial outright.
	dialErr func(dial int) error
	// sendErr, when non-nil, can fail a session's SendBatch before any
	// request is recorded.
	sendErr func(dial int) error

	mu    sync.Mutex
	dials int
	sends map[string]int
}

func newFakeTransport(name string, capacity int, respond func(dial int, req WireRequest) (WireResponse, error)) *fakeTransport {
	return &fakeTransport{
		name:    name,
		hello:   WireHello{Hello: true, Proto: ProtoVersion, KeyVersion: keyVersion, Capacity: capacity},
		respond: respond,
		sends:   make(map[string]int),
	}
}

func (t *fakeTransport) Name() string { return t.name }

func (t *fakeTransport) Dial() (Conn, error) {
	t.mu.Lock()
	t.dials++
	dial := t.dials
	t.mu.Unlock()
	if t.dialErr != nil {
		if err := t.dialErr(dial); err != nil {
			return nil, err
		}
	}
	return &fakeConn{t: t, dial: dial}, nil
}

func (t *fakeTransport) sendCount(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sends[key]
}

// fakeConn answers like a real worker: requests are served in order,
// each in its own response frame, so a respond error mid-frame leaves
// the frame's tail unanswered.
type fakeConn struct {
	t       *fakeTransport
	dial    int
	pending []WireRequest
}

func (c *fakeConn) Hello() WireHello { return c.t.hello }

func (c *fakeConn) SendBatch(reqs []WireRequest) error {
	if c.t.sendErr != nil {
		if err := c.t.sendErr(c.dial); err != nil {
			return err
		}
	}
	c.t.mu.Lock()
	for _, req := range reqs {
		c.t.sends[req.Key]++
	}
	c.t.mu.Unlock()
	c.pending = append(c.pending, reqs...)
	return nil
}

func (c *fakeConn) Recv() (WireResponse, error) {
	if len(c.pending) == 0 {
		return WireResponse{}, fmt.Errorf("recv without a pending request")
	}
	req := c.pending[0]
	c.pending = c.pending[1:]
	return c.t.respond(c.dial, req)
}

func (c *fakeConn) Close() error { return nil }

// okResponse answers a request with a deterministic payload derived
// from its key.
func okResponse(req WireRequest) (WireResponse, error) {
	return WireResponse{Key: req.Key, Result: Result{Key: req.Key, Sim: fl.Result{ControllerOverheadSec: float64(len(req.Key))}}}, nil
}

// specJobs builds n spec-carrying jobs (the payload content is
// irrelevant to the coordinator).
func specJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = stubJob(i, stubSpec{Value: float64(i)})
	}
	return jobs
}

// A session that drops mid-batch must be retried on a fresh session,
// resending only the in-flight frame's unanswered specs — never jobs
// that were already answered.
func TestCoordinatorRetryResendsOnlyUnanswered(t *testing.T) {
	jobs := specJobs(6)
	answeredOnFirst := 3
	ft := newFakeTransport("fake:a", 1, nil)
	served := 0
	ft.respond = func(dial int, req WireRequest) (WireResponse, error) {
		if dial == 1 {
			if served == answeredOnFirst {
				return WireResponse{}, fmt.Errorf("connection reset mid-shard")
			}
			served++
		}
		return okResponse(req)
	}
	c := NewCoordinator(ProcConfig{}, ft)
	results := c.Run(jobs, nil)
	resent := 0
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("job %d failed: %s", i, r.Err)
		}
		switch n := ft.sendCount(jobs[i].Key()); n {
		case 1:
		case 2:
			resent++
		default:
			t.Errorf("job %d sent %d times", i, n)
		}
	}
	if want := len(jobs) - answeredOnFirst; resent != want {
		t.Errorf("%d jobs were resent, want exactly the %d unanswered specs of the in-flight frame", resent, want)
	}
	if ft.dials != 2 {
		t.Errorf("transport dialed %d times, want 2 (session + one retry)", ft.dials)
	}
	st := c.EndpointStats()
	if len(st) != 1 || st[0].Retried != 1 || st[0].Failed != 0 || st[0].Dispatched != int64(len(jobs)+resent) {
		t.Errorf("endpoint stats = %+v", st)
	}
}

// A worker that answers with the wrong key (out of order) must fail
// the session; the retry re-runs the affected job and the batch
// completes.
func TestCoordinatorOutOfOrderReplyFailsSession(t *testing.T) {
	jobs := specJobs(4)
	ft := newFakeTransport("fake:ooo", 1, nil)
	ft.respond = func(dial int, req WireRequest) (WireResponse, error) {
		if dial == 1 && req.Key == jobs[2].Key() {
			resp, _ := okResponse(req)
			resp.Key = "v3|sim|someone-else|c|seed=9"
			return resp, nil
		}
		return okResponse(req)
	}
	c := NewCoordinator(ProcConfig{}, ft)
	results := c.Run(jobs, nil)
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("job %d failed: %s", i, r.Err)
		}
	}
	if got := ft.sendCount(jobs[2].Key()); got != 2 {
		t.Errorf("misanswered job sent %d times, want 2", got)
	}
	if ft.dials != 2 {
		t.Errorf("transport dialed %d times, want 2", ft.dials)
	}
}

// When every session attempt fails, the in-flight job and everything
// still queued must surface error results — never missing slots.
func TestCoordinatorExhaustedRetriesSurfaceErrors(t *testing.T) {
	jobs := specJobs(3)
	ft := newFakeTransport("fake:dead", 1, func(int, WireRequest) (WireResponse, error) {
		return WireResponse{}, fmt.Errorf("endpoint is gone")
	})
	c := NewCoordinator(ProcConfig{}, ft)
	done := 0
	results := c.Run(jobs, func(int, Result) { done++ })
	for i, r := range results {
		if !strings.Contains(r.Err, "worker shard failed after retry") {
			t.Errorf("job %d error = %q", i, r.Err)
		}
	}
	if done != len(jobs) {
		t.Errorf("done fired %d times, want %d", done, len(jobs))
	}
	// One session holds the whole batch in one frame, so the in-flight
	// frame is every job.
	st := c.EndpointStats()
	if len(st) != 1 || st[0].Failed != int64(len(jobs)) {
		t.Errorf("endpoint stats = %+v (want exactly the in-flight frame counted failed)", st)
	}
}

// A healthy endpoint must absorb the whole batch when its sibling
// cannot even establish a session — a dead remote pool degrades
// capacity, not correctness.
func TestCoordinatorHealthySiblingAbsorbsBatch(t *testing.T) {
	jobs := specJobs(8)
	healthy := newFakeTransport("fake:ok", 2, func(_ int, req WireRequest) (WireResponse, error) {
		return okResponse(req)
	})
	dead := newFakeTransport("fake:down", 2, nil)
	dead.dialErr = func(int) error { return fmt.Errorf("connection refused") }
	c := NewCoordinator(ProcConfig{}, healthy, dead)
	results := c.Run(jobs, nil)
	for i, r := range results {
		if r.Err != "" {
			t.Errorf("job %d failed: %s", i, r.Err)
		}
	}
	// EndpointStats sorts by name: "fake:down" first, "fake:ok" second.
	if st := c.EndpointStats(); st[0].Dispatched != 0 || st[1].Dispatched != int64(len(jobs)) {
		t.Errorf("endpoint stats = %+v", st)
	}
}

// jsonFrame renders v as JSON inside one wire frame — the shape of a
// worker's hello.
func jsonFrame(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return payloadFrame(t, b)
}

// payloadFrame wraps payload in one wire frame.
func payloadFrame(t testing.TB, payload []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := wire.WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// reqFrame renders one binary request envelope frame asking for keys.
func reqFrame(t testing.TB, keys ...string) string {
	t.Helper()
	reqs := make([]WireRequest, len(keys))
	for i, k := range keys {
		reqs[i] = WireRequest{Key: k, Spec: json.RawMessage(`{}`)}
	}
	return payloadFrame(t, appendRequests(nil, reqs))
}

// respFrame renders resp as one binary response envelope frame.
func respFrame(t testing.TB, resp WireResponse) string {
	t.Helper()
	b, err := resp.appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return payloadFrame(t, b)
}

// The handshake must reject a worker speaking another protocol version
// or cache-key scheme, a worker built before hellos were framed, a
// stream whose length prefix exceeds the frame bound, and anything
// that is not a hello at all — each with an error, without hanging and
// without allocating what a lying prefix claims.
func TestHandshakeRejectsMismatches(t *testing.T) {
	dial := func(stream string) error {
		_, err := newWireConn(strings.NewReader(stream), io.Discard, 0, nil)
		return err
	}
	hello := func(proto int, kv string) string {
		return jsonFrame(t, WireHello{Hello: true, Proto: proto, KeyVersion: kv, Capacity: 1})
	}
	var oversized [4]byte
	binary.BigEndian.PutUint32(oversized[:], wire.MaxFrameBytes+1)
	cases := []struct{ name, stream, want string }{
		{"unframed JSON hello", `{"hello":true,"proto":3,"maxProto":5,"keyVersion":"` + keyVersion + `","capacity":1}` + "\n", "before protocol 6"},
		{"protocol 5", hello(5, keyVersion), "wire protocol 5"},
		// Protocol 6 framed its hello the same way but wrote FGC1 cache
		// entries into a shared cache directory.
		{"protocol 6", hello(6, keyVersion), "wire protocol 6"},
		// Protocol 7 sent JSON envelopes.
		{"protocol 7", hello(7, keyVersion), "wire protocol 7"},
		// Protocol 8 wrote FGC2 cache entries.
		{"protocol 8", hello(8, keyVersion), "wire protocol 8"},
		// Protocol 9 wrote the derived outcome fields into Result
		// payloads.
		{"protocol 9", hello(9, keyVersion), "wire protocol 9"},
		// Protocol 10 shipped and cached pretrain snapshots as JSON.
		{"protocol 10", hello(10, keyVersion), "wire protocol 10"},
		{"future protocol", hello(ProtoVersion+1, keyVersion), "wire protocol"},
		{"wrong key scheme", hello(ProtoVersion, "v1"), "cache-key scheme"},
		{"prefix over MaxFrameBytes", string(oversized[:]) + "xxxx", "length prefix"},
		{"response instead of hello", respFrame(t, WireResponse{Key: "k0"}), "not a hello"},
		{"worker stderr on stdout", "worker: cannot open cache", "reading hello"},
		{"empty stream", "", "reading hello"},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(1, func() { err = dial(c.stream) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.want)
		}
		// A rejected hello costs a handful of small objects, never the
		// body a lying prefix claims.
		if allocs > 64 {
			t.Errorf("%s: rejection allocated %.0f objects", c.name, allocs)
		}
	}
	good := jsonFrame(t, WireHello{Hello: true, Proto: ProtoVersion, KeyVersion: keyVersion, Capacity: 3, CacheDir: "/tmp/c"})
	conn, err := newWireConn(strings.NewReader(good), io.Discard, 0, nil)
	if err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}
	if h := conn.Hello(); h.Capacity != 3 || h.CacheDir != "/tmp/c" {
		t.Errorf("hello = %+v", h)
	}
}

// FuzzHello feeds arbitrary bytes to the coordinator side of a session
// over a pipe: the handshake either rejects them with an error or
// yields a conn holding a validated hello — never a panic or a hang.
func FuzzHello(f *testing.F) {
	f.Add([]byte(jsonFrame(f, WireHello{Hello: true, Proto: ProtoVersion, KeyVersion: keyVersion, Capacity: 2})))
	f.Add([]byte(jsonFrame(f, WireHello{Hello: true, Proto: 5, KeyVersion: keyVersion})))
	f.Add([]byte(`{"hello":true,"proto":3,"maxProto":5,"keyVersion":"v3","capacity":1}` + "\n"))
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0x01, 0x02})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		pr, pw := io.Pipe()
		go func() {
			_, _ = pw.Write(b)
			_ = pw.Close()
		}()
		conn, err := newWireConn(pr, io.Discard, 0, func() error { return pr.Close() })
		if err != nil {
			return
		}
		defer conn.Close()
		if h := conn.Hello(); !h.Hello || h.Proto != ProtoVersion || h.KeyVersion != keyVersion || h.Capacity < 1 {
			t.Fatalf("accepted an invalid hello: %+v", h)
		}
	})
}

// A coordinator with no endpoints answers every job with an error
// result instead of building a queue over an empty fleet.
func TestCoordinatorWithoutEndpointsReturnsErrors(t *testing.T) {
	jobs := specJobs(2)
	jobs[0].SnapshotKey = "pretrain-k"
	done := 0
	results := NewCoordinator(ProcConfig{}).Run(jobs, func(int, Result) { done++ })
	for i, r := range results {
		if !strings.Contains(r.Err, "no worker endpoints available") {
			t.Errorf("job %d = %+v, want a no-endpoints error", i, r)
		}
	}
	if done != len(jobs) {
		t.Errorf("done fired %d times, want %d", done, len(jobs))
	}
}

// The worker session loop must end cleanly at EOF after its last frame,
// and fail with the offending frame's index on anything that is not a
// request envelope frame — stray whitespace between frames included,
// since every byte on the stream belongs to a frame.
func TestServeSessionWhitespaceAndFrameErrors(t *testing.T) {
	run := func(key string, _ json.RawMessage) Result { return Result{Key: key} }
	var out bytes.Buffer
	if err := ServeSession(strings.NewReader(reqFrame(t, "k0", "k1")+reqFrame(t, "k2")), &out, run, WorkerOptions{}); err != nil {
		t.Fatalf("clean session: %v", err)
	}
	for i := 0; i < 4; i++ { // hello + one response frame per spec
		if _, _, err := wire.ReadFrame(&out, i+1); err != nil {
			t.Fatalf("output frame %d: %v", i+1, err)
		}
	}
	for _, c := range []struct{ name, stream string }{
		{"whitespace between frames", reqFrame(t, "k0") + "\n" + reqFrame(t, "k1")},
		{"JSON line", reqFrame(t, "k0") + `{"key":"k1","spec":{}}` + "\n"},
		{"empty envelope", reqFrame(t, "k0") + reqFrame(t)},
		{"not an envelope", reqFrame(t, "k0") + jsonFrame(t, []int{1})},
		{"protocol 7 JSON envelope", reqFrame(t, "k0") + jsonFrame(t, map[string][]WireRequest{"reqs": {{Key: "k1", Spec: json.RawMessage(`{}`)}}})},
		{"trailing bytes", reqFrame(t, "k0") + payloadFrame(t, append(appendRequests(nil, []WireRequest{{Key: "k1"}}), 0))},
	} {
		err := ServeSession(strings.NewReader(c.stream), io.Discard, run, WorkerOptions{})
		if err == nil || !strings.Contains(err.Error(), "frame 2") {
			t.Errorf("%s: error = %v, want the offending frame index (frame 2)", c.name, err)
		}
	}
}

// tcpServe starts a Serve worker pool on localhost whose run executes
// stubSpec payloads, returning its address and a shutdown func that
// triggers the graceful drain and waits for Serve to return.
func tcpServe(t *testing.T, capacity int, cacheDir string) (addr string, shutdown func() error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, lis, ServeConfig{
			Capacity: capacity,
			CacheDir: cacheDir,
			Run:      stubRun,
		})
	}()
	return lis.Addr().String(), func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("Serve did not drain within 5s")
		}
	}
}

// End-to-end on localhost TCP: the coordinator learns the pool's
// capacity from the hello, streams the batch over real sockets, and
// produces results identical to the in-process pool backend; the pool
// then drains cleanly.
func TestTCPTransportEndToEnd(t *testing.T) {
	addr, shutdown := tcpServe(t, 3, "")
	jobs := specJobs(17)
	jobs = append(jobs, stubJob(17, stubSpec{Fail: true}))
	want := NewPoolBackend(4).Run(jobs, nil)
	// A failing job body is an error result on both paths, but the pool
	// wraps the panic differently from the stub's explicit Err; align
	// the expectation with the wire path's literal Err.
	want[17] = Result{Key: jobs[17].Key(), Err: "stub failure"}

	c := NewProcBackend(ProcConfig{Workers: []string{addr}})
	var done atomic.Int64
	results := c.Run(jobs, func(int, Result) { done.Add(1) })
	for i := range want {
		if results[i].Err != want[i].Err || results[i].Sim.ControllerOverheadSec != want[i].Sim.ControllerOverheadSec {
			t.Errorf("job %d over TCP = %+v, want %+v", i, results[i], want[i])
		}
	}
	if done.Load() != int64(len(jobs)) {
		t.Errorf("done fired %d times, want %d", done.Load(), len(jobs))
	}
	if got := c.Workers(); got != 3 {
		t.Errorf("coordinator learned capacity %d from the hello, want 3", got)
	}
	if err := shutdown(); err != nil {
		t.Errorf("graceful drain: %v", err)
	}
}

// A TCP pool dying mid-batch (listener and all sessions torn down)
// must not lose the batch when a healthy endpoint remains.
func TestTCPDisconnectMidBatchFailsOver(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.Map
	answered := make(chan struct{}, 64)
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
					// Give the coordinator time to queue more work on this
					// endpoint before it dies.
					time.Sleep(10 * time.Millisecond)
					var s stubSpec
					_ = json.Unmarshal(spec, &s)
					return Result{Key: key, Sim: fl.Result{ControllerOverheadSec: s.Value}}
				}, WorkerOptions{Capacity: 1})
			}(nc)
		}
	}()

	healthyAddr, shutdown := tcpServe(t, 1, "")
	jobs := specJobs(12)
	c := NewProcBackend(ProcConfig{Workers: []string{lis.Addr().String(), healthyAddr}})
	go func() {
		// Kill the flaky pool after it has started answering.
		<-answered
		_ = lis.Close()
		conns.Range(func(k, _ any) bool {
			_ = k.(net.Conn).Close()
			return true
		})
	}()
	results := c.Run(jobs, nil)
	for i, r := range results {
		if r.Err != "" || r.Sim.ControllerOverheadSec != float64(i) {
			t.Errorf("job %d = %+v after mid-batch disconnect", i, r)
		}
	}
	if err := shutdown(); err != nil {
		t.Errorf("graceful drain: %v", err)
	}
}

// A listener that is not a fedgpo worker (wrong protocol on the port)
// must be rejected by the handshake, and with no other endpoint the
// batch surfaces handshake errors rather than hanging or poisoning
// the cache.
func TestTCPHandshakeMismatchRejectsEndpoint(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	future := jsonFrame(t, WireHello{Hello: true, Proto: ProtoVersion + 1, KeyVersion: keyVersion, Capacity: 1})
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			_, _ = io.WriteString(nc, future)
			_ = nc.Close()
		}
	}()
	c := NewProcBackend(ProcConfig{Workers: []string{lis.Addr().String()}})
	results := c.Run(specJobs(2), nil)
	for i, r := range results {
		if !strings.Contains(r.Err, "handshake") {
			t.Errorf("job %d error = %q, want a handshake rejection", i, r.Err)
		}
	}
}

// A graceful drain must let an in-flight job finish and deliver its
// response before Serve returns.
func TestTCPDrainDeliversInFlightResponse(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, lis, ServeConfig{
			Capacity: 1,
			Run: func(key string, _ json.RawMessage) Result {
				close(started)
				time.Sleep(100 * time.Millisecond)
				return Result{Key: key, Sim: fl.Result{ControllerOverheadSec: 42}}
			},
		})
	}()
	tr := &TCPTransport{Addr: lis.Addr().String()}
	conn, err := tr.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SendBatch([]WireRequest{{Key: "k0", Spec: json.RawMessage(`{}`)}}); err != nil {
		t.Fatal(err)
	}
	<-started
	cancel() // SIGTERM equivalent: drain begins while the job runs
	resp, err := conn.Recv()
	if err != nil || resp.Key != "k0" || resp.Result.Sim.ControllerOverheadSec != 42 {
		t.Errorf("in-flight response lost during drain: %+v, %v", resp, err)
	}
	_ = conn.Close()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("Serve returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Serve did not return after drain")
	}
}

// With a reply timeout configured, a worker that accepts a job and
// never answers must fail the session instead of hanging the batch.
func TestTCPReplyTimeout(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	hello := jsonFrame(t, WireHello{Hello: true, Proto: ProtoVersion, KeyVersion: keyVersion, Capacity: 1})
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			// Hello, then silence: accept requests, answer nothing.
			_, _ = io.WriteString(nc, hello)
		}
	}()
	c := NewCoordinator(ProcConfig{},
		&TCPTransport{Addr: lis.Addr().String(), ReplyTimeout: 100 * time.Millisecond})
	start := time.Now()
	results := c.Run(specJobs(1), nil)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung worker stalled the batch for %v", elapsed)
	}
	if !strings.Contains(results[0].Err, "worker shard failed after retry") {
		t.Errorf("result = %+v, want a shard failure after the reply timeout", results[0])
	}
}

// Results from a worker that does not share the coordinator's cache
// directory must be persisted by the coordinator's executor, so a warm
// rerun is hit-only even when the remote pools cache elsewhere.
func TestExecutorPersistsResultsFromForeignCacheWorkers(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The pool advertises no cache directory while the coordinator has
	// one — the pre-transport coordinator would have assumed sharing
	// and skipped its own writes.
	addr, shutdown := tcpServe(t, 2, "")
	jobs := specJobs(5)
	cold := NewExecutorBackend(NewProcBackend(ProcConfig{Workers: []string{addr}, CacheDir: dir}), cache)
	first := cold.RunAll(jobs)
	if st := cold.Stats(); st.Runs != int64(len(jobs)) || st.Hits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	// Warm rerun with every endpoint gone: hits must carry the batch.
	warm := NewExecutorBackend(NewProcBackend(ProcConfig{Workers: []string{addr}, CacheDir: dir}), cache)
	second := warm.RunAll(jobs)
	if st := warm.Stats(); st.Runs != 0 || st.Hits != int64(len(jobs)) {
		t.Errorf("warm stats = %+v, want all hits with the worker pool gone", st)
	}
	for i := range jobs {
		if !second[i].Cached || second[i].Sim.ControllerOverheadSec != first[i].Sim.ControllerOverheadSec {
			t.Errorf("warm result %d not served from cache: %+v", i, second[i])
		}
	}
}
