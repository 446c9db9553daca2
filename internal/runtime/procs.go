package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"fedgpo/internal/runtime/wire"
	"fedgpo/internal/telemetry"
)

// WireRequest is one job dispatched to a worker: the canonical key it
// is addressed by plus the serialized spec the worker reconstructs it
// from (Job.Payload).
type WireRequest struct {
	Key  string          `json:"key"`
	Spec json.RawMessage `json:"spec"`
	// Snaps pre-pushes the encoded pretrain snapshot the coordinator
	// pools for this job's Job.SnapshotKey, when the worker pool is not
	// known to hold it: the worker installs it before running, so a cell
	// dispatched away from the snapshot's builder deserializes it
	// instead of re-running the warm-up. Purely an optimization — an
	// ignored or failed install re-warms to the identical snapshot.
	Snaps []SnapshotArtifact `json:"snaps,omitempty"`
}

// WireResponse is a worker's reply to one WireRequest, in request
// order. Cached travels beside the result because Result.Cached is
// deliberately not part of the result's binary form.
type WireResponse struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
	Cached bool   `json:"cached,omitempty"`
	// Metrics is the worker's per-job telemetry snapshot. Like Cached
	// it travels beside the result because Result.Telemetry is not part
	// of the result's binary form — cached bytes must not depend on
	// whether telemetry was recorded. The coordinator folds it into its
	// own collector, so remote pools are as observable as local ones.
	Metrics *telemetry.Metrics `json:"metrics,omitempty"`
	// Snaps returns pretrain snapshots this job's execution built from
	// scratch (Result.Snaps, also outside the result's binary form).
	// The coordinator pools and persists them, which frees the rest of
	// the batch's jobs reading that snapshot to run on any endpoint,
	// and pre-pushes them with those requests.
	Snaps []SnapshotArtifact `json:"snaps,omitempty"`
}

// WorkerOptions parameterizes the worker half of a wire session.
type WorkerOptions struct {
	// Capacity is the concurrency advertised in the hello frame (<= 1
	// advertises 1).
	Capacity int
	// Install, when non-nil, installs a coordinator-pushed snapshot
	// artifact (WireRequest.Snaps) into the worker's pretrain cache
	// before the request that carried it runs. Best effort: an install
	// failure is ignored — the worker just re-warms, producing the
	// identical snapshot.
	Install func(key string, data []byte) error
}

// ServeSession runs one worker wire session: it writes the hello
// frame, then serves request envelope frames from r until EOF. Every
// frame carries one request, which runs before the next frame is read
// and is answered with one response frame. Before the request runs,
// the worker installs the snapshot artifacts it carries; snapshots the
// job built from scratch return with its response. A malformed frame
// fails the session with the offending frame's index in the error
// (request frames count from 1). run must not panic — job-level
// failures belong in Result.Err (the worker binary routes execution
// through an Executor, which isolates them).
func ServeSession(r io.Reader, w io.Writer, run func(key string, spec json.RawMessage) Result, opt WorkerOptions) error {
	if opt.Capacity < 1 {
		opt.Capacity = 1
	}
	hello, err := json.Marshal(WireHello{
		Hello: true, Proto: ProtoVersion, KeyVersion: keyVersion,
		Capacity: opt.Capacity,
	})
	if err == nil {
		_, err = wire.WriteFrame(w, hello)
	}
	if err != nil {
		return fmt.Errorf("runtime: worker hello: %w", err)
	}
	var out []byte // response payload buffer, reused across frames
	for frame := 1; ; frame++ {
		payload, _, err := wire.ReadFrame(r, frame)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// wire errors are already frame-indexed.
			return fmt.Errorf("runtime: worker read: %w", err)
		}
		var req WireRequest
		if err := req.unmarshalBinary(payload); err != nil {
			return fmt.Errorf("runtime: worker decode (frame %d): %w", frame, err)
		}
		if opt.Install != nil {
			for _, sa := range req.Snaps {
				// Best effort: a failed install just means this
				// process re-warms, producing the identical snapshot.
				_ = opt.Install(sa.Key, sa.Data)
			}
		}
		res := run(req.Key, req.Spec)
		resp := WireResponse{Key: req.Key, Result: res, Cached: res.Cached, Metrics: res.Telemetry, Snaps: res.Snaps}
		if out, err = resp.appendBinary(out[:0]); err != nil {
			return fmt.Errorf("runtime: worker encode (frame %d): %w", frame, err)
		}
		if _, err := wire.WriteFrame(w, out); err != nil {
			return fmt.Errorf("runtime: worker write (frame %d): %w", frame, err)
		}
	}
}

// ProcConfig parameterizes the shard coordinator.
type ProcConfig struct {
	// Workers lists the TCP worker pools (fedgpo-worker -listen
	// host:port) to dispatch jobs to.
	Workers []string
	// Route is read by nothing; it stays so existing ProcConfig
	// literals keep compiling.
	//
	// Deprecated: ignored; the coordinator has one dispatch queue.
	Route string
	// InnerParallel is read by nothing; it stays so existing ProcConfig
	// literals keep compiling.
	//
	// Deprecated: ignored; rounds always run serially inside a worker.
	InnerParallel int
}

// EndpointStats is one endpoint's entry in the coordinator's
// collector. It is an alias of telemetry.Endpoint, kept under this
// name because the benchmark module names it.
type EndpointStats = telemetry.Endpoint

// EndpointStatser is implemented by backends that track per-endpoint
// dispatch counters. Nothing in this module consumes it; the
// benchmark module names it.
type EndpointStatser interface {
	EndpointStats() []EndpointStats
}

// endpoint is one worker endpoint under the coordinator: a transport
// plus its learned capacity. Its counters live in the coordinator's
// collector, under name.
type endpoint struct {
	transport Transport
	name      string // transport.Name(), resolved once
	// capacity is the endpoint's session count, learned from the hello
	// (1 until first probed). Guarded by the coordinator's mutex.
	capacity int
	// known tracks snapshot keys the worker pool behind this endpoint
	// is known to hold, so the coordinator pushes each artifact at most
	// once per pool: every session of an endpoint talks to the same
	// process. Guarded by the coordinator's mutex.
	known map[string]bool
}

// Coordinator executes batches across worker endpoints behind
// Transports (TCPTransport in production). Every endpoint's sessions
// pull each batch from one dispatchQueue, so a slow or remote endpoint
// never straggles the whole batch, and a job reading a pretrain
// snapshot waits for that snapshot rather than warm it up twice. Each
// session has a retry budget of one: a session failure (crashed
// worker, dropped connection, truncated or out-of-order output)
// re-dials and resends only the unanswered in-flight job; a session
// whose budget runs out hands that job back to the fleet, so a dead
// endpoint degrades capacity, not correctness. Jobs still unanswered
// when every session has exhausted its budget yield error results.
type Coordinator struct {
	endpoints []*endpoint
	col       *telemetry.Collector
	cache     *Cache

	mu      sync.Mutex
	lastErr error

	// snapMu guards snaps, the in-memory pool of snapshot artifacts
	// returned by workers this process lifetime. It is a dedicated lock
	// because the queue's pooled callback reads it while holding the
	// queue lock.
	snapMu sync.Mutex
	snaps  map[string][]byte
}

// SetCollector replaces the coordinator's collector (col must be
// non-nil) and lists every endpoint in it with zero counts, so a run
// that never dials still reports its fleet. The coordinator records
// each endpoint's dispatch counters and latency (request Send to
// response Recv, so a cell's worker-side execution time is included)
// there and nowhere else.
func (c *Coordinator) SetCollector(col *telemetry.Collector) {
	c.col = col
	for _, ep := range c.endpoints {
		col.CountEndpoint(ep.name, func(*telemetry.Endpoint) {})
	}
}

// SetCache attaches the coordinator's run cache so snapshot artifacts
// returned by workers are persisted under their own keys — a later
// cold run warm-starts from disk. A nil cache disables
// persistence; artifacts still ship fleet-wide from the in-memory
// pool for the coordinator's lifetime. Call before Run.
func (c *Coordinator) SetCache(cache *Cache) { c.cache = cache }

// NewProcBackend returns a shard coordinator for cfg: one TCP endpoint
// per cfg.Workers address. Construction performs no I/O; endpoints are
// dialed per batch.
func NewProcBackend(cfg ProcConfig) *Coordinator {
	transports := make([]Transport, len(cfg.Workers))
	for i, addr := range cfg.Workers {
		transports[i] = &TCPTransport{Addr: addr}
	}
	return NewCoordinator(transports...)
}

// NewCoordinator returns a coordinator over explicit transports —
// the constructor behind NewProcBackend, exposed for custom endpoint
// fleets and transport-level tests. It records into a collector of its
// own until SetCollector supplies one.
func NewCoordinator(transports ...Transport) *Coordinator {
	c := &Coordinator{}
	for _, t := range transports {
		c.endpoints = append(c.endpoints, &endpoint{
			transport: t,
			name:      t.Name(),
			capacity:  1, // refined by the first hello
		})
	}
	c.SetCollector(telemetry.NewCollector())
	return c
}

// Workers returns the fleet's total session capacity as advertised in
// the endpoints' hellos (each counted as 1 until its first batch).
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, ep := range c.endpoints {
		total += ep.capacity
	}
	if total < 1 {
		total = 1
	}
	return total
}

// EndpointStats reads the endpoint entries out of one snapshot of the
// coordinator's collector, sorted by endpoint name.
func (c *Coordinator) EndpointStats() []EndpointStats { return c.col.Snapshot().Endpoints }

// snapshotData returns the pooled artifact bytes for key, or nil.
func (c *Coordinator) snapshotData(key string) []byte {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return c.snaps[key]
}

// hasSnapshot reports whether the coordinator holds a shippable
// artifact for key — the queue's gate for sending a job reading it to
// an endpoint other than the snapshot's builder.
func (c *Coordinator) hasSnapshot(key string) bool { return c.snapshotData(key) != nil }

// storeSnapshot pools a worker-returned artifact and persists it to
// the coordinator's cache under its own key.
func (c *Coordinator) storeSnapshot(sa SnapshotArtifact) {
	if sa.Key == "" || len(sa.Data) == 0 {
		return
	}
	c.snapMu.Lock()
	if c.snaps == nil {
		c.snaps = make(map[string][]byte)
	}
	_, seen := c.snaps[sa.Key]
	c.snaps[sa.Key] = sa.Data
	c.snapMu.Unlock()
	if !seen && c.cache != nil {
		// Data is the exact payload a local warm-up would have cached,
		// stored as it is, so the disk entry is byte-identical either
		// way.
		c.cache.Put(sa.Key, sa.Data)
	}
}

// snapKnown reports whether the worker pool behind ep is known to hold
// the snapshot for key; markSnapKnown records that it now does (pushed
// to it, built by it, or warmed for one of its jobs).
func (c *Coordinator) snapKnown(ep *endpoint, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ep.known[key]
}

func (c *Coordinator) markSnapKnown(ep *endpoint, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ep.known == nil {
		ep.known = make(map[string]bool)
	}
	ep.known[key] = true
}

// Run executes the batch across the endpoint fleet; see Backend.Run.
func (c *Coordinator) Run(jobs []Job, done func(int, Result)) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	// Canonical keys are resolved exactly once per job here — sends,
	// response validation and error annotation all read the slice
	// instead of re-joining the key per use — built into one reused
	// buffer so assembly itself allocates nothing.
	keys := make([]string, len(jobs))
	var keyBuf []byte
	for i, j := range jobs {
		keyBuf = j.AppendKey(keyBuf[:0])
		keys[i] = string(keyBuf)
	}
	idxs := make([]int, 0, len(jobs))
	for i, j := range jobs {
		// A job with no serialized spec cannot cross the process
		// boundary; that is a programming error on the batch builder,
		// surfaced per job rather than by panicking the batch.
		if len(j.Payload) == 0 {
			results[i] = Result{Key: keys[i], Err: "runtime: job has no spec payload; the coordinator requires spec-built jobs"}
			if done != nil {
				done(i, results[i])
			}
			continue
		}
		idxs = append(idxs, i)
	}
	if len(idxs) == 0 {
		return results
	}
	if len(c.endpoints) == 0 {
		for _, i := range idxs {
			results[i] = Result{Key: keys[i], Err: "runtime: no worker endpoints available"}
			if done != nil {
				done(i, results[i])
			}
		}
		return results
	}
	queue := newDispatchQueue(jobs, idxs, len(c.endpoints), c.hasSnapshot)

	var wg sync.WaitGroup
	for epi, ep := range c.endpoints {
		wg.Add(1)
		go func(epi int, ep *endpoint) {
			defer wg.Done()
			// Releasing the endpoint's snapshot claims on exit — sessions
			// crashed out or batch done — is the queue's liveness
			// guarantee: another endpoint may then build those keys.
			defer queue.endpointDone(epi)
			c.runEndpoint(epi, ep, jobs, keys, queue, results, done)
		}(epi, ep)
	}
	wg.Wait()

	// Jobs still queued here were abandoned by every session — the
	// whole fleet exhausted its retry budget first.
	c.mu.Lock()
	lastErr := c.lastErr
	c.mu.Unlock()
	if lastErr == nil {
		lastErr = fmt.Errorf("no worker endpoints available")
	}
	for _, i := range queue.abandoned() {
		results[i] = Result{Key: keys[i], Err: fmt.Sprintf("runtime: worker shard failed after retry: %v", lastErr)}
		if done != nil {
			done(i, results[i])
		}
	}
	return results
}

// runEndpoint drives one endpoint through a batch: it dials a probe
// session to learn the session count from the hello, then runs the
// sessions until the queue drains or every session's retry budget is
// spent.
func (c *Coordinator) runEndpoint(epi int, ep *endpoint, jobs []Job, keys []string, queue *dispatchQueue, results []Result, done func(int, Result)) {
	// Dial the probe with the same retry budget a session gets.
	var probe Conn
	var err error
	for attempt := 0; attempt < 2 && probe == nil; attempt++ {
		if probe, err = ep.transport.Dial(); err != nil {
			c.noteSessionFailure(ep, attempt > 0, err)
		}
	}
	if probe == nil {
		return
	}
	sessions := probe.Hello().Capacity
	c.mu.Lock()
	ep.capacity = sessions
	c.mu.Unlock()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		conn := probe
		probe = nil
		wg.Add(1)
		go func(conn Conn) {
			defer wg.Done()
			c.runSession(epi, ep, conn, jobs, keys, queue, results, done)
		}(conn)
	}
	wg.Wait()
}

// runSession drives one endpoint session: pull a job from the queue,
// send it, read its response, repeat. Dialing is lazy — no session
// beyond the probe connects until it actually holds a job. A session
// failure re-dials once and resends the one in-flight job (answered
// jobs are never resent); when the retry budget is spent the session
// gives its in-flight job back to the fleet — a surviving endpoint
// absorbs it, and only a fleet with no session left turns it into an
// error result (the batch drain).
func (c *Coordinator) runSession(epi int, ep *endpoint, conn Conn, jobs []Job, keys []string, queue *dispatchQueue, results []Result, done func(int, Result)) {
	inFlight := -1 // job index carried across a retry, or -1
	failures := 0
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		if inFlight < 0 {
			// Pop before dialing, so an idle session never connects.
			i, ok := queue.pop(epi)
			if !ok {
				return // batch finished
			}
			inFlight = i
		}
		if failures >= 2 {
			// Retry budget spent: hand the unanswered job back.
			queue.requeue(inFlight)
			c.col.CountEndpoint(ep.name, func(s *telemetry.Endpoint) { s.Failed++ })
			return
		}
		if conn == nil {
			var err error
			if conn, err = ep.transport.Dial(); err != nil {
				failures++
				c.noteSessionFailure(ep, failures > 1, err)
				continue
			}
		}
		var err error
		if inFlight, err = c.pump(epi, ep, conn, inFlight, jobs, keys, queue, results, done); err == nil {
			return // queue drained through this session
		} else {
			failures++
			c.noteSessionFailure(ep, failures > 1, err)
			_ = conn.Close()
			conn = nil
		}
	}
}

// pump streams jobs through one established session until the batch
// finishes or the session fails, starting with job i. Each iteration
// sends one request frame and finalizes its response; a failure
// returns the in-flight job for a resend, so a job a dying worker
// already answered is never re-run. The pump also pre-pushes pooled
// snapshot artifacts with requests whose worker isn't known to hold
// them, and pools artifacts the responses return.
func (c *Coordinator) pump(epi int, ep *endpoint, conn Conn, i int, jobs []Job, keys []string, queue *dispatchQueue, results []Result, done func(int, Result)) (int, error) {
	ws, _ := conn.(WireStatser)
	var lastSent, lastRecv int64 // 0,0 so the first delta includes the handshake
	for {
		req := WireRequest{Key: keys[i], Spec: jobs[i].Payload}
		var pushed int64
		sk := jobs[i].SnapshotKey
		if sk != "" && !c.snapKnown(ep, sk) {
			if data := c.snapshotData(sk); data != nil {
				req.Snaps = []SnapshotArtifact{{Key: sk, Data: data}}
				pushed = int64(len(data))
			}
		}
		sent := time.Now()
		if err := conn.Send(req); err != nil {
			// Nothing is marked known yet, so the resent request
			// carries its snapshot again.
			return i, fmt.Errorf("sending %q: %w", keys[i], err)
		}
		if pushed > 0 {
			c.markSnapKnown(ep, sk)
		}
		c.col.CountEndpoint(ep.name, func(s *telemetry.Endpoint) {
			s.Dispatched++
			s.Frames++
			s.Specs++
			s.SnapBytesSent += pushed
		})
		resp, err := conn.Recv()
		if err != nil {
			return i, fmt.Errorf("worker reply for %q: %w", keys[i], err)
		}
		if resp.Key != keys[i] {
			return i, fmt.Errorf("worker replied out of order: got %q, want %q", resp.Key, keys[i])
		}
		c.col.RecordLatency(ep.name, time.Since(sent))
		r := resp.Result
		r.Cached = resp.Cached
		r.Telemetry = resp.Metrics
		for _, sa := range resp.Snaps {
			c.storeSnapshot(sa)
			c.markSnapKnown(ep, sa.Key)
		}
		// A finished job reading a snapshot means the worker pool now
		// holds that snapshot in memory — no need to ever push it
		// there.
		if sk != "" && r.Err == "" {
			c.markSnapKnown(ep, sk)
		}
		results[i] = r
		if done != nil {
			done(i, r)
		}
		queue.finalize()
		if len(resp.Snaps) > 0 {
			// A pooled snapshot frees its jobs for every endpoint;
			// re-wake sessions idling for eligible work.
			queue.wake()
		}
		if ws != nil {
			s, rv := ws.WireStats()
			c.col.CountEndpoint(ep.name, func(st *telemetry.Endpoint) {
				st.BytesSent += s - lastSent
				st.BytesRecv += rv - lastRecv
			})
			lastSent, lastRecv = s, rv
		}
		var ok bool
		if i, ok = queue.pop(epi); !ok {
			return -1, nil
		}
	}
}

// noteSessionFailure records a failed session attempt: the fleet-wide
// last error (used to annotate jobs no endpoint could take) and, for
// retry attempts, the endpoint's retry counter.
func (c *Coordinator) noteSessionFailure(ep *endpoint, wasRetry bool, err error) {
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
	if !wasRetry {
		c.col.CountEndpoint(ep.name, func(s *telemetry.Endpoint) { s.Retried++ })
	}
}
