package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
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
	// CacheDir is the worker's run-cache directory, advertised in the
	// hello so a coordinator sharing it can skip redundant cache writes.
	CacheDir string
	// Install, when non-nil, installs a coordinator-pushed snapshot
	// artifact (WireRequest.Snaps) into the worker's pretrain cache
	// before the request that carried it runs. Best effort: an install
	// failure is ignored — the worker just re-warms, producing the
	// identical snapshot.
	Install func(key string, data []byte) error
}

// ServeSession runs one worker wire session: it writes the hello
// frame, then serves request envelope frames from r until EOF. The
// requests of a frame run in order, and every finished spec is
// answered immediately with its own response frame. Requests batch to
// amortize dispatch; responses stream so a worker death mid-batch only
// costs the specs it had not yet answered. Before each request runs,
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
		Capacity: opt.Capacity, CacheDir: opt.CacheDir,
	})
	if err == nil {
		_, err = wire.WriteFrame(w, hello)
	}
	if err != nil {
		return fmt.Errorf("runtime: worker hello: %w", err)
	}
	var out []byte // response payload buffer, reused across specs
	for frame := 1; ; frame++ {
		payload, _, err := wire.ReadFrame(r, frame)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// wire errors are already frame-indexed.
			return fmt.Errorf("runtime: worker read: %w", err)
		}
		reqs, err := decodeRequests(payload)
		if err != nil {
			return fmt.Errorf("runtime: worker decode (frame %d): %w", frame, err)
		}
		if len(reqs) == 0 {
			return fmt.Errorf("runtime: worker decode (frame %d): empty request envelope", frame)
		}
		for _, req := range reqs {
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
}

// ProcConfig parameterizes the shard coordinator.
type ProcConfig struct {
	// Workers lists the TCP worker pools (fedgpo-worker -listen
	// host:port) to dispatch jobs to.
	Workers []string
	// CacheDir is the coordinator's run-cache directory. Results from
	// any worker whose hello advertises this same directory are marked
	// Persisted, so the executor skips re-writing entries the worker
	// already published; results from workers with a different (or no)
	// cache directory are written by the coordinator as usual, which is
	// what keeps warm reruns hit-only even when the pools cache
	// elsewhere.
	CacheDir string
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

// EndpointStats is one endpoint's dispatch counters within a
// coordinator, snapshotted under a single lock.
type EndpointStats struct {
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
	// BytesSent / BytesRecv meter raw bytes moved on the endpoint's
	// sessions as seen from the coordinator's edge of the transport,
	// handshake frames included. Zero for sessions that don't meter
	// (scripted test conns).
	BytesSent int64 `json:"bytesSent,omitempty"`
	BytesRecv int64 `json:"bytesRecv,omitempty"`
	// Frames counts request frames sent; Specs counts the specs those
	// frames carried. Specs/Frames is the realized batch density, up to
	// the fair-share cap (see specsPerFrame).
	Frames int64 `json:"frames,omitempty"`
	Specs  int64 `json:"specs,omitempty"`
	// SnapBytesSent meters serialized snapshot bytes pre-pushed to this
	// endpoint.
	SnapBytesSent int64 `json:"snapBytesSent,omitempty"`
}

// EndpointStatser is implemented by backends that track per-endpoint
// dispatch counters; Executor.Stats folds them into its snapshot.
type EndpointStatser interface {
	EndpointStats() []EndpointStats
}

// endpoint is one worker endpoint under the coordinator: a transport
// plus its learned capacity and dispatch counters.
type endpoint struct {
	transport Transport
	// capacity is the endpoint's session count, learned from the hello
	// (1 until first probed). Guarded by the coordinator's mutex.
	capacity int
	stats    EndpointStats
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
// re-dials and resends only the unanswered in-flight jobs; a session
// whose budget runs out hands its jobs back to the fleet, so a dead
// endpoint degrades capacity, not correctness. Jobs still unanswered
// when every session has exhausted its budget yield error results.
type Coordinator struct {
	cfg       ProcConfig
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

// SetCollector attaches a telemetry collector. The coordinator records
// per-endpoint dispatch latency (request Send to response Recv, so a
// cell's worker-side execution time is included) plus retry and
// failover counters into it. A nil collector disables recording.
func (c *Coordinator) SetCollector(col *telemetry.Collector) { c.col = col }

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
	return NewCoordinator(cfg, transports...)
}

// NewCoordinator returns a coordinator over explicit transports —
// the constructor behind NewProcBackend, exposed for custom endpoint
// fleets and transport-level tests.
func NewCoordinator(cfg ProcConfig, transports ...Transport) *Coordinator {
	c := &Coordinator{cfg: cfg}
	for _, t := range transports {
		c.endpoints = append(c.endpoints, &endpoint{
			transport: t,
			capacity:  1, // refined by the first hello
			stats:     EndpointStats{Endpoint: t.Name()},
		})
	}
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

// EndpointStats snapshots the per-endpoint dispatch counters under one
// lock, sorted by endpoint name so every consumer — both -v summaries,
// the metrics JSON — prints the fleet in the same deterministic order.
func (c *Coordinator) EndpointStats() []EndpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EndpointStats, len(c.endpoints))
	for i, ep := range c.endpoints {
		out[i] = ep.stats
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

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
// the coordinator's cache under its own key. persisted marks artifacts
// from workers sharing the coordinator's cache directory, which
// already published them to disk themselves.
func (c *Coordinator) storeSnapshot(sa SnapshotArtifact, persisted bool) {
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
	if !seen && !persisted && c.cache != nil {
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

	totalCap := c.Workers()
	var wg sync.WaitGroup
	for epi, ep := range c.endpoints {
		wg.Add(1)
		go func(epi int, ep *endpoint) {
			defer wg.Done()
			// Releasing the endpoint's snapshot claims on exit — sessions
			// crashed out or batch done — is the queue's liveness
			// guarantee: another endpoint may then build those keys.
			defer queue.endpointDone(epi)
			c.runEndpoint(epi, ep, len(idxs), totalCap, jobs, keys, queue, results, done)
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

// maxSpecsPerFrame caps how many specs a session packs into one
// request frame, bounding both the frame size and the amount of work a
// single session failure requeues.
const maxSpecsPerFrame = 16

// specsPerFrame derives a session's frame batch size from the batch
// shape: each frame carries at most the session's fair share of the
// batch across the fleet's capacity, so batching never trades away the
// work queue's load balancing — a fleet that could run every cell
// concurrently still gets one spec per frame.
func specsPerFrame(batch, totalCap int) int {
	if totalCap < 1 {
		totalCap = 1
	}
	n := batch / totalCap
	if n < 1 {
		n = 1
	}
	if n > maxSpecsPerFrame {
		n = maxSpecsPerFrame
	}
	return n
}

// runEndpoint drives one endpoint through a batch: it dials a probe
// session to learn the session count from the hello, derives the
// sessions' frame size from the batch shape, and runs the sessions
// until the queue drains or every session's retry budget is spent.
func (c *Coordinator) runEndpoint(epi int, ep *endpoint, batch, totalCap int, jobs []Job, keys []string, queue *dispatchQueue, results []Result, done func(int, Result)) {
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
	grew := sessions - ep.capacity
	ep.capacity = sessions
	c.mu.Unlock()
	// Keep the frame-size derivation honest on the first batch: the
	// fleet estimate assumed capacity 1 for this endpoint.
	totalCap += grew
	specs := specsPerFrame(batch, totalCap)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		conn := probe
		probe = nil
		wg.Add(1)
		go func(conn Conn) {
			defer wg.Done()
			c.runSession(epi, ep, conn, specs, jobs, keys, queue, results, done)
		}(conn)
	}
	wg.Wait()
}

// runSession drives one endpoint session: pull work from the queue,
// send it, read the response, repeat. Dialing is lazy — no session
// beyond the probe connects until it actually holds a job. A
// session failure re-dials once and resends only the in-flight
// frame's unanswered tail (answered specs are never resent); when the
// retry budget is spent the session gives its in-flight jobs back to
// the fleet — a surviving endpoint absorbs them, and only a fleet with no
// session left turns them into error results (the batch drain).
func (c *Coordinator) runSession(epi int, ep *endpoint, conn Conn, specs int, jobs []Job, keys []string, queue *dispatchQueue, results []Result, done func(int, Result)) {
	var carried []int // in-flight frame's job indexes, carried across a retry
	failures := 0
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		if len(carried) == 0 {
			// Pop a single job before dialing: the frame is topped up to
			// the session's batch size inside pump.
			i, ok := queue.pop(epi)
			if !ok {
				return // batch finished
			}
			carried = []int{i}
		}
		if failures >= 2 {
			// Retry budget spent: hand the unanswered jobs back.
			queue.requeue(carried...)
			n := int64(len(carried))
			c.mu.Lock()
			ep.stats.Failed += n
			c.mu.Unlock()
			c.col.Count(func(cc *telemetry.Counters) { cc.Failovers += n })
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
		if carried, err = c.pump(epi, ep, conn, specs, carried, jobs, keys, queue, results, done); err == nil {
			return // queue drained through this session
		} else {
			failures++
			c.noteSessionFailure(ep, failures > 1, err)
			_ = conn.Close()
			conn = nil
		}
	}
}

// pump streams job frames through one established session until the
// batch finishes or the session fails. Each iteration moves one
// request frame of up to the endpoint's fair-share batch. Responses
// stream back per spec and are finalized as they arrive, in request
// order; a failure mid-frame returns only the unanswered tail for
// requeue, so specs a dying worker already answered are never re-run.
// The pump also pre-pushes pooled snapshot artifacts with requests
// whose worker isn't known to hold them, and pools artifacts the
// responses return.
func (c *Coordinator) pump(epi int, ep *endpoint, conn Conn, specs int, carried []int, jobs []Job, keys []string, queue *dispatchQueue, results []Result, done func(int, Result)) ([]int, error) {
	sharesCache := c.cfg.CacheDir != "" && conn.Hello().CacheDir == c.cfg.CacheDir
	// A worker sharing the coordinator's cache directory reads shipped
	// snapshots straight from disk, so pushing bytes at it is pure
	// waste; everyone else gets the artifact once per pool.
	shipSnaps := !sharesCache
	ws, _ := conn.(WireStatser)
	var lastSent, lastRecv int64 // 0,0 so the first delta includes the handshake
	for {
		frame := carried
		carried = nil
		if len(frame) == 0 {
			i, ok := queue.pop(epi)
			if !ok {
				return nil, nil
			}
			frame = []int{i}
		}
		if len(frame) < specs {
			frame = append(frame, queue.take(epi, specs-len(frame))...)
		}
		reqs := make([]WireRequest, len(frame))
		var shipped []string // snapshot keys this frame pushes
		var pushed int64
		for k, i := range frame {
			reqs[k] = WireRequest{Key: keys[i], Spec: jobs[i].Payload}
			if sk := jobs[i].SnapshotKey; shipSnaps && sk != "" && !slices.Contains(shipped, sk) && !c.snapKnown(ep, sk) {
				if data := c.snapshotData(sk); data != nil {
					reqs[k].Snaps = []SnapshotArtifact{{Key: sk, Data: data}}
					shipped = append(shipped, sk)
					pushed += int64(len(data))
				}
			}
		}
		sent := time.Now()
		if err := conn.SendBatch(reqs); err != nil {
			// Nothing is marked known yet, so the resent frame carries
			// its snapshots again.
			return frame, fmt.Errorf("sending %q: %w", keys[frame[0]], err)
		}
		for _, sk := range shipped {
			c.markSnapKnown(ep, sk)
		}
		c.mu.Lock()
		ep.stats.Dispatched += int64(len(frame))
		ep.stats.Frames++
		ep.stats.Specs += int64(len(frame))
		ep.stats.SnapBytesSent += pushed
		c.mu.Unlock()
		if pushed > 0 {
			c.col.Count(func(cc *telemetry.Counters) { cc.SnapshotBytesShipped += pushed })
		}
		// Responses stream back one per spec, in request order. Finalize
		// each as it arrives so a session death mid-frame costs only the
		// unanswered tail. Latency is measured from the frame send to
		// each spec's arrival, so the histogram's count keeps reconciling
		// with Dispatched.
		for answered, i := range frame {
			resp, err := conn.Recv()
			if err != nil {
				return frame[answered:], fmt.Errorf("worker reply for %q: %w", keys[i], err)
			}
			if resp.Key != keys[i] {
				return frame[answered:], fmt.Errorf("worker replied out of order: got %q, want %q", resp.Key, keys[i])
			}
			c.col.RecordLatency(ep.stats.Endpoint, time.Since(sent))
			r := resp.Result
			r.Cached = resp.Cached
			r.Telemetry = resp.Metrics
			for _, sa := range resp.Snaps {
				c.storeSnapshot(sa, sharesCache)
				c.markSnapKnown(ep, sa.Key)
			}
			// A finished job reading a snapshot means the worker pool now
			// holds that snapshot in memory — no need to ever push it
			// there.
			if sk := jobs[i].SnapshotKey; sk != "" && r.Err == "" {
				c.markSnapKnown(ep, sk)
			}
			// A worker sharing the coordinator's cache directory already
			// published the entry (best effort — a failed worker write
			// costs a future re-run, exactly like a failed coordinator
			// write); results from other workers are persisted by the
			// executor.
			r.Persisted = sharesCache && r.Err == ""
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
		}
		if ws != nil {
			s, rv := ws.WireStats()
			c.mu.Lock()
			ep.stats.BytesSent += s - lastSent
			ep.stats.BytesRecv += rv - lastRecv
			c.mu.Unlock()
			lastSent, lastRecv = s, rv
		}
	}
}

// noteSessionFailure records a failed session attempt: the fleet-wide
// last error (used to annotate jobs no endpoint could take) and, for
// retry attempts, the endpoint's retry counter.
func (c *Coordinator) noteSessionFailure(ep *endpoint, wasRetry bool, err error) {
	c.mu.Lock()
	c.lastErr = err
	retried := !wasRetry
	if retried {
		ep.stats.Retried++
	}
	c.mu.Unlock()
	if retried {
		c.col.Count(func(cc *telemetry.Counters) { cc.Retries++ })
	}
}
