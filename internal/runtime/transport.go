package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fedgpo/internal/runtime/wire"
)

// ProtoVersion is the wire protocol both sides of a session must speak.
// Every frame in either direction is a wire-package frame (length
// prefix plus DEFLATE-compressed payload): the worker's first frame is
// its JSON WireHello, and every later frame is a binary envelope —
// request batches toward the worker, one response per frame back.
// There is no negotiation: the coordinator rejects a hello naming any
// other version at Dial, exactly as it rejects a cache-key mismatch.
// Bump it whenever either side's framing or envelope fields change
// meaning, or the cache entry format (cacheMagic) changes: a worker
// sharing the coordinator's cache directory publishes entries the
// coordinator must be able to read. Protocol 8 is protocol 7 with
// binary envelopes; protocol 9 is protocol 8 with FGC3 cache entries;
// protocol 10 is protocol 9 with Result payloads that leave out the
// derived fl.Outcome; protocol 11 is protocol 10 with pretrain
// snapshots shipped and cached in their binary form
// (core.Snapshot.AppendBinary) instead of JSON.
const ProtoVersion = 11

// framedSince is the first protocol whose hello is a frame; a worker
// built before it opens with a bare JSON line.
const framedSince = 6

// WireHello is the first frame of every wire session, sent by the
// worker the moment the session opens — before any request arrives.
// The coordinator validates it during Dial: a protocol or key-version
// mismatch rejects the endpoint outright, because a worker computing
// results under a different cache-key scheme would publish them into
// the shared cache under keys this coordinator trusts.
type WireHello struct {
	// Hello marks the frame; it is always true (a frame without it is
	// not a handshake — most likely a non-worker process on the far
	// side).
	Hello bool `json:"hello"`
	// Proto is the worker's wire-protocol version (ProtoVersion).
	Proto int `json:"proto"`
	// KeyVersion is the worker's cache-key scheme version (keyVersion in
	// job.go). Coordinator and worker must agree or cached results
	// written by one are semantically wrong for the other.
	KeyVersion string `json:"keyVersion"`
	// Capacity is how many wire sessions the worker pool serves
	// concurrently. The coordinator opens that many sessions.
	Capacity int `json:"capacity"`
	// CacheDir is the worker's run-cache directory ("" when the worker
	// caches in memory only). When it names the same directory as the
	// coordinator's, results arriving over this session are already
	// persisted and the coordinator skips re-writing them.
	CacheDir string `json:"cacheDir,omitempty"`
}

// Conn is one established wire session to a worker: hello already
// read and validated, request batches and responses flowing as frames.
// A Conn is used by one coordinator session loop at a time and need not
// be safe for concurrent use. Close releases the session's resources.
type Conn interface {
	// Hello returns the worker's validated handshake frame.
	Hello() WireHello
	// SendBatch writes one request envelope frame carrying reqs.
	SendBatch(reqs []WireRequest) error
	// Recv reads the next response envelope frame. Workers answer
	// every request in order, each in its own frame as it finishes.
	Recv() (WireResponse, error)
	// Close ends the session.
	Close() error
}

// WireStatser is implemented by sessions that meter raw bytes moved on
// the wire (the hello frame included). The coordinator folds the
// totals into its per-endpoint stats.
type WireStatser interface {
	WireStats() (sent, recv int64)
}

// Transport dials wire sessions to one worker endpoint. Everything
// above Dial — work distribution, in-flight tracking, retry — lives in
// the coordinator; TCPTransport is the production implementation, and
// tests substitute in-process ones. The coordinator learns how many
// sessions to run against an endpoint from the capacity advertised in
// the hello of a first (probe) session.
type Transport interface {
	// Name identifies the endpoint in errors and per-endpoint stats
	// (e.g. "tcp:host:port").
	Name() string
	// Dial opens one wire session, performing and validating the hello
	// handshake before returning.
	Dial() (Conn, error)
}

// deadlineReader is implemented by connections that support read
// deadlines (net.Conn); wireConn uses it to bound Recv when the
// transport carries a reply timeout. Other streams (in-process pipes)
// block until they close.
type deadlineReader interface {
	SetReadDeadline(t time.Time) error
}

// countReader / countWriter meter the raw bytes a session moves, so
// WireStats covers the hello and every frame.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// wireConn is the coordinator side of a wire session over any
// reader/writer pair.
type wireConn struct {
	hello   WireHello
	cr      *countReader
	cw      *countWriter
	rawRead any // the original read side, checked for deadlineReader
	timeout time.Duration
	closer  func() error
	frames  int    // frames read so far, for frame-indexed errors
	sendBuf []byte // request payload buffer, reused across frames
}

// newWireConn wraps an open byte stream into a wire session: it reads
// and validates the worker's hello frame and returns the ready Conn.
// closer runs exactly once, on Close (or right away when the handshake
// fails).
func newWireConn(r io.Reader, w io.Writer, timeout time.Duration, closer func() error) (Conn, error) {
	c := &wireConn{
		cr:      &countReader{r: r},
		cw:      &countWriter{w: w},
		rawRead: r,
		timeout: timeout,
		closer:  closer,
	}
	if err := c.handshake(); err != nil {
		if closer != nil {
			_ = closer()
		}
		return nil, err
	}
	return c, nil
}

// handshake reads and validates the worker's hello frame. A stream
// that does not open with a frame — a worker built before framedSince
// writes a bare JSON hello, whose first bytes decode as a length prefix
// far above wire.MaxFrameBytes — fails the prefix check before any
// body is allocated.
func (c *wireConn) handshake() error {
	if err := c.setRecvDeadline(); err != nil {
		return err
	}
	c.frames++
	payload, _, err := wire.ReadFrame(c.cr, c.frames)
	if err != nil {
		return fmt.Errorf("runtime: transport handshake: reading hello (worker built before protocol %d, or not a worker?): %w", framedSince, err)
	}
	var h WireHello
	if err := json.Unmarshal(payload, &h); err != nil || !h.Hello {
		return fmt.Errorf("runtime: transport handshake: first frame is not a hello")
	}
	if h.Proto != ProtoVersion {
		return fmt.Errorf("runtime: transport handshake: worker speaks wire protocol %d, coordinator %d", h.Proto, ProtoVersion)
	}
	if h.KeyVersion != keyVersion {
		return fmt.Errorf("runtime: transport handshake: worker cache-key scheme %q, coordinator %q — results would poison the shared cache", h.KeyVersion, keyVersion)
	}
	if h.Capacity < 1 {
		h.Capacity = 1
	}
	c.hello = h
	return nil
}

// setRecvDeadline arms the read deadline for the next frame when the
// connection supports one and a timeout is configured.
func (c *wireConn) setRecvDeadline() error {
	dr, ok := c.rawRead.(deadlineReader)
	if !ok || c.timeout <= 0 {
		return nil
	}
	return dr.SetReadDeadline(time.Now().Add(c.timeout))
}

// Hello returns the validated handshake frame.
func (c *wireConn) Hello() WireHello { return c.hello }

// WireStats returns the session's cumulative raw bytes written and
// read, hello included.
func (c *wireConn) WireStats() (sent, recv int64) { return c.cw.n, c.cr.n }

// SendBatch writes one request envelope frame.
func (c *wireConn) SendBatch(reqs []WireRequest) error {
	c.sendBuf = appendRequests(c.sendBuf[:0], reqs)
	_, err := wire.WriteFrame(c.cw, c.sendBuf)
	return err
}

// Recv reads one response envelope frame, bounded by the transport's
// reply timeout when the connection supports deadlines.
func (c *wireConn) Recv() (WireResponse, error) {
	if err := c.setRecvDeadline(); err != nil {
		return WireResponse{}, err
	}
	c.frames++
	payload, _, err := wire.ReadFrame(c.cr, c.frames)
	if err != nil {
		return WireResponse{}, err
	}
	var resp WireResponse
	if err := resp.unmarshalBinary(payload); err != nil {
		return WireResponse{}, fmt.Errorf("runtime: response envelope (frame %d): %w", c.frames, err)
	}
	return resp, nil
}

// Close ends the session.
func (c *wireConn) Close() error {
	if c.closer == nil {
		return nil
	}
	return c.closer()
}
