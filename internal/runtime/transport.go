package runtime

import (
	"encoding/json"
	"fmt"
	"io"

	"fedgpo/internal/runtime/wire"
)

// ProtoVersion is the wire protocol both sides of a session must speak.
// Every frame in either direction is a wire-package frame (length
// prefix plus raw payload): the worker's first frame is its JSON
// WireHello, and every later frame is a binary envelope — one request
// per frame toward the worker, one response per frame back. There is
// no negotiation: the coordinator rejects a hello naming any other
// version at Dial, exactly as it rejects a cache-key mismatch. Bump it
// whenever either side's framing or envelope fields change meaning, or
// the result payload a response carries (Result.AppendBinary) changes.
// Protocol 12 is protocol 11 with raw frames and
// one request per frame; a protocol-11 worker's DEFLATE-framed hello
// does not decode as a hello and is refused.
const ProtoVersion = 12

// WireHello is the first frame of every wire session, sent by the
// worker the moment the session opens — before any request arrives.
// The coordinator validates it during Dial: a protocol or key-version
// mismatch rejects the endpoint outright, because the coordinator
// caches every result a worker returns under its own keys, and a worker
// computing under a different cache-key scheme would store wrong
// results under keys this coordinator trusts. A hello field this
// coordinator does not know (an older worker's cacheDir) is ignored.
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
}

// Conn is one established wire session to a worker: hello already
// read and validated, requests and responses flowing as frames.
// A Conn is used by one coordinator session loop at a time and need not
// be safe for concurrent use. Close releases the session's resources.
type Conn interface {
	// Hello returns the worker's validated handshake frame.
	Hello() WireHello
	// Send writes one request envelope frame carrying req.
	Send(req WireRequest) error
	// Recv reads the next response envelope frame. Workers answer
	// every request in order, each in its own frame.
	Recv() (WireResponse, error)
	// Close ends the session.
	Close() error
}

// WireStatser is implemented by sessions that meter raw bytes moved on
// the wire (the hello frame included). The coordinator counts the
// totals into the endpoint's collector entry.
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
	closer  func() error
	frames  int    // frames read so far, for frame-indexed errors
	sendBuf []byte // request payload buffer, reused across frames
}

// newWireConn wraps an open byte stream into a wire session: it reads
// and validates the worker's hello frame and returns the ready Conn.
// closer runs exactly once, on Close (or right away when the handshake
// fails).
func newWireConn(r io.Reader, w io.Writer, closer func() error) (Conn, error) {
	c := &wireConn{
		cr:     &countReader{r: r},
		cw:     &countWriter{w: w},
		closer: closer,
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
// that does not open with a frame — a bare JSON line, whose first bytes
// decode as a length prefix far above wire.MaxFrameBytes — fails the
// prefix check before any body is allocated.
func (c *wireConn) handshake() error {
	c.frames++
	payload, _, err := wire.ReadFrame(c.cr, c.frames)
	if err != nil {
		return fmt.Errorf("runtime: transport handshake: reading hello (not a worker?): %w", err)
	}
	var h WireHello
	if err := json.Unmarshal(payload, &h); err != nil || !h.Hello {
		return fmt.Errorf("runtime: transport handshake: first frame is not a hello")
	}
	if h.Proto != ProtoVersion {
		return fmt.Errorf("runtime: transport handshake: worker speaks wire protocol %d, coordinator %d", h.Proto, ProtoVersion)
	}
	if h.KeyVersion != keyVersion {
		return fmt.Errorf("runtime: transport handshake: worker cache-key scheme %q, coordinator %q — its results would poison the cache", h.KeyVersion, keyVersion)
	}
	if h.Capacity < 1 {
		h.Capacity = 1
	}
	c.hello = h
	return nil
}

// Hello returns the validated handshake frame.
func (c *wireConn) Hello() WireHello { return c.hello }

// WireStats returns the session's cumulative raw bytes written and
// read, hello included.
func (c *wireConn) WireStats() (sent, recv int64) { return c.cw.n, c.cr.n }

// Send writes one request envelope frame.
func (c *wireConn) Send(req WireRequest) error {
	c.sendBuf = req.appendBinary(c.sendBuf[:0])
	_, err := wire.WriteFrame(c.cw, c.sendBuf)
	return err
}

// Recv reads one response envelope frame, blocking until it arrives
// or the connection dies.
func (c *wireConn) Recv() (WireResponse, error) {
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
