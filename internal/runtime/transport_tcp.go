package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	stdruntime "runtime"
	"sync"
	"time"
)

// defaultDialTimeout bounds how long a TCP dial (TCP connect + hello)
// may take before the endpoint attempt is treated as failed.
const defaultDialTimeout = 10 * time.Second

// TCPTransport dials wire sessions to a worker pool started with
// `fedgpo-worker -listen host:port`. One TCP connection carries one
// wire session; the coordinator learns how many sessions to open from
// the capacity the worker's hello advertises.
type TCPTransport struct {
	// Addr is the worker pool's host:port.
	Addr string
}

// Name identifies the endpoint in errors and per-endpoint stats.
func (t *TCPTransport) Name() string { return "tcp:" + t.Addr }

// Dial opens one TCP connection and completes the hello handshake.
func (t *TCPTransport) Dial() (Conn, error) {
	nc, err := net.DialTimeout("tcp", t.Addr, defaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", t.Addr, err)
	}
	// The handshake itself is also bounded: a listener that accepts but
	// never hellos (wrong service on the port) must not hang the
	// coordinator.
	_ = nc.SetReadDeadline(time.Now().Add(defaultDialTimeout))
	conn, err := newWireConn(nc, nc, nc.Close)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Addr, err)
	}
	// Handshake done: a cell may legitimately run for minutes, so
	// session reads block until the reply or the connection's death.
	_ = nc.SetReadDeadline(time.Time{})
	return conn, nil
}

// ServeConfig parameterizes a listening worker pool (Serve).
type ServeConfig struct {
	// Capacity is the maximum number of wire sessions served
	// concurrently, advertised to every coordinator in the hello
	// (<= 0 selects GOMAXPROCS).
	Capacity int
	// Run executes one job; see ServeSession.
	Run func(key string, spec json.RawMessage) Result
	// Install, when non-nil, installs coordinator-pushed snapshot
	// artifacts (WireRequest.Snaps) into the pool's
	// pretrain cache. It may be called from concurrent sessions and
	// must be safe for concurrent use.
	Install func(key string, data []byte) error
	// Logf, when non-nil, receives per-session lifecycle and error
	// lines.
	Logf func(format string, args ...any)
	// SetInner is called by nothing; it stays so existing ServeConfig
	// literals keep compiling.
	//
	// Deprecated: ignored; rounds always run serially inside a worker.
	SetInner func(n int)
}

// drainGrace is how long draining sessions may sit idle waiting for
// another request before Serve closes them. Sessions mid-job are
// unaffected: the deadline only interrupts the blocking read between
// frames, after the current response has been written.
const drainGrace = 250 * time.Millisecond

// Serve runs the accept loop of a listening worker pool: one wire
// session per accepted connection, at most Capacity sessions at once.
// It blocks until ctx is cancelled (SIGTERM in cmd/fedgpo-worker),
// then drains gracefully — the listener closes so no new work arrives,
// sessions finish the job they are executing and send its response,
// and only then does Serve return. Each session is one ServeSession,
// hello frame included.
func Serve(ctx context.Context, lis net.Listener, cfg ServeConfig) error {
	if cfg.Capacity <= 0 {
		cfg.Capacity = stdruntime.GOMAXPROCS(0)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var (
		mu       sync.Mutex
		sessions = make(map[net.Conn]struct{})
		draining bool
		wg       sync.WaitGroup
		slots    = make(chan struct{}, cfg.Capacity)
	)
	// The drain watchdog: once draining, every idle session's next read
	// hits an immediate deadline and the session exits; a session busy
	// inside Run finishes and writes its response first (writes carry
	// no deadline), then exits on the next read.
	beginDrain := func() {
		mu.Lock()
		draining = true
		for c := range sessions {
			_ = c.SetReadDeadline(time.Now().Add(drainGrace))
		}
		mu.Unlock()
	}

	go func() {
		<-ctx.Done()
		beginDrain()
		_ = lis.Close()
	}()

	acceptFails := 0
	for {
		nc, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				// Graceful drain: stop accepting, wait for in-flight
				// sessions to finish their current work.
				wg.Wait()
				return nil
			}
			// A transient accept failure (ECONNABORTED, fd exhaustion)
			// must not take the pool down mid-job; back off and keep
			// serving.
			if ne, ok := err.(net.Error); ok && ne.Temporary() && acceptFails < 10 {
				acceptFails++
				logf("accept (retrying): %v", err)
				time.Sleep(time.Duration(acceptFails) * 10 * time.Millisecond)
				continue
			}
			// The listener is genuinely broken: stop taking work, but
			// let in-flight sessions finish and deliver their responses
			// before reporting the failure — same contract as a drain.
			beginDrain()
			wg.Wait()
			return fmt.Errorf("runtime: worker accept: %w", err)
		}
		acceptFails = 0
		slots <- struct{}{}
		mu.Lock()
		sessions[nc] = struct{}{}
		if draining {
			_ = nc.SetReadDeadline(time.Now().Add(drainGrace))
		}
		mu.Unlock()
		wg.Add(1)
		go func(nc net.Conn) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(sessions, nc)
				mu.Unlock()
				_ = nc.Close()
				<-slots
			}()
			logf("session %s: open", nc.RemoteAddr())
			err := ServeSession(nc, nc, cfg.Run, WorkerOptions{
				Capacity: cfg.Capacity,
				Install:  cfg.Install,
			})
			if err != nil && ctx.Err() == nil {
				logf("session %s: %v", nc.RemoteAddr(), err)
			} else {
				logf("session %s: closed", nc.RemoteAddr())
			}
		}(nc)
	}
}
