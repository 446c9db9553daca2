package runtime

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// stdioReapGrace bounds how long Close waits for a worker subprocess
// to exit after its stdin closes before killing it. A healthy worker
// exits immediately on stdin EOF; the grace only matters for a worker
// wedged mid-protocol, which Close must still reap rather than leak.
const stdioReapGrace = 5 * time.Second

// StdioTransport dials wire sessions by spawning worker subprocesses
// (cmd/fedgpo-worker, or any binary speaking the wire protocol on
// stdio). Every Dial spawns a fresh process — one session per
// subprocess — and Close reaps it, so the PR 3 process-per-shard
// semantics are preserved exactly: a crashed worker fails only its own
// session, and a retry lands on a brand-new process.
type StdioTransport struct {
	// WorkerBin is the worker binary to spawn.
	WorkerBin string
	// Procs is the number of concurrent sessions (worker subprocesses)
	// the coordinator runs against this transport.
	Procs int
	// CacheDir, when set, is forwarded to every worker as -cachedir so
	// coordinator and workers share one content-addressed disk cache.
	CacheDir string
	// Env, when non-nil, replaces the workers' environment (nil
	// inherits the coordinator's).
	Env []string
}

// Name identifies the transport in errors and per-endpoint stats.
func (t *StdioTransport) Name() string { return "stdio:" + filepath.Base(t.WorkerBin) }

// Sessions returns the configured subprocess count.
func (t *StdioTransport) Sessions() int { return t.Procs }

// Dial spawns one worker subprocess and completes the hello handshake
// over its stdio pipes.
func (t *StdioTransport) Dial() (Conn, error) {
	args := []string{}
	if t.CacheDir != "" {
		args = append(args, "-cachedir", t.CacheDir)
	}
	cmd := exec.Command(t.WorkerBin, args...)
	cmd.Env = t.Env
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", t.WorkerBin, err)
	}
	closer := func() error {
		// Closing stdin is the protocol's shutdown signal: the worker's
		// decode loop sees EOF and exits. A watchdog reaps a worker that
		// is wedged mid-protocol instead — either way the process is
		// gone when Close returns.
		_ = stdin.Close()
		kill := time.AfterFunc(stdioReapGrace, func() { _ = cmd.Process.Kill() })
		defer kill.Stop()
		return cmd.Wait()
	}
	conn, err := newWireConn(stdout, stdin, 0, closer)
	if err != nil {
		// The handshake failed; newWireConn already ran closer.
		return nil, fmt.Errorf("%s: %w", t.WorkerBin, err)
	}
	return conn, nil
}
