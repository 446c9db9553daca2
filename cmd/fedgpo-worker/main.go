// Command fedgpo-worker is the execution half of the distributed shard
// coordinator (-workers on the fedgpo CLIs): a long-lived TCP worker
// pool serving up to -capacity concurrent wire sessions, one per
// accepted connection. Each session speaks the runtime package's wire
// protocol — a hello frame advertising protocol version, cache-key
// scheme, capacity and cache directory, then one response frame per
// request of each batched request frame, in request order.
//
// With -cachedir pointing at the coordinator's cache directory, the
// worker shares the coordinator's content-addressed run cache and
// pretrained-controller snapshots, so hit semantics match the
// in-process pool backend exactly; the hello advertises the directory,
// and the coordinator skips re-writing entries such a worker already
// published. A pool caching elsewhere (or not at all) is also fine —
// the coordinator persists those results itself. The worker never
// prunes the cache; eviction is the coordinator's startup job.
//
// The worker also participates in fleet-wide pretrain-snapshot reuse: a cell that builds a fresh
// pretrained-controller snapshot returns the serialized artifact with
// its response, and coordinator-pushed artifacts (WireRequest.Snaps)
// are installed into the pool's pretrain cache so co-scheduled warm
// cells deserialize instead of re-running the warm-up.
//
// Usage (one pool per machine, or several on localhost):
//
//	fedgpo-worker -listen 10.0.0.5:9331 -capacity 16 -cachedir /var/cache/fedgpo &
//	fedgpo-sim -exp fig5 -workers 10.0.0.5:9331,10.0.0.6:9331 -cachedir ./cache
//
// The pool prints "listening on ADDR" on stderr once it accepts
// sessions (so -listen 127.0.0.1:0 picks a free port a script can read
// back), logs accepted sessions there, and drains gracefully on
// SIGTERM/SIGINT: the listener closes immediately, sessions finish the
// job they are executing and deliver its response, then the process
// exits — so rolling a worker machine never fails a batch (the
// coordinator resends anything unanswered to the remaining pools).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	stdruntime "runtime"
	"syscall"

	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

func main() {
	cachedir := flag.String("cachedir", "", "share the coordinator's run cache under this directory")
	listen := flag.String("listen", "",
		"serve the TCP worker pool on this host:port (required; for coordinators started with -workers)")
	capacity := flag.Int("capacity", 0,
		"concurrent session capacity advertised and enforced by -listen (0 = GOMAXPROCS)")
	flag.Parse()
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "fedgpo-worker: -listen host:port is required")
		flag.Usage()
		os.Exit(2)
	}
	if *capacity <= 0 {
		*capacity = stdruntime.GOMAXPROCS(0)
	}

	rt, err := exp.NewRuntime(1, *cachedir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedgpo-worker:", err)
		os.Exit(1)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedgpo-worker:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "fedgpo-worker: listening on %s (capacity %d)\n", lis.Addr(), *capacity)
	err = runtime.Serve(ctx, lis, runtime.ServeConfig{
		Capacity: *capacity,
		CacheDir: *cachedir,
		Run:      rt.RunRequest,
		Install:  rt.InstallSnapshot,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fedgpo-worker: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedgpo-worker:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fedgpo-worker: drained")
}
