// Package cli centralizes the experiment-runtime flag surface shared
// by the fedgpo CLIs (report, sweep, sim): worker count,
// run-cache location and byte budget, and the TCP worker pools that
// select the shard coordinator. Each CLI registers the block once and
// builds its exp.Runtime from the parsed values, so a new runtime knob
// lands in every tool by construction.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// RuntimeFlags holds the shared runtime flag block after parsing.
type RuntimeFlags struct {
	// Parallel is the in-process simulation worker count (0 = all
	// cores); unused when Workers selects the coordinator.
	Parallel int
	// CacheDir persists the content-addressed run cache.
	CacheDir string
	// CacheMaxBytes, when positive, prunes the cache directory at
	// startup — oldest entries first — until it fits the budget.
	CacheMaxBytes int64
	// Workers lists TCP worker pools (comma-separated host:port);
	// non-empty selects the shard coordinator instead of the in-process
	// pool.
	Workers string
	// ListScenarios requests the scenario-preset listing and exit.
	ListScenarios bool
	// MetricsOut, when set, writes the runtime's telemetry snapshot
	// (phase timings, counters, per-endpoint latency) as JSON on exit.
	MetricsOut string
	// TraceLevel selects RL decision tracing ("none" or "decisions").
	TraceLevel string
}

// Register installs the shared runtime flags on fs and returns the
// struct they parse into; read it after fs.Parse.
func Register(fs *flag.FlagSet) *RuntimeFlags {
	f := &RuntimeFlags{}
	fs.IntVar(&f.Parallel, "parallel", 0, "in-process simulation worker count (0 = all cores; unused with -workers)")
	fs.StringVar(&f.CacheDir, "cachedir", "", "persist the run cache under this directory")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", 0,
		"at startup, delete whole cache packs, least recently used first, until the cache dir fits this byte budget (0 = keep everything)")
	fs.StringVar(&f.Workers, "workers", "",
		"comma-separated host:port TCP worker pools (fedgpo-worker -listen) to dispatch cells to instead of running them in-process")
	fs.BoolVar(&f.ListScenarios, "list-scenarios", false,
		"print the scenario presets and their resolved spec JSON, then exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write the run's telemetry snapshot (phase timings, cache/sim counters, per-endpoint dispatch latency) as JSON to this file")
	fs.StringVar(&f.TraceLevel, "trace-level", "",
		"RL decision tracing: 'decisions' records each FedGPO cell's per-round state, masked action set, chosen action, reward and Q-delta as spec-addressed cache artifacts (tracing a cached cell costs one re-run; re-tracing costs zero); results stay byte-identical")
	return f
}

// HandleListScenarios prints the scenario-preset listing to w and
// reports true when -list-scenarios was requested; callers return
// immediately on true. Each preset is shown with its resolved
// ScenarioSpec JSON for the CNN-MNIST workload — other workloads
// substitute the workload block, everything else is workload-
// independent (the auto deadline resolves per workload at run time).
func (f *RuntimeFlags) HandleListScenarios(w io.Writer) bool {
	if !f.ListScenarios {
		return false
	}
	fmt.Fprintln(w, "scenario presets (spec JSON resolved for CNN-MNIST):")
	for _, p := range exp.Presets() {
		fmt.Fprintf(w, "\n%s — %s\n", p.Name, p.Description)
		fmt.Fprintln(w, string(exp.EncodeScenario(p.Build(workload.CNNMNIST()))))
	}
	return true
}

// Backend names the execution backend the flags select, for the CLIs'
// summary lines: "tcp" when -workers lists pools, else "pool".
func (f *RuntimeFlags) Backend() string {
	if len(f.remotes()) > 0 {
		return "tcp"
	}
	return "pool"
}

// Runtime builds the experiment runtime the parsed flags describe:
// cache (pruned to the byte budget), execution backend — the
// in-process pool, or the shard coordinator over the -workers pools —
// and decision tracing. A malformed -workers address fails here, at
// startup, not at the first batch.
func (f *RuntimeFlags) Runtime() (*exp.Runtime, error) {
	remotes := f.remotes()
	for _, addr := range remotes {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("cli: -workers: %w", err)
		}
	}
	cache, err := runtime.NewCache(f.CacheDir)
	if err != nil {
		return nil, err
	}
	if _, err := cache.Prune(f.CacheMaxBytes); err != nil {
		return nil, err
	}
	var backend runtime.Backend
	if len(remotes) > 0 {
		backend = runtime.NewProcBackend(runtime.ProcConfig{Workers: remotes, CacheDir: f.CacheDir})
	} else {
		backend = runtime.NewPoolBackend(f.Parallel)
	}
	rt := exp.NewRuntimeWithBackend(backend, cache)
	switch f.TraceLevel {
	case "", "none":
		// tracing off
	case telemetry.TraceDecisions:
		rt.SetTraceLevel(telemetry.TraceDecisions)
	default:
		return nil, fmt.Errorf("cli: unknown -trace-level %q (valid: none, %s)", f.TraceLevel, telemetry.TraceDecisions)
	}
	return rt, nil
}

// WriteMetrics writes the runtime's telemetry snapshot to the
// -metrics-out file (no-op when the flag is unset). Call it after the
// run's work completes so the snapshot covers everything.
func (f *RuntimeFlags) WriteMetrics(rt *exp.Runtime) error {
	if f.MetricsOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(rt.Metrics(), "", "  ")
	if err != nil {
		return fmt.Errorf("cli: encoding metrics: %w", err)
	}
	if err := os.WriteFile(f.MetricsOut, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("cli: writing -metrics-out: %w", err)
	}
	return nil
}

// EndpointLine renders one endpoint's dispatch summary for the CLIs'
// -v output — counters first, then the wire-level view (request
// frames, realized batch density, raw bytes both ways) when the
// endpoint actually moved frames, then the pretrain-snapshot bytes
// pushed to it, when there were any. Endpoints print in
// EndpointStats order, which is sorted by name — the same deterministic
// ordering both -v summaries share.
func EndpointLine(ep runtime.EndpointStats) string {
	line := fmt.Sprintf("  endpoint %s: %d dispatched, %d retried, %d failed",
		ep.Endpoint, ep.Dispatched, ep.Retried, ep.Failed)
	if ep.Frames > 0 {
		line += fmt.Sprintf(", %d frames (%.1f specs/frame), %d B sent / %d B recv",
			ep.Frames, float64(ep.Specs)/float64(ep.Frames), ep.BytesSent, ep.BytesRecv)
	}
	if ep.SnapBytesSent > 0 {
		line += fmt.Sprintf(", %d B snaps pushed", ep.SnapBytesSent)
	}
	return line + "\n"
}

// remotes parses -workers into its host:port list (empty entries from
// stray commas are dropped).
func (f *RuntimeFlags) remotes() []string {
	var out []string
	for _, a := range strings.Split(f.Workers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
