// Package cli centralizes the experiment-runtime flag surface shared
// by the fedgpo CLIs (report, sweep): worker count, run-cache location
// and byte budget, the TCP worker pools that select the shard
// coordinator, the result store and the run's closing summary. Each
// CLI registers the block once, builds its exp.Runtime from the parsed
// values and ends with Finish, so a new runtime knob lands in every
// tool by construction.
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
	// Results, when set, streams every cell to this JSON Lines file.
	Results string
	// Verbose prints the telemetry summary at Finish; the report also
	// prints per-job progress under it.
	Verbose bool
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
	fs.StringVar(&f.Results, "results", "",
		"stream the structured result store to this path as JSON Lines, one cell per line as it completes")
	fs.BoolVar(&f.Verbose, "v", false, "verbose stderr: the telemetry summary with per-endpoint dispatch stats (fedgpo-report adds per-job progress)")
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

// backend names the execution backend the flags select, for the
// runtime line: "tcp" when -workers lists pools, else "pool".
func (f *RuntimeFlags) backend() string {
	if len(f.remotes()) > 0 {
		return "tcp"
	}
	return "pool"
}

// Runtime builds the experiment runtime the parsed flags describe:
// cache (pruned to the byte budget), execution backend — the
// in-process pool, or the shard coordinator over the -workers pools —
// and the -results store. A malformed -workers address or an
// unwritable -results path fails here, at startup, not at the first
// batch.
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
		backend = runtime.NewProcBackend(runtime.ProcConfig{Workers: remotes})
	} else {
		backend = runtime.NewPoolBackend(f.Parallel)
	}
	rt := exp.NewRuntimeWithBackend(backend, cache)
	if f.Results != "" {
		if err := rt.StreamStore(f.Results); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// Finish ends a run once its work completes. It prints to w the
// runtime line CI greps ("runtime: R cells simulated, H served from
// cache; ..."), then the telemetry summary under -v; writes the
// -metrics-out snapshot; and closes the -results store, printing its
// cell count.
func (f *RuntimeFlags) Finish(rt *exp.Runtime, w io.Writer) error {
	m := rt.Metrics()
	fmt.Fprintf(w, "runtime: %d cells simulated, %d served from cache; %s backend, %d workers, %d pretrain warm-ups executed\n",
		m.Counters.SimsExecuted, m.Counters.CacheHits, f.backend(), rt.Workers(), m.Counters.PretrainRuns)
	if f.Verbose {
		fmt.Fprint(w, m.Summary())
	}
	if f.MetricsOut != "" {
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return fmt.Errorf("cli: encoding metrics: %w", err)
		}
		if err := os.WriteFile(f.MetricsOut, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("cli: writing -metrics-out: %w", err)
		}
	}
	if f.Results == "" {
		return nil
	}
	if err := rt.CloseStore(); err != nil {
		return err
	}
	fmt.Fprintf(w, "result store: %d cells -> %s\n", rt.Store().Len(), f.Results)
	return nil
}

// ExitOnJobError, deferred at the top of a CLI's main, turns a failed
// cell's panic (*exp.JobError) into one stderr line and exit status 1.
// Any other panic keeps crashing with its stack.
func ExitOnJobError() {
	r := recover()
	if je, ok := r.(*exp.JobError); ok {
		fmt.Fprintln(os.Stderr, je)
		os.Exit(1)
	}
	if r != nil {
		panic(r)
	}
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
