// Command fedgpo-report runs the full experiment suite and emits a
// markdown report (the generator behind EXPERIMENTS.md). Simulation
// cells fan out over the experiment runtime's execution backend —
// in-process workers by default, fedgpo-worker -listen pools with
// -workers — and with -cachedir a rerun only simulates cells whose
// configuration changed. -results streams every cell to a JSON Lines
// log as it completes (the last line of a repeated key wins).
//
// Usage:
//
//	fedgpo-report [-quick] [-only fig9,fig12] [-parallel N]
//	              [-workers host:port,...] [-cachedir PATH] [-cache-max-bytes N]
//	              [-results PATH.jsonl] > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fedgpo/internal/cli"
	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

func main() {
	quick := flag.Bool("quick", false, "reduced fleet and seeds")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	results := flag.String("results", "", "stream the structured result store to this path as JSON Lines, one cell per line as it completes")
	verbose := flag.Bool("v", false, "per-job progress on stderr")
	rtFlags := cli.Register(flag.CommandLine)
	flag.Parse()

	if rtFlags.HandleListScenarios(os.Stdout) {
		return
	}
	opts := exp.Default()
	if *quick {
		opts = exp.Quick()
	}
	rt, err := rtFlags.Runtime()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verbose {
		rt.SetProgress(func(p runtime.Progress) {
			tag := ""
			if p.Cached {
				tag = " (cached)"
			}
			// The sec54 probe's overhead rows are wall-clock: surface
			// whether this run measured them or replayed values recorded
			// when the cell first ran.
			if strings.Contains(p.Key, "|sec54|") {
				if p.Cached {
					tag = " (overhead replayed-from-cache)"
				} else {
					tag = " (overhead measured)"
				}
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s%s\n", p.Done, p.Total, p.Key, tag)
		})
	}
	if *results != "" {
		if err := rt.StreamStore(*results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	opts = opts.WithRuntime(rt)

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	fmt.Println("# FedGPO reproduction report")
	fmt.Println()
	fmt.Printf("Generated %s; fleet scale: %s.\n\n",
		time.Now().Format("2006-01-02"), scaleLabel(*quick))
	for _, e := range exp.Registry() {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		table := e.Run(opts)
		fmt.Print(table.Markdown())
		fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", e.ID, time.Since(start).Seconds())
	}
	st := rt.Stats()
	pretrainRuns, pretrainKeys := rt.PretrainStats()
	fmt.Fprintf(os.Stderr, "runtime: %s backend, %d workers, %d cells simulated, %d served from cache, %d/%d pretrain warm-ups executed\n",
		rtFlags.Backend(), rt.Workers(), st.Runs, st.Hits, pretrainRuns, pretrainKeys)
	if *verbose {
		for _, ep := range st.Endpoints {
			fmt.Fprint(os.Stderr, cli.EndpointLine(ep))
		}
		fmt.Fprint(os.Stderr, rt.Metrics().Summary())
	}
	if err := rtFlags.WriteMetrics(rt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *results != "" {
		if err := rt.CloseStore(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "result store: %d cells -> %s\n", rt.Store().Len(), *results)
	}
}

func scaleLabel(quick bool) string {
	if quick {
		return "quick (100 devices, 1 seed)"
	}
	return "paper (200 devices)"
}
