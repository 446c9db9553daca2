// Command fedgpo-report runs the paper's experiments and emits a
// markdown report (the generator behind EXPERIMENTS.md): every table
// of the registry by default, or the ones -only names. Simulation
// cells fan out over the experiment runtime's execution backend —
// in-process workers by default, fedgpo-worker -listen pools with
// -workers — and with -cachedir a rerun only simulates cells whose
// configuration changed. -results streams every cell to a JSON Lines
// log as it completes (the last line of a repeated key wins).
//
// Usage:
//
//	fedgpo-report [-quick | -tiny] [-only fig9,fig12] [-parallel N] [-v]
//	              [-workers host:port,...] [-cachedir PATH] [-cache-max-bytes N]
//	              [-results PATH.jsonl] [-metrics-out PATH.json] > EXPERIMENTS.md
//
// -quick (100 devices, 1 seed) and -tiny (20 devices, for smoke tests;
// wins over -quick) shrink the paper-scale 200-device deployment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"fedgpo/internal/cli"
	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

func main() {
	defer cli.ExitOnJobError()
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "reduced fleet and seeds")
	tiny := flag.Bool("tiny", false, "smallest deployment (20 devices) for smoke tests; not representative")
	only := flag.String("only", "", onlyUsage())
	rtFlags := cli.Register(flag.CommandLine)
	flag.Parse()

	if rtFlags.HandleListScenarios(os.Stdout) {
		return
	}
	wanted, err := parseOnly(*only)
	if err != nil {
		log.Fatal(err)
	}
	opts, scale := exp.Default(), "paper (200 devices)"
	switch {
	case *tiny:
		opts, scale = exp.Tiny(), "tiny (20 devices, 1 seed)"
	case *quick:
		opts, scale = exp.Quick(), "quick (100 devices, 1 seed)"
	}
	rt, err := rtFlags.Runtime()
	if err != nil {
		log.Fatal(err)
	}
	if rtFlags.Verbose {
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
	opts = opts.WithRuntime(rt)

	fmt.Println("# FedGPO reproduction report")
	fmt.Println()
	fmt.Printf("Generated %s; fleet scale: %s.\n\n", time.Now().Format("2006-01-02"), scale)
	for _, e := range exp.Registry() {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		table := e.Run(opts)
		fmt.Print(table.Markdown())
		fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", e.ID, time.Since(start).Seconds())
	}
	if err := rtFlags.Finish(rt, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// parseOnly turns the -only list into a set of experiment ids,
// rejecting any id the registry lacks with exp.ByID's error, which
// lists the valid ones. An empty set selects every experiment.
func parseOnly(only string) (map[string]bool, error) {
	wanted := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if _, err := exp.ByID(id); err != nil {
			return nil, err
		}
		wanted[id] = true
	}
	return wanted, nil
}

// onlyUsage is -only's usage text: one line per registered experiment.
func onlyUsage() string {
	var b strings.Builder
	b.WriteString("comma-separated experiment ids, run in registry order (default: all):")
	for _, e := range exp.Registry() {
		fmt.Fprintf(&b, "\n  %-10s %s", e.ID, e.Description)
	}
	return b.String()
}
