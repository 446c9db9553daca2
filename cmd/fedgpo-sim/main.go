// Command fedgpo-sim runs one of the paper's experiments by id and
// prints its table.
//
// Usage:
//
//	fedgpo-sim -exp fig9 [-quick | -tiny] [-list] [-parallel N]
//	           [-workers host:port,...] [-cachedir PATH] [-cache-max-bytes N]
//
// The -quick flag shrinks the deployment (100 devices, 1 seed) for a
// fast smoke run; -tiny shrinks it further (20 devices) for CI smoke
// tests whose absolute numbers are not representative. The default
// reproduces the paper-scale 200-device deployment. Simulation cells
// fan out over the experiment runtime's execution backend (in-process
// workers, or fedgpo-worker -listen pools with -workers); -cachedir
// persists completed cells so reruns only simulate what changed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fedgpo/internal/cli"
	"fedgpo/internal/exp"
)

func main() {
	defer cli.ExitOnJobError()
	expID := flag.String("exp", "", "experiment id (see -list)")
	quick := flag.Bool("quick", false, "reduced fleet and seeds for a fast run")
	tiny := flag.Bool("tiny", false, "smallest deployment (20 devices) for smoke tests; not representative")
	list := flag.Bool("list", false, "list available experiments")
	rtFlags := cli.Register(flag.CommandLine)
	flag.Parse()

	if rtFlags.HandleListScenarios(os.Stdout) {
		return
	}
	if *list || *expID == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.Registry() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Description)
		}
		if *expID == "" && !*list {
			os.Exit(2)
		}
		return
	}

	e, err := exp.ByID(*expID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := exp.Default()
	switch {
	case *tiny:
		opts = exp.Tiny()
	case *quick:
		opts = exp.Quick()
	}
	rt, err := rtFlags.Runtime()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts = opts.WithRuntime(rt)
	start := time.Now()
	table := e.Run(opts)
	fmt.Print(table.String())
	st := rt.Stats()
	fmt.Printf("(%s in %.1fs; %s backend, %d workers, %d cells simulated, %d cached)\n",
		e.ID, time.Since(start).Seconds(), rtFlags.Backend(), rt.Workers(), st.Runs, st.Hits)
	if err := rtFlags.WriteMetrics(rt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
