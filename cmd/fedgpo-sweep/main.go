// Command fedgpo-sweep runs raw (B, E, K) grid sweeps of the simulator
// for one workload and prints convergence round, energy, and PPW per
// setting — the data generator behind the paper's Figures 1, 2 and 7.
// The sweep's cells fan out over the parallel experiment runtime; with
// -cachedir, repeated sweeps (and figure constructors touching the
// same cells) are served from the run cache.
//
// Beyond the paper's fixed presets, -matrix generates the cross
// product of scenario axes (fleet mix × partition alpha × network ×
// interference × deadline × rounds) and runs one cell per generated
// deployment, and -scenario-file loads explicit ScenarioSpec JSON.
// Both modes run on either execution backend (in-process workers, or
// fedgpo-worker -listen pools with -workers) and share the run cache
// with every other tool. -results streams every cell to a JSON Lines
// log as it completes.
//
// Usage:
//
//	fedgpo-sweep -workload CNN-MNIST [-noniid] [-variance] [-quick] [-seed N] [-parallel N] [-v]
//	             [-workers host:port,...] [-cachedir PATH] [-cache-max-bytes N]
//	             [-results PATH.jsonl] [-metrics-out PATH.json]
//	fedgpo-sweep -matrix "fleet=200,100;alpha=iid,0.5;net=stable,unstable" [-params 8,10,20] [-seed N]
//	fedgpo-sweep -scenario-file scenarios.json
//	fedgpo-sweep -list-scenarios
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"fedgpo/internal/cli"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

func main() {
	defer cli.ExitOnJobError()
	log.SetFlags(0)
	wname := flag.String("workload", "CNN-MNIST", "workload name (CNN-MNIST, LSTM-Shakespeare, MobileNet-ImageNet)")
	noniid := flag.Bool("noniid", false, "use the Dirichlet(0.1) non-IID partition")
	variance := flag.Bool("variance", false, "enable interference + unstable network")
	quick := flag.Bool("quick", false, "reduced fleet for a fast run")
	matrix := flag.String("matrix", "",
		"scenario-matrix axes, e.g. \"fleet=200,H5:M5:L10;alpha=iid,0.5;net=stable,unstable;intf=none,web-browsing;deadline=none,auto;rounds=100\"")
	scenarioFile := flag.String("scenario-file", "", "run ScenarioSpec JSON (one object or an array) from this file")
	paramsFlag := flag.String("params", "8,10,20", "the (B,E,K) setting matrix/scenario-file cells run at")
	seed := flag.Int64("seed", 1, "run seed")
	rtFlags := cli.Register(flag.CommandLine)
	flag.Parse()

	if rtFlags.HandleListScenarios(os.Stdout) {
		return
	}
	w, err := workload.ByName(*wname)
	if err != nil {
		log.Fatal(err)
	}
	// Scenario mode is validated and built in full before the runtime
	// opens -results, which truncates it: a rejected invocation leaves
	// an existing result log as it was.
	scenarioMode := *matrix != "" || *scenarioFile != ""
	var specs []exp.ScenarioSpec
	var p fl.Params
	if scenarioMode {
		// Scenario mode builds every deployment from its spec; the
		// preset-selection flags would be silently ignored, so reject
		// them (use an alpha/net/intf axis or the spec file instead).
		if *noniid || *variance {
			log.Fatal("fedgpo-sweep: -noniid/-variance do not combine with -matrix/-scenario-file; express the deployment in the matrix axes or the spec file")
		}
		specs, p = loadScenarios(w, *matrix, *scenarioFile, *paramsFlag)
	}
	rt, err := rtFlags.Runtime()
	if err != nil {
		log.Fatal(err)
	}
	opts := exp.Default()
	if *quick {
		opts = exp.Quick()
	}
	opts = opts.WithRuntime(rt)

	if scenarioMode {
		if *quick {
			fmt.Fprintln(os.Stderr, "fedgpo-sweep: note: -quick does not rescale -matrix/-scenario-file deployments; the specs say exactly what runs")
		}
		runScenarios(opts, rt, specs, p, *seed)
	} else {
		runPreset(opts, rt, w, *noniid, *variance, *seed)
	}
	if err := rtFlags.Finish(rt, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// runPreset executes the preset mode: the paper scenario -noniid and
// -variance select, swept along the (B, E, K) axes.
func runPreset(opts exp.Options, rt *exp.Runtime, w workload.Workload, noniid, variance bool, seed int64) {
	var s exp.ScenarioSpec
	switch {
	case noniid && variance:
		s = exp.RealisticNonIID(w)
	case noniid:
		s = exp.NonIIDScenario(w)
	case variance:
		s = exp.Realistic(w)
	default:
		s = exp.Ideal(w)
	}
	if opts.FleetSize > 0 {
		s.Fleet.Size = opts.FleetSize
	}

	// Keep the full grid tractable: sweep the B axis at the default
	// (E, K), the E axis at the default (B, K), the K axis at the
	// default (B, E), plus the paper's named optima.
	var params []fl.Params
	for _, p := range fl.AllParams() {
		if onAxis(p) {
			params = append(params, p)
		}
	}
	results := exp.SweepStatic(opts, s, params, seed)

	fmt.Printf("workload=%s scenario=%s fleet=%d seed=%d workers=%d\n",
		w.Name, s.Name, s.Fleet.Composition().Total(), seed, rt.Workers())
	fmt.Printf("%-12s %10s %12s %14s %10s\n", "(B,E,K)", "converged", "conv round", "energy (kJ)", "PPW")
	for i, p := range params {
		res := results[i]
		conv := "-"
		if res.Converged {
			conv = fmt.Sprint(res.ConvergenceRound)
		}
		fmt.Printf("%-12s %10v %12s %14.0f %10.3g\n",
			p.String(), res.Converged, conv, res.EnergyToConvergenceJ/1000, res.PPW)
	}
}

// loadScenarios builds the scenario-matrix / scenario-file mode's
// deployments and parses the (B,E,K) setting they run at, exiting on
// the first error.
func loadScenarios(w workload.Workload, matrix, scenarioFile, paramsFlag string) ([]exp.ScenarioSpec, fl.Params) {
	var specs []exp.ScenarioSpec
	if matrix != "" {
		ms, err := exp.ScenarioMatrix(w, matrix)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, ms...)
	}
	if scenarioFile != "" {
		b, err := os.ReadFile(scenarioFile)
		if err != nil {
			log.Fatalln("fedgpo-sweep:", err)
		}
		fs, err := exp.DecodeScenarios(b)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, fs...)
	}
	p, err := parseParams(paramsFlag)
	if err != nil {
		log.Fatal(err)
	}
	return specs, p
}

// runScenarios executes the scenario-matrix / scenario-file mode: one
// cell per deployment at a single (B,E,K) setting. Options scaling
// (-quick) is deliberately not applied — the specs say exactly what
// runs, fleet included.
func runScenarios(opts exp.Options, rt *exp.Runtime, specs []exp.ScenarioSpec, p fl.Params, seed int64) {
	results := exp.SweepScenarios(opts, specs, p, seed)

	fmt.Printf("scenarios=%d params=%s seed=%d workers=%d\n",
		len(specs), p.String(), seed, rt.Workers())
	fmt.Printf("%-56s %10s %12s %14s %10s\n", "scenario", "converged", "conv round", "energy (kJ)", "PPW")
	for i, s := range specs {
		res := results[i]
		conv := "-"
		if res.Converged {
			conv = fmt.Sprint(res.ConvergenceRound)
		}
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("scenario-%d", i)
		}
		fmt.Printf("%-56s %10v %12s %14.0f %10.3g\n",
			name, res.Converged, conv, res.EnergyToConvergenceJ/1000, res.PPW)
	}
}

// parseParams parses a -params value: exactly three positive
// comma-separated integers (Sscanf would silently accept trailing
// garbage).
func parseParams(s string) (fl.Params, error) {
	var p fl.Params
	parts := strings.Split(s, ",")
	dst := []*int{&p.B, &p.E, &p.K}
	if len(parts) != len(dst) {
		return p, fmt.Errorf("fedgpo-sweep: -params %q: want exactly B,E,K", s)
	}
	for i, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return p, fmt.Errorf("fedgpo-sweep: -params %q: want B,E,K positive integers", s)
		}
		*dst[i] = n
	}
	return p, nil
}

// onAxis keeps the sweep to the three axes through (8, 10, 20) plus the
// paper-named optima.
func onAxis(p fl.Params) bool {
	base := fl.Params{B: 8, E: 10, K: 20}
	axes := 0
	if p.B != base.B {
		axes++
	}
	if p.E != base.E {
		axes++
	}
	if p.K != base.K {
		axes++
	}
	if axes <= 1 {
		return true
	}
	for _, named := range []fl.Params{{B: 4, E: 20, K: 20}, {B: 8, E: 5, K: 10}, {B: 1, E: 10, K: 20}} {
		if p == named {
			return true
		}
	}
	return false
}
