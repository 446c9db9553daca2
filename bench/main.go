// Command bench is the repository benchmark: it times how long the
// paper's tables take to regenerate — cold, warm, over a two-endpoint
// localhost fleet — and how fast a scenario-matrix sweep runs, checks
// that every run produced the right tables, and, in a separate traced
// pass, breaks the time down by layer. See README.md.
//
// One workload, as BENCHMARK.json runs it (the last line of
// standard output is the JSON result):
//
//	bash bench/run.sh -workload paper-cold -seed 1 -seconds 20 -trace 0
//
// A set of every workload with its traced pass (every iteration runs
// in a fresh child process):
//
//	bash bench/run.sh -seed 1 -out .bench_build/set1.json
//
// Two sets compared against the bounds in BENCHMARK.json:
//
//	bash bench/run.sh -compare .bench_build/set1.json .bench_build/set2.json
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

//go:embed golden/*.sha256
var golden embed.FS

// How many times a run sets up; setup_s is the median. A run given
// -seconds, as BENCHMARK.json runs it, sets up three times to stay
// within the contract's time cap. A set (-out, or -workload without
// -seconds) sets up ten times: with three, one set-up's noise moved
// the median by over 25% between two sets of the same code.
const (
	runSetups = 3
	setSetups = 10
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the report sees, measured
// with tracing off. Every value is the median over the run's samples;
// times are scaled to the reference kernel's speed (calibrate.go).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print its result as the last line of stdout")
	seed := fs.Int64("seed", 1, "workload seed: report seeds {S, S+1}, sweep seed S")
	seconds := fs.Float64("seconds", 0, "measure for this long, at least 3 iterations (0 = the workload's own floor)")
	trace := fs.Int("trace", 0, "1 = add the traced pass and print the per-layer metrics instead")
	traceOut := fs.String("trace-out", "bench-trace.json", "where the traced pass writes its spans")
	out := fs.String("out", "", "run every workload with its traced pass and write the set here")
	compare := fs.Bool("compare", false, "compare two set files given as arguments, under the bounds in ./BENCHMARK.json")
	tiny := fs.Bool("tiny", false, "run at the Tiny scale (smoke test; no golden digests)")
	iter := fs.String("iterate", "", "internal: run one iteration of this workload and print its record")
	dir := fs.String("dir", "", "internal: the cache directory an -iterate child reads or fills")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	switch {
	case *iter != "":
		tracePath := ""
		if *trace == 1 {
			tracePath = *traceOut
		}
		return runChild(*iter, *seed, *tiny, *dir, tracePath, stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *out != "":
		return runSet(setOptions{seed: *seed, tiny: *tiny, out: *out, traceOut: *traceOut}, stdout, stderr)
	case *name != "":
		def, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		o := runOptions{def: def, seed: *seed, tiny: *tiny, seconds: def.minSeconds, minIters: def.minIters, setups: setSetups, trace: *trace == 1}
		if *seconds > 0 {
			o.seconds, o.minIters, o.setups = *seconds, 3, runSetups
		}
		return runOne(o, *traceOut, stdout, stderr)
	default:
		fmt.Fprintln(stderr, "bench: give -workload NAME, -out FILE or -compare A B")
		fs.Usage()
		return 2
	}
}

// runOptions configures one workload run.
type runOptions struct {
	def      workloadDef
	seed     int64
	tiny     bool
	seconds  float64
	minIters int
	setups   int
	trace    bool
}

// runRecord is everything one run measured and checked: what the set
// file holds and the result line is cut from.
type runRecord struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Scale      string               `json:"scale"`
	Correct    bool                 `json:"correct"`
	Failures   []string             `json:"failures,omitempty"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Digest     string               `json:"digest"`
	Iterations int                  `json:"iterations"`
	Metrics    map[string]sampleSet `json:"metrics,omitempty"`
	WallTail   *wallTail            `json:"wall_tail,omitempty"`
	// RawWall is the timed iterations' wall time before scaling, and
	// Kernel the reference kernel's time before each set-up and
	// iteration and after the last (see calibrate.go).
	RawWall  sampleSet          `json:"raw_wall_s"`
	Kernel   sampleSet          `json:"kernel_s"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// sampleSet is one end-to-end metric: its median with quartiles, and
// every sample it came from.
type sampleSet struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// wallTail is the highest tail percentile of per-iteration wall time
// that has at least ten samples beyond it.
type wallTail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	N          int     `json:"n"`
}

func newSampleSet(unit string, xs []float64) sampleSet {
	q1, q3 := quartiles(xs)
	return sampleSet{Value: median(xs), Unit: unit, N: len(xs), Q1: q1, Q3: q3, Samples: xs}
}

// valueUnit is one metric on the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a -workload run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// traceRun is one traced pass as bench-trace.json records it.
type traceRun struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	WallS         float64            `json:"wall_s"`
	UntracedWallS float64            `json:"untraced_wall_s"`
	Violations    []string           `json:"attribution_violations,omitempty"`
	PerLayer      map[string]float64 `json:"per_layer"`
	Spans         []span             `json:"spans"`
}

// traceFile is bench-trace.json.
type traceFile struct {
	Runs []traceRun `json:"runs"`
}

func runOne(o runOptions, traceOut string, stdout, stderr io.Writer) int {
	rec, tr, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if tr != nil {
		if err := writeJSON(traceOut, traceFile{Runs: []traceRun{*tr}}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printRecord(stdout, rec, o.trace)
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	if o.trace {
		for _, d := range layerDefs {
			line.Metrics[d.Name] = valueUnit{rec.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			line.Metrics[d.Name] = valueUnit{rec.Metrics[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rec.Correct {
		return 1
	}
	return 0
}

// iterRecord is what an -iterate child reports on its last line.
type iterRecord struct {
	outcome
	WallS         float64 `json:"wall_s"`
	CPUS          float64 `json:"cpu_s"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	LiveHeapBytes uint64  `json:"live_heap_bytes"`
	Cells         int64   `json:"cells"`
	Failed        int64   `json:"failed"`
}

// runChild is the -iterate child: one iteration in this fresh process;
// with tracePath set, the traced one plus the layer probes, whose spans
// and per-layer numbers go to that file.
func runChild(name string, seed int64, tiny bool, dir, tracePath string, stdout, stderr io.Writer) int {
	tmp, err := os.MkdirTemp("", "fedgpo-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := runConfig{seed: seed, tiny: tiny, tmp: tmp}
	rec, err := childIteration(name, cfg, dir, tracePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func childIteration(name string, cfg runConfig, dir, tracePath string) (iterRecord, error) {
	var t *tracer
	var gs *goSampler
	if tracePath != "" {
		t = newTracer()
		gs = startGoSampler()
	}
	it, err := iterate(name, cfg, dir, t)
	if gs != nil {
		gs.finish()
	}
	if err != nil {
		return iterRecord{}, err
	}
	rec := iterRecord{outcome: it.outcome, WallS: it.wall.Seconds(), CPUS: it.cpu.Seconds(),
		AllocBytes: it.allocBytes, LiveHeapBytes: it.liveHeap, Cells: it.cells, Failed: it.failed}
	if t == nil {
		return rec, nil
	}
	caps := it.captured
	if len(caps) == 0 {
		// A warm report dispatches nothing; its cells are the cold
		// report's, so the probes take them from one.
		cold, err := iterate("paper-cold", cfg, "", newTracer())
		if err != nil {
			return rec, fmt.Errorf("probe inputs: %w", err)
		}
		caps = cold.captured
	}
	pr, err := runProbes(cfg, caps)
	if err != nil {
		return rec, err
	}
	spans := t.snapshot()
	layers, extra := layerMetrics(it, spans, pr, gs)
	bad := attribution(it, layers, extra)
	for k, v := range extra {
		layers[k] = v
	}
	tr := traceRun{Workload: name, Seed: cfg.seed, WallS: rec.WallS, Violations: bad, PerLayer: layers, Spans: spans}
	return rec, writeJSON(tracePath, traceFile{Runs: []traceRun{tr}})
}

// iterateChild runs one iteration in a fresh child process.
func iterateChild(name string, seed int64, tiny bool, dir, tracePath string, stderr io.Writer) (iterRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return iterRecord{}, err
	}
	args := []string{"-iterate", name, "-seed", strconv.FormatInt(seed, 10)}
	if tiny {
		args = append(args, "-tiny")
	}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	if tracePath != "" {
		args = append(args, "-trace", "1", "-trace-out", tracePath)
	}
	var out strings.Builder
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return iterRecord{}, fmt.Errorf("%s iteration: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rec iterRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		return iterRecord{}, fmt.Errorf("%s iteration: reading its record: %w", name, err)
	}
	return rec, nil
}

// runWorkload runs one workload: set-up (repeated, timed), the timed
// iterations, and with o.trace the traced iteration.
func runWorkload(o runOptions, stderr io.Writer) (*runRecord, *traceRun, error) {
	tmp, err := os.MkdirTemp("", "fedgpo-bench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	name := o.def.name
	iter := func(workload, dir, tracePath string) (iterRecord, error) {
		return iterateChild(workload, o.seed, o.tiny, dir, tracePath, stderr)
	}
	var ref outcome
	if o.def.reference {
		r, err := iter("paper-cold", "", "")
		if err != nil {
			return nil, nil, fmt.Errorf("%s: reference report: %w", name, err)
		}
		ref = r.outcome
	}
	chk := newChecker(name, ref)
	// The reference kernel brackets every set-up and timed iteration:
	// kernels[j] runs right before sample j and kernels[j+1] right
	// after it (calibrate.go).
	var kernels []float64
	runKernel := func() error {
		k, err := kernel(tmp, o.def.fileWeight)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		kernels = append(kernels, k)
		return nil
	}
	var setups []float64
	dir := ""
	for k := 0; k < o.setups; k++ {
		if err := runKernel(); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if o.def.fill {
			if dir != "" {
				os.RemoveAll(dir)
			}
			if dir, err = os.MkdirTemp(tmp, "fill-"); err != nil {
				return nil, nil, err
			}
			r, err := iter("paper-cold", dir, "")
			if err != nil {
				return nil, nil, fmt.Errorf("%s: filling the cache: %w", name, err)
			}
			chk.reference("set-up report", r.outcome)
		}
		r, err := iter(name, dir, "")
		if err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		chk.iteration("warm-up", r)
	}
	var its []iterRecord
	start := time.Now()
	for len(its) < o.minIters || time.Since(start).Seconds() < o.seconds {
		if err := runKernel(); err != nil {
			return nil, nil, err
		}
		r, err := iter(name, dir, "")
		if err != nil {
			return nil, nil, fmt.Errorf("%s: iteration %d: %w", name, len(its)+1, err)
		}
		chk.iteration(fmt.Sprintf("iteration %d", len(its)+1), r)
		its = append(its, r)
	}
	if err := runKernel(); err != nil {
		return nil, nil, err
	}
	scales := make([]float64, len(kernels)-1)
	for j := range scales {
		scales[j] = kernelScale(o.def.fileWeight, kernels[j], kernels[j+1])
	}
	if !o.tiny {
		chk.golden(goldenName(name, o.seed))
	}
	rec := &runRecord{Workload: name, Seed: o.seed, Scale: scaleName(o.tiny),
		Digest: chk.digest, Iterations: len(its), Metrics: map[string]sampleSet{}}
	walls := make([]float64, len(its))
	for i, it := range its {
		walls[i] = it.WallS
		rec.Attempted += it.Cells
		rec.Failed += it.Failed
	}
	rec.RawWall = newSampleSet("s", walls)
	rec.Kernel = newSampleSet("s", kernels)
	samples := endToEndSamples(setups, its, scales)
	for _, d := range endToEndDefs {
		rec.Metrics[d.Name] = newSampleSet(d.Unit, samples[d.Name])
	}
	if p, ok := tailPercentile(len(walls)); ok {
		rec.WallTail = &wallTail{Percentile: p, Value: percentile(samples["wall_s"], p), N: len(walls)}
	}
	var tr *traceRun
	if o.trace {
		path := filepath.Join(tmp, "trace.json")
		r, err := iter(name, dir, path)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: traced iteration: %w", name, err)
		}
		chk.iteration("traced iteration", r)
		rec.Attempted += r.Cells
		rec.Failed += r.Failed
		var tf traceFile
		if err := readJSON(path, &tf); err != nil || len(tf.Runs) != 1 {
			return nil, nil, fmt.Errorf("%s: reading the trace: %v", name, err)
		}
		tr = &tf.Runs[0]
		for _, v := range tr.Violations {
			chk.fail("attribution: " + v)
		}
		tr.UntracedWallS = median(walls)
		tr.PerLayer["trace.overhead"] = tr.WallS/tr.UntracedWallS - 1
		rec.PerLayer = tr.PerLayer
	}
	rec.Failures = chk.failures
	rec.Correct = len(chk.failures) == 0 && rec.Failed == 0
	return rec, tr, nil
}

// endToEndSamples turns a run's set-ups and iterations into one sample
// list per end-to-end metric. scales holds the kernel factor of each
// set-up and then of each iteration; every time is multiplied by its own.
func endToEndSamples(setups []float64, its []iterRecord, scales []float64) map[string][]float64 {
	s := map[string][]float64{}
	for j, t := range setups {
		s["setup_s"] = append(s["setup_s"], t*scales[j])
	}
	for i, it := range its {
		f := scales[len(setups)+i]
		wall := it.WallS * f
		s["wall_s"] = append(s["wall_s"], wall)
		s["cpu_s"] = append(s["cpu_s"], it.CPUS*f)
		s["cells_per_s"] = append(s["cells_per_s"], float64(it.Cells)/wall)
		s["alloc_mb"] = append(s["alloc_mb"], float64(it.AllocBytes)/1e6)
		s["live_heap_mb"] = append(s["live_heap_mb"], float64(it.LiveHeapBytes)/1e6)
	}
	return s
}

func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "paper"
}

// goldenName names the golden digest file for a workload and seed.
func goldenName(workload string, seed int64) string {
	if workload == "sweep-matrix" {
		return fmt.Sprintf("golden/sweep-seed-%d.sha256", seed)
	}
	return fmt.Sprintf("golden/seed-%d.sha256", seed)
}

// checker holds a run to its reference: every report (set-up, warm-up,
// timed and traced) must reproduce the same masked tables, and the
// workload's invariants must hold on every iteration.
type checker struct {
	workload     string
	digest       string
	pretrain     int64
	havePretrain bool
	failures     []string
}

// maxFailures caps how many failures a run lists; one is enough to
// fail it.
const maxFailures = 10

func newChecker(workload string, ref outcome) *checker {
	c := &checker{workload: workload, digest: ref.Digest}
	if ref.Digest != "" {
		c.pretrain, c.havePretrain = ref.PretrainRuns, true
	}
	return c
}

func (c *checker) fail(msg string) {
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, msg)
	}
}

func (c *checker) checkDigest(label, digest string) {
	if c.digest == "" {
		c.digest = digest
	} else if digest != c.digest {
		c.fail(fmt.Sprintf("%s: digest %.12s differs from the run's reference %.12s", label, digest, c.digest))
	}
}

// reference checks a cold report run during set-up.
func (c *checker) reference(label string, o outcome) { c.checkDigest(label, o.Digest) }

func (c *checker) iteration(label string, it iterRecord) {
	c.checkDigest(label, it.Digest)
	if it.Failed > 0 {
		c.fail(fmt.Sprintf("%s: %d of %d cells failed", label, it.Failed, it.Cells))
	}
	if c.workload == "paper-warm" && it.Sims != 0 {
		c.fail(fmt.Sprintf("%s: a warm report simulated %d cells, want 0", label, it.Sims))
	}
	if !c.havePretrain {
		c.pretrain, c.havePretrain = it.PretrainRuns, true
	} else if it.PretrainRuns != c.pretrain {
		c.fail(fmt.Sprintf("%s: %d Q-table warm-ups, want %d", label, it.PretrainRuns, c.pretrain))
	}
}

// golden checks the run's digest against a pinned one, when the seed
// has one.
func (c *checker) golden(name string) {
	b, err := golden.ReadFile(name)
	if err != nil {
		return
	}
	if want := strings.TrimSpace(string(b)); c.digest != want {
		c.fail(fmt.Sprintf("digest %s differs from %s (%s)", c.digest, name, want))
	}
}

// printRecord writes the human-readable report of a run: every metric
// by name with its unit and sample count, then the checks.
func printRecord(w io.Writer, rec *runRecord, traced bool) {
	fmt.Fprintf(w, "%s seed=%d scale=%s: %d iterations, %d cells attempted, %d failed, digest %.16s\n",
		rec.Workload, rec.Seed, rec.Scale, rec.Iterations, rec.Attempted, rec.Failed, rec.Digest)
	for _, d := range endToEndDefs {
		s := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-14s %12.6g %-8s (n=%d, q1=%.6g, q3=%.6g)\n", d.Name, s.Value, d.Unit, s.N, s.Q1, s.Q3)
	}
	if t := rec.WallTail; t != nil {
		fmt.Fprintf(w, "  %-14s %12.6g %-8s (p%g of n=%d)\n", "wall_s tail", t.Value, "s", 100*t.Percentile, t.N)
	} else {
		fmt.Fprintf(w, "  %-14s fewer than 100 iterations: the median is the highest percentile with ten samples beyond it\n", "wall_s tail")
	}
	for _, r := range []struct {
		name string
		s    sampleSet
	}{{"raw wall_s", rec.RawWall}, {"kernel_s", rec.Kernel}} {
		fmt.Fprintf(w, "  %-14s %12.6g %-8s (n=%d, q1=%.6g, q3=%.6g; unscaled)\n", r.name, r.s.Value, r.s.Unit, r.s.N, r.s.Q1, r.s.Q3)
	}
	if traced {
		fmt.Fprintln(w, "  per-layer (traced pass):")
		for _, d := range append(append([]metricDef(nil), layerDefs...), extraLayerDefs()...) {
			if v, ok := rec.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "    %-34s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	if rec.Correct {
		fmt.Fprintln(w, "  checks: ok")
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  CHECK FAILED:", f)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setOptions configures a set run (-out).
type setOptions struct {
	seed     int64
	tiny     bool
	out      string
	traceOut string
}

// setFile is what -out writes and -compare reads.
type setFile struct {
	Seed      int64       `json:"seed"`
	Scale     string      `json:"scale"`
	Workloads []runRecord `json:"workloads"`
}

// runSet runs each selected workload with its traced pass and writes
// the set.
func runSet(o setOptions, stdout, stderr io.Writer) int {
	set := setFile{Seed: o.seed, Scale: scaleName(o.tiny)}
	var traces traceFile
	status := 0
	for _, d := range workloads {
		fmt.Fprintf(stderr, "bench: %s ...\n", d.name)
		rec, tr, err := runWorkload(runOptions{def: d, seed: o.seed, tiny: o.tiny,
			seconds: d.minSeconds, minIters: d.minIters, setups: setSetups, trace: true}, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !rec.Correct {
			status = 1
		}
		set.Workloads = append(set.Workloads, *rec)
		traces.Runs = append(traces.Runs, *tr)
	}
	for _, f := range crossCheck(set.Workloads) {
		fmt.Fprintln(stderr, "bench: CHECK FAILED:", f)
		status = 1
	}
	if err := writeJSON(o.out, set); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(o.traceOut, traces); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for i := range set.Workloads {
		printRecord(stdout, &set.Workloads[i], true)
	}
	return status
}

// crossCheck holds the workloads of one set to each other: the three
// report workloads must produce the same masked tables.
func crossCheck(recs []runRecord) []string {
	var bad []string
	ref := ""
	for _, r := range recs {
		if !strings.HasPrefix(r.Workload, "paper-") {
			continue
		}
		if ref == "" {
			ref = r.Digest
		} else if r.Digest != ref {
			bad = append(bad, fmt.Sprintf("%s digest %.12s differs from the other report workloads' %.12s", r.Workload, r.Digest, ref))
		}
	}
	return bad
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// verdicts of one workload × metric comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// comparison is one workload × end-to-end metric of -compare.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	ratio          float64 // median B ÷ median A
	wins, pairs    int     // pairs where B reads better than A
	verdict        string
}

// judge compares the samples of a base set (a) with a changed set (b)
// under the metric's bound:
//   - improved: b beats a in at least nine tenths of the pairs and the
//     medians differ by more than a's interquartile range;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: either side spreads wider than the bound, unless every
//     sample of b reads better than every sample of a;
//   - unchanged otherwise.
func judge(d metricDef, a, b []float64) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	c.ratio = c.medB / c.medA
	better := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	gap := (c.medB - c.medA) / math.Abs(c.medA)
	if d.Better == "higher" {
		gap = -gap
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && gap < 0 && math.Abs(c.medB-c.medA) > c.q3A-c.q1A:
		c.verdict = improved
	case gap > d.Bound:
		c.verdict = worse
	case spread(a) > d.Bound || spread(b) > d.Bound:
		if allBetter {
			c.verdict = improved
		} else {
			c.verdict = unresolved
		}
	default:
		c.verdict = unchanged
	}
	return c
}

func runCompare(benchPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var bf benchmarkFile
	var a, b setFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bf}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	byName := map[string]runRecord{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(stdout, "base %s (seed %d) vs change %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(stdout, "%-13s %-13s %-27s %-27s %8s %7s %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "verdict")
	status := 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(stdout, "%-13s missing from %s\n", ra.Workload, pathB)
			continue
		}
		for _, d := range bf.EndToEnd {
			c := judge(d, ra.Metrics[d.Name].Samples, rb.Metrics[d.Name].Samples)
			if c.verdict == worse {
				status = 1
			}
			fmt.Fprintf(stdout, "%-13s %-13s %-27s %-27s %7.3fx %3d/%-3d %s (bound %g)\n", ra.Workload, d.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.medA, c.q1A, c.q3A),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.medB, c.q1B, c.q3B),
				c.ratio, c.wins, c.pairs, c.verdict, d.Bound)
		}
	}
	return status
}
