package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"fedgpo/internal/abs"
	"fedgpo/internal/baseline"
	"fedgpo/internal/core"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/runtime/wire"
	"fedgpo/internal/workload"
)

// probeResults are the layer probes of a traced run: public functions
// of one layer called directly on the workload's own inputs.
type probeResults struct {
	cachePutUS, cacheGetDiskUS, cacheGetPayloadUS float64
	wireWriteUSPerKB, wireReadUSPerKB             float64

	idealRoundNS, realisticRoundNS, roundAllocs               float64
	roundAlphaNS, roundBetaPerParticipant, roundBetaPerDevice float64

	corePlanUS, coreObserveUS, coreShare                     float64
	coreRoundAllocs, coreRoundBytes                          float64
	coreIdentifyUS, coreChooseUS, coreRewardUS, coreUpdateUS float64
	corePretrainS, coreQTableBytes                           float64
	coreWarmPlanUS, coreWarmObserveUS                        float64

	ctrlUSPerRound map[string]float64
}

// ctrlNames are the baseline controllers the report compares against.
var ctrlNames = []string{"abs", "bo", "ga", "fedex", "static"}

// probeScale sizes the probes: the report's fleet and a fixed round
// count, so a probe's per-round numbers do not depend on convergence.
type probeScale struct {
	fleet, rounds, passes int
}

func (c runConfig) probeScale() probeScale {
	if c.tiny {
		return probeScale{fleet: 20, rounds: 50, passes: 1}
	}
	return probeScale{fleet: 200, rounds: 1000, passes: 7}
}

// runProbes runs every layer probe. caps are the workload's dispatched
// jobs and their results (the cache and wire probes' inputs).
func runProbes(cfg runConfig, caps []captured) (probeResults, error) {
	var pr probeResults
	var err error
	if pr.cachePutUS, pr.cacheGetDiskUS, pr.cacheGetPayloadUS, err = cacheProbe(cfg.tmp, caps); err != nil {
		return pr, err
	}
	if pr.wireWriteUSPerKB, pr.wireReadUSPerKB, err = wireProbe(caps); err != nil {
		return pr, err
	}
	ps := cfg.probeScale()
	w := workload.CNNMNIST()
	ideal := exp.Ideal(w)
	ideal.Fleet.Size = ps.fleet
	realistic := exp.Realistic(w)
	realistic.Fleet.Size = ps.fleet
	base := fl.Params{B: 8, E: 10, K: 20}
	pr.idealRoundNS, pr.roundAllocs = kernelRound(ideal, base, ps)
	pr.realisticRoundNS, _ = kernelRound(realistic, base, ps)

	// Round cost as alpha + beta·size: per participant at the paper
	// fleet, per device at the paper K.
	var ks, kNS []float64
	for _, k := range []int{1, 5, 10, 15, 20} {
		ns, _ := kernelRound(ideal, fl.Params{B: 8, E: 10, K: k}, ps)
		ks = append(ks, float64(k))
		kNS = append(kNS, ns)
	}
	pr.roundAlphaNS, pr.roundBetaPerParticipant = fitLine(ks, kNS)
	var ns, nNS []float64
	for _, n := range []int{50, 100, 200, 400} {
		s := ideal
		s.Fleet.Size = n
		v, _ := kernelRound(s, base, ps)
		ns = append(ns, float64(n))
		nNS = append(nNS, v)
	}
	_, pr.roundBetaPerDevice = fitLine(ns, nNS)

	coreProbe(&pr, realistic, ps)
	pr.ctrlUSPerRound = map[string]float64{}
	for _, name := range ctrlNames {
		pr.ctrlUSPerRound[name] = ctrlProbe(realistic, newBaseline(name), ps).perRoundUS()
	}
	return pr, nil
}

// probeConfig materializes a scenario for a fixed-length probe run.
func probeConfig(s exp.ScenarioSpec, ps probeScale) fl.Config {
	cfg := s.Config(1)
	cfg.MaxRounds = ps.rounds
	cfg.StopAtConvergence = false
	return cfg
}

// kernelRound is the round kernel's wall time and heap allocations per
// round under a Static controller on a warmed arena. The time is the
// fastest pass: a probe measures the kernel's floor, and the slope fits
// built on it need a few hundred nanoseconds of resolution that a
// median over a contended machine does not give.
func kernelRound(s exp.ScenarioSpec, p fl.Params, ps probeScale) (nsPerRound, allocsPerRound float64) {
	cfg := probeConfig(s, ps)
	a := fl.NewArena()
	fl.RunWithArena(cfg, fl.NewStatic(p), a)
	var nsS, allocS []float64
	for i := 0; i < ps.passes; i++ {
		var m0, m1 goruntime.MemStats
		ctrl := fl.NewStatic(p)
		goruntime.ReadMemStats(&m0)
		start := time.Now()
		res := fl.RunWithArena(cfg, ctrl, a)
		d := time.Since(start)
		goruntime.ReadMemStats(&m1)
		r := float64(res.RoundsExecuted)
		nsS = append(nsS, float64(d.Nanoseconds())/r)
		allocS = append(allocS, float64(m1.Mallocs-m0.Mallocs)/r)
	}
	return sorted(nsS)[0], median(allocS)
}

// timedController times the Plan and Observe calls of the controller
// it wraps.
type timedController struct {
	fl.Controller
	plan, observe time.Duration
	rounds        int
}

func (t *timedController) Plan(obs fl.Observation) fl.Plan {
	start := time.Now()
	p := t.Controller.Plan(obs)
	t.plan += time.Since(start)
	return p
}

func (t *timedController) Observe(res fl.RoundResult) {
	start := time.Now()
	t.Controller.Observe(res)
	t.observe += time.Since(start)
	t.rounds++
}

// ctrlRun is one timed controller run.
type ctrlRun struct {
	tc            *timedController
	wall          time.Duration
	mallocs, heap uint64
}

func (r ctrlRun) perRound(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(max(1, r.tc.rounds))
}

func (r ctrlRun) perRoundUS() float64 { return r.perRound(r.tc.plan + r.tc.observe) }

// ctrlProbe runs one controller over a fixed-length probe deployment.
func ctrlProbe(s exp.ScenarioSpec, c fl.Controller, ps probeScale) ctrlRun {
	cfg := probeConfig(s, ps)
	a := fl.NewArena()
	fl.RunWithArena(cfg, fl.NewStatic(fl.Params{B: 8, E: 10, K: 20}), a)
	tc := &timedController{Controller: c}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start := time.Now()
	fl.RunWithArena(cfg, tc, a)
	wall := time.Since(start)
	goruntime.ReadMemStats(&m1)
	return ctrlRun{tc: tc, wall: wall, mallocs: m1.Mallocs - m0.Mallocs, heap: m1.TotalAlloc - m0.TotalAlloc}
}

// coreProbe measures FedGPO: a cold controller learning through the
// probe run (the §5.4 phase breakdown), the Q-table warm-up the report
// runs per scenario, and the pretrained controller that warm-up yields.
func coreProbe(pr *probeResults, s exp.ScenarioSpec, ps probeScale) {
	cold := core.New(core.DefaultConfig())
	r := ctrlProbe(s, cold, ps)
	rounds := float64(max(1, r.tc.rounds))
	pr.corePlanUS = r.perRound(r.tc.plan)
	pr.coreObserveUS = r.perRound(r.tc.observe)
	pr.coreShare = ratio((r.tc.plan + r.tc.observe).Seconds(), r.wall.Seconds())
	pr.coreRoundAllocs = float64(r.mallocs) / rounds
	pr.coreRoundBytes = float64(r.heap) / rounds
	ov := cold.Overhead()
	perPhase := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(max(1, ov.Rounds))
	}
	pr.coreIdentifyUS = perPhase(ov.IdentifyStates)
	pr.coreChooseUS = perPhase(ov.ChooseParams)
	pr.coreRewardUS = perPhase(ov.CalcReward)
	pr.coreUpdateUS = perPhase(ov.UpdateTables)

	// The warm-up exactly as the report's pretrained-controller cache
	// runs it: the scenario on the warm-up seed for min(150, rounds).
	warm := s.Config(997)
	warm.MaxRounds = min(150, warm.MaxRounds)
	start := time.Now()
	snap := core.PretrainSnapshot(core.DefaultConfig(), warm)
	pr.corePretrainS = time.Since(start).Seconds()
	pre := core.FromSnapshot(core.DefaultConfig(), snap)
	pr.coreQTableBytes = float64(pre.MemoryBytes())
	w := ctrlProbe(s, pre, ps)
	pr.coreWarmPlanUS = w.perRound(w.tc.plan)
	pr.coreWarmObserveUS = w.perRound(w.tc.observe)
}

// newBaseline builds a baseline controller the way the report's
// contender specs do.
func newBaseline(name string) fl.Controller {
	switch name {
	case "abs":
		return abs.New(abs.DefaultConfig())
	case "bo":
		return baseline.NewBO(1)
	case "ga":
		return baseline.NewGA(1)
	case "fedex":
		return baseline.NewFedEX(1)
	default:
		return fl.NewStatic(fl.Params{B: 8, E: 10, K: 20})
	}
}

// cacheProbe times Cache.Put of every captured result into a fresh
// directory, Cache.Get of each from a fresh Cache over it (disk reads),
// and a repeat Get on that instance (decoded-payload hits); each is
// the mean per call in microseconds.
func cacheProbe(tmp string, caps []captured) (putUS, getDiskUS, getPayloadUS float64, err error) {
	if len(caps) == 0 {
		return 0, 0, 0, fmt.Errorf("cache probe: no results to store")
	}
	dir, err := os.MkdirTemp(tmp, "probe-cache-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	w, err := runtime.NewCache(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	keys := make([]string, len(caps))
	start := time.Now()
	for i, c := range caps {
		keys[i] = c.job.Key()
		if err := w.Put(keys[i], c.res); err != nil {
			return 0, 0, 0, fmt.Errorf("cache probe: %w", err)
		}
	}
	put := time.Since(start)
	r, err := runtime.NewCache(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	get := func() (time.Duration, error) {
		start := time.Now()
		for _, k := range keys {
			var res runtime.Result
			if !r.Get(k, &res) {
				return 0, fmt.Errorf("cache probe: %q missing after Put", k)
			}
		}
		return time.Since(start), nil
	}
	disk, err := get()
	if err != nil {
		return 0, 0, 0, err
	}
	payload, err := get()
	if err != nil {
		return 0, 0, 0, err
	}
	n := float64(len(keys))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	return us(put), us(disk), us(payload), nil
}

// wireProbe times wire.WriteFrame and wire.ReadFrame over the captured
// jobs' real request and response envelopes, framed as the coordinator
// frames them (16 specs per request frame, one response per frame), in
// microseconds per KB of payload.
func wireProbe(caps []captured) (writeUSPerKB, readUSPerKB float64, err error) {
	if len(caps) == 0 {
		return 0, 0, fmt.Errorf("wire probe: no jobs to frame")
	}
	const specsPerFrame = 16
	var payloads [][]byte
	for i := 0; i < len(caps); i += specsPerFrame {
		var env struct {
			Reqs []runtime.WireRequest `json:"reqs"`
		}
		for _, c := range caps[i:min(i+specsPerFrame, len(caps))] {
			env.Reqs = append(env.Reqs, runtime.WireRequest{Key: c.job.Key(), Spec: c.job.Payload})
		}
		b, err := json.Marshal(env)
		if err != nil {
			return 0, 0, fmt.Errorf("wire probe: %w", err)
		}
		payloads = append(payloads, b)
	}
	for _, c := range caps {
		b, err := json.Marshal(struct {
			Resps []runtime.WireResponse `json:"resps"`
		}{[]runtime.WireResponse{{Key: c.res.Key, Result: c.res}}})
		if err != nil {
			return 0, 0, fmt.Errorf("wire probe: %w", err)
		}
		payloads = append(payloads, b)
	}
	var kb float64
	for _, p := range payloads {
		kb += float64(len(p)) / 1024
	}
	var buf bytes.Buffer
	start := time.Now()
	for _, p := range payloads {
		if _, err := wire.WriteFrame(&buf, p); err != nil {
			return 0, 0, fmt.Errorf("wire probe: %w", err)
		}
	}
	write := time.Since(start)
	start = time.Now()
	for i := range payloads {
		if _, _, err := wire.ReadFrame(&buf, i+1); err != nil {
			return 0, 0, fmt.Errorf("wire probe: %w", err)
		}
	}
	read := time.Since(start)
	return float64(write.Nanoseconds()) / 1e3 / kb, float64(read.Nanoseconds()) / 1e3 / kb, nil
}
