package exp

import (
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// oracleExtra is the Kind-specific payload of a prediction-accuracy
// job: the mean per-round selection accuracy against the gap-free
// oracle, in percent.
type oracleExtra struct {
	MeanAccPct float64 `json:"meanAccPct"`
}

// oracleSpec describes the job measuring FedGPO's selection accuracy
// on one scenario. The controller key derives from the warm FedGPO
// contender so the probe's cache identity tracks any change to the
// warm-up naming scheme; the contender also routes the probe's
// controller through the pretrained-controller cache, so the probe
// shares its Q-table warm-up with the comparison figures touching the
// same scenario.
func oracleSpec(s ScenarioSpec, o Options, rounds int) JobSpec {
	return JobSpec{
		Kind:        KindOracle,
		Scenario:    s,
		Contender:   fedgpoWarmContender(s),
		Seed:        o.seeds()[0],
		ProbeRounds: rounds,
	}
}

// executeOracle runs an "oracle" spec: a full-length probe run whose
// controller is tapped each round to score how close FedGPO's
// selections come to the per-round gap-minimizing oracle of paper
// Table 5 ("these parameters are identified in terms of minimizing the
// performance gap across the devices, rather than global
// convergence"). The oracle's defining property is that every
// participant finishes together — its performance gap is zero — so
// selection accuracy is scored as how fully FedGPO's assignment fills
// the round's critical path:
//
//	accuracy = 100 × mean_d(time_d) / max_d(time_d)
//
// averaged over rounds. A perfectly equalized round scores 100%; a
// round where devices idle-wait half the critical path scores 50%.
// time_d is the participant's compute plus model round trip
// (fl.DeviceRound.TotalSec), before any deadline cut.
func executeOracle(r *Runtime, sp JobSpec) runtime.Result {
	s := sp.Scenario
	cfg := s.Config(sp.Seed)
	cfg.MaxRounds = sp.ProbeRounds
	cfg.StopAtConvergence = false

	ctrl := r.controller(s, sp.Contender)

	accs := make([]float64, 0, sp.ProbeRounds)
	probe := &oracleProbe{
		Controller: ctrl,
		onRound: func(rr fl.RoundResult) {
			if len(rr.Participants) == 0 {
				return
			}
			var sumT, maxT float64
			for _, p := range rr.Participants {
				sumT += p.TotalSec
				if p.TotalSec > maxT {
					maxT = p.TotalSec
				}
			}
			if maxT <= 0 {
				return
			}
			accs = append(accs, 100*sumT/(float64(len(rr.Participants))*maxT))
		},
	}
	res := runtime.Result{Sim: fl.Run(cfg, probe)}
	res.SetExtra(oracleExtra{MeanAccPct: stats.Mean(accs)})
	return res
}

// oracleProbe hands each round's result to onRound before the
// embedded controller observes it.
type oracleProbe struct {
	fl.Controller
	onRound func(fl.RoundResult)
}

func (p *oracleProbe) Observe(r fl.RoundResult) {
	p.onRound(r)
	p.Controller.Observe(r)
}

// Table5 reproduces paper Table 5: FedGPO's global-parameter selection
// accuracy against the per-round oracle, across the five
// variance/heterogeneity combinations — all five probes fanned out
// over the runtime in one batch.
func Table5(o Options) Table {
	w := workload.CNNMNIST()
	rounds := 60
	if o.MaxRounds > 0 && o.MaxRounds < rounds {
		rounds = o.MaxRounds
	}
	t := Table{
		ID:     "tab5",
		Title:  "accuracy of global parameter selection vs per-round oracle (CNN-MNIST)",
		Header: []string{"runtime variance", "data heterogeneity", "prediction accuracy"},
	}
	rows := []struct {
		label1, label2 string
		s              ScenarioSpec
	}{
		{"no", "no", o.apply(Ideal(w))},
		{"yes (on-device interference)", "no", o.apply(InterferenceOnly(w))},
		{"yes (unstable network)", "no", o.apply(UnstableNetworkOnly(w))},
		{"no", "yes", o.apply(NonIIDScenario(w))},
		{"yes", "yes", o.apply(RealisticNonIID(w))},
	}
	rt := o.runtime()
	specs := make([]JobSpec, len(rows))
	for i, r := range rows {
		specs[i] = oracleSpec(r.s, o, rounds)
	}
	results := rt.runSpecs(specs)
	for i, r := range rows {
		acc := extra[oracleExtra](results[i]).MeanAccPct
		t.add(row{labels: []string{r.label1, r.label2}, ms: []measurement{
			{r.s.Name, specs[i].Contender.Name, metricSelection, acc, unitPct}}})
	}
	return t
}
