package exp

import (
	"fmt"
	"time"

	"fedgpo/internal/core"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
	"fedgpo/internal/stats"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// RewardConvergenceRound finds the round at which a reward trace
// settles: the first index from which the smoothed reward stays within
// tol of its final plateau for the rest of the trace. Returns -1 for
// traces that never settle.
func RewardConvergenceRound(history []float64, tol float64) int {
	if len(history) < 10 {
		return -1
	}
	// Smooth the trace. Eq. 1's no-improvement branch makes individual
	// rounds spike hard negative, so a slow EMA is needed to expose the
	// underlying plateau.
	ema := stats.NewEMA(0.08)
	smooth := make([]float64, len(history))
	for i, v := range history {
		smooth[i] = ema.Add(v)
	}
	plateau := stats.Mean(smooth[len(smooth)*3/4:])
	band := tol * (stats.Max(smooth) - stats.Min(smooth))
	if band <= 0 {
		return 1
	}
	for i := range smooth {
		settled := true
		for j := i; j < len(smooth); j++ {
			d := smooth[j] - plateau
			if d < 0 {
				d = -d
			}
			if d > band {
				settled = false
				break
			}
		}
		if settled {
			return i + 1
		}
	}
	return -1
}

// sec54Extra is the Kind-specific payload of the overhead-analysis
// job: the controller-internal measurements the run produced. The
// overhead durations are wall-clock; a cache hit replays the values
// measured when the cell first ran.
//
// The same wall-clock caveat extends to the pretrained-controller
// cache: a warm FedGPO cell's ControllerOverheadSec covers only the
// evaluation rounds of that cell. The Q-table warm-up's own Plan and
// Observe wall time is spent once, when the scenario's pretrain
// snapshot is first built, and is attributed to no cell at all — on a
// pretrain-cache hit (in-process or from -cachedir) the warm
// contender starts from restored tables without re-spending it. Treat
// every overhead row as "measured when this artifact was first
// computed", never as a property of the current rerun.
type sec54Extra struct {
	RewardHistory    []float64 `json:"rewardHistory"`
	IdentifyStatesNS int64     `json:"identifyStatesNS"`
	ChooseParamsNS   int64     `json:"chooseParamsNS"`
	CalcRewardNS     int64     `json:"calcRewardNS"`
	UpdateTablesNS   int64     `json:"updateTablesNS"`
	OverheadRounds   int       `json:"overheadRounds"`
	MemBytes         int       `json:"memBytes"`
}

// executeSec54 runs a "sec54" spec: the cold-controller probe run,
// full length, with the controller's internal phase timers and reward
// trace captured as the Extra payload. The *NS fields are wall-clock —
// the one place a spec's execution is not bit-reproducible (see the
// type comment above).
func executeSec54(r *Runtime, sp JobSpec) runtime.Result {
	col := telemetry.NewCollector()
	cfg := sp.Scenario.Config(sp.Seed)
	cfg.StopAtConvergence = false
	cfg.Telemetry = col
	t0 := time.Now()
	ctrl := r.controller(sp.Scenario, sp.Contender).(*core.Controller)
	col.RecordPhase(telemetry.PhasePretrain, time.Since(t0))
	traced := r.traceTarget(sp, ctrl)
	res := runtime.Result{Sim: fl.Run(cfg, ctrl)}
	r.publishTrace(sp, traced)
	m := col.Snapshot()
	res.Telemetry = &m
	ov := ctrl.Overhead()
	res.SetExtra(sec54Extra{
		RewardHistory:    ctrl.RewardHistory(),
		IdentifyStatesNS: int64(ov.IdentifyStates),
		ChooseParamsNS:   int64(ov.ChooseParams),
		CalcRewardNS:     int64(ov.CalcReward),
		UpdateTablesNS:   int64(ov.UpdateTables),
		OverheadRounds:   ov.Rounds,
		MemBytes:         ctrl.MemoryBytes(),
	})
	return res
}

// Sec54 reproduces the paper's §5.4 convergence and overhead analysis:
// the round at which the Q-table reward converges (paper: 30–40), the
// pre- vs post-convergence energy-efficiency gap (paper: 24.2% below
// Fixed (Best) before convergence), the per-round controller runtime
// broken down by phase (paper: 499.6 µs total, 0.7% of round time), and
// the Q-table memory footprint (paper: 0.4 MB).
func Sec54(o Options) Table {
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	if o.MaxRounds == 0 {
		s.MaxRounds = 150
	}
	rt := o.runtime()
	// The contender is the cold FedGPO spec so the probe's cache
	// identity tracks any change to the cold-controller naming scheme;
	// the sec54 kind runs it full-length (no convergence stop) so the
	// reward trace covers the whole trajectory.
	sp := JobSpec{Kind: KindSec54, Scenario: s, Contender: fedgpoColdContender(), Seed: o.seeds()[0]}
	out := rt.runSpecs([]JobSpec{sp})[0]
	var ex sec54Extra
	if err := out.GetExtra(&ex); err != nil {
		panic("exp: sec54 payload: " + err.Error())
	}
	res := out.Sim

	t := Table{
		ID:     "sec54",
		Title:  "FedGPO convergence and overhead analysis (CNN-MNIST, realistic environment)",
		Header: []string{"quantity", "measured", "paper"},
	}
	convRound := RewardConvergenceRound(ex.RewardHistory, 0.25)
	t.AddRow("reward convergence round", fmt.Sprint(convRound), "30-40")

	// Pre- vs post-convergence per-round energy.
	if convRound > 0 && convRound < res.RoundsExecuted {
		var pre, post float64
		var nPre, nPost int
		for _, rec := range res.History {
			if rec.Round < convRound {
				pre += rec.EnergyJ
				nPre++
			} else {
				post += rec.EnergyJ
				nPost++
			}
		}
		if nPre > 0 && nPost > 0 {
			gap := (pre/float64(nPre))/(post/float64(nPost)) - 1
			t.AddRow("pre-convergence energy overhead", fmtPct(100*gap), "~24.2% lower efficiency")
		}
	}

	perRound := func(ns int64) string {
		return fmt.Sprintf("%.1f us", float64(ns)/1e9/float64(max(1, ex.OverheadRounds))*1e6)
	}
	t.AddRow("identify per-device states", perRound(ex.IdentifyStatesNS), "496.8 us")
	t.AddRow("choose global parameters", perRound(ex.ChooseParamsNS), "0.2 us")
	t.AddRow("calculate reward", perRound(ex.CalcRewardNS), "2.1 us")
	t.AddRow("update Q-tables", perRound(ex.UpdateTablesNS), "0.5 us")
	totalNS := ex.IdentifyStatesNS + ex.ChooseParamsNS + ex.CalcRewardNS + ex.UpdateTablesNS
	t.AddRow("total controller overhead", perRound(totalNS), "499.6 us")
	t.AddRow("overhead share of round time",
		fmtPct(100*float64(totalNS)/1e9/float64(max(1, ex.OverheadRounds))/res.AvgRoundSeconds), "0.7%")
	t.AddRow("Q-table memory", fmt.Sprintf("%.1f KB", float64(ex.MemBytes)/1024), "~400 KB (0.4 MB)")
	t.Notes = append(t.Notes,
		"overhead is wall-clock measured inside the controller; the simulator's round time is virtual, so the share-of-round-time row divides real microseconds by simulated seconds exactly as the paper divides measured microseconds by real round seconds",
		"cached reruns replay overhead values measured when the cell first ran; likewise warm FedGPO cells exclude the Q-table warm-up's wall time, which is spent once per scenario when the pretrain snapshot is built (see the pretrained-controller cache)")
	return t
}
