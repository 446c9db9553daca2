// Package baseline provides the paper's comparison controllers as
// fl.Controller implementations (§4.1):
//
//   - Fixed (Best): the most energy-efficient fixed (B, E, K) found by
//     grid search (exp.FixedBestParams), held constant for the whole
//     run;
//   - Adaptive (BO): round-by-round Bayesian optimization over the
//     (B, E, K) grid;
//   - Adaptive (GA): round-by-round genetic algorithm;
//   - FedEX (paper [29]): exponentiated-gradient updates;
//   - ABS (paper [49]): deep-RL batch-size adaptation (internal/abs).
//
// All adaptive baselines optimize the same scalar round objective
// (energy-normalized, improvement-gated — see RoundReward), so the
// comparison isolates the optimizers, not their objectives.
package baseline

import (
	"math"
	"sync"
	"weak"

	"fedgpo/internal/bayesopt"
	"fedgpo/internal/device"
	"fedgpo/internal/fedex"
	"fedgpo/internal/fl"
	"fedgpo/internal/ga"
	"fedgpo/internal/stats"
)

// RoundReward is the shared scalar objective the adaptive baselines
// maximize: the same convergence-first, energy-second shape as FedGPO's
// Eq. 1 global terms, without the per-device term (these baselines pick
// one global configuration).
func RoundReward(energyNorm, accPct, prevAccPct float64) float64 {
	if accPct <= prevAccPct {
		return accPct - 100
	}
	headroom := 100 - prevAccPct
	if headroom < 1e-9 {
		headroom = 1e-9
	}
	return -energyNorm + 20*(100*(accPct-prevAccPct)/headroom)
}

// energyEMA normalizes round energy to a ~10 nominal, like FedGPO's
// EnergyNormalizer.
type energyEMA struct{ ema *stats.EMA }

func newEnergyEMA() *energyEMA { return &energyEMA{ema: stats.NewEMA(0.2)} }

func (e *energyEMA) norm(j float64) float64 {
	if j < 0 {
		j = 0
	}
	avg := e.ema.Add(j)
	if avg <= 0 {
		return 0
	}
	return 10 * j / avg
}

// staticPlan builds a Plan for a single global parameter setting.
func staticPlan(p fl.Params) fl.Plan {
	lp := fl.LocalParams{B: p.B, E: p.E}
	return fl.Plan{K: p.K, Local: func(*device.Device, *fl.DeviceState) fl.LocalParams {
		return lp
	}}
}

// CoarseGrid returns a reduced candidate set (24 of 150 combinations)
// spanning the action space, for callers that cannot afford the full
// grid search.
func CoarseGrid() []fl.Params {
	var out []fl.Params
	for _, b := range []int{2, 8, 16, 32} {
		for _, e := range []int{5, 10, 15} {
			for _, k := range []int{10, 20} {
				out = append(out, fl.Params{B: b, E: e, K: k})
			}
		}
	}
	return out
}

// BO is the Adaptive (BO) controller: a GP with expected improvement
// re-selects the global (B, E, K) every round.
type BO struct {
	opt     *bayesopt.Optimizer
	grid    []fl.Params
	energy  *energyEMA
	lastIdx int
}

var _ fl.Controller = (*BO)(nil)

// boSpace holds the (B, E, K) grid as a GP candidate space. Its
// kernel table is immutable, so concurrent and successive BO runs
// share one. Only the optimizers using it hold it strongly, so a
// process that has finished its BO runs does not keep the table.
var boSpace struct {
	mu sync.Mutex
	p  weak.Pointer[bayesopt.Space]
}

// sharedBOSpace returns the current BO candidate space, building it
// when no live optimizer holds one.
func sharedBOSpace() *bayesopt.Space {
	boSpace.mu.Lock()
	defer boSpace.mu.Unlock()
	if s := boSpace.p.Value(); s != nil {
		return s
	}
	grid := fl.AllParams()
	coords := make([][]float64, len(grid))
	for i, p := range grid {
		coords[i] = normalizeParams(p)
	}
	s := bayesopt.NewSpace(coords)
	boSpace.p = weak.Make(s)
	return s
}

// NewBO builds the Adaptive (BO) baseline.
func NewBO(seed int64) *BO {
	return &BO{
		opt:     bayesopt.New(sharedBOSpace(), bayesopt.DefaultConfig(), stats.NewRNG(seed)),
		grid:    fl.AllParams(),
		energy:  newEnergyEMA(),
		lastIdx: -1,
	}
}

// normalizeParams maps a grid point into [0,1]^3 (B on a log scale).
func normalizeParams(p fl.Params) []float64 {
	return []float64{
		math.Log2(float64(p.B)) / 5, // B in 1..32
		float64(p.E) / 20,
		float64(p.K) / 20,
	}
}

// Name identifies the controller.
func (b *BO) Name() string { return "Adaptive (BO)" }

// Plan asks the GP for the next configuration.
func (b *BO) Plan(fl.Observation) fl.Plan {
	b.lastIdx = b.opt.Suggest()
	return staticPlan(b.grid[b.lastIdx])
}

// Observe feeds the round reward back into the GP.
func (b *BO) Observe(res fl.RoundResult) {
	if b.lastIdx < 0 {
		return
	}
	r := RoundReward(b.energy.norm(res.EnergyGlobalJ), res.Accuracy*100, res.PrevAccuracy*100)
	b.opt.Observe(b.lastIdx, r)
	b.lastIdx = -1
}

// GA is the Adaptive (GA) controller: a genetic algorithm evolves the
// global (B, E, K) round-by-round.
type GA struct {
	opt        *ga.Optimizer
	energy     *energyEMA
	bs, es, ks []int
	lastGenes  []int
}

var _ fl.Controller = (*GA)(nil)

// NewGA builds the Adaptive (GA) baseline.
func NewGA(seed int64) *GA {
	bs, es, ks := fl.BValues(), fl.EValues(), fl.KValues()
	return &GA{
		opt:    ga.New([]int{len(bs), len(es), len(ks)}, stats.NewRNG(seed)),
		energy: newEnergyEMA(),
		bs:     bs, es: es, ks: ks,
	}
}

// Name identifies the controller.
func (g *GA) Name() string { return "Adaptive (GA)" }

// Plan evaluates the GA's next genome.
func (g *GA) Plan(fl.Observation) fl.Plan {
	g.lastGenes = g.opt.Suggest()
	return staticPlan(fl.Params{
		B: g.bs[g.lastGenes[0]], E: g.es[g.lastGenes[1]], K: g.ks[g.lastGenes[2]],
	})
}

// Observe records the genome's fitness.
func (g *GA) Observe(res fl.RoundResult) {
	if g.lastGenes == nil {
		return
	}
	r := RoundReward(g.energy.norm(res.EnergyGlobalJ), res.Accuracy*100, res.PrevAccuracy*100)
	g.opt.Observe(r)
	g.lastGenes = nil
}

// FedEX is the FedEX controller (paper [29]): exponentiated-gradient
// updates over the configuration grid.
type FedEX struct {
	opt     *fedex.Optimizer
	grid    []fl.Params
	energy  *energyEMA
	pending bool
}

var _ fl.Controller = (*FedEX)(nil)

// NewFedEX builds the FedEX baseline.
func NewFedEX(seed int64) *FedEX {
	grid := fl.AllParams()
	return &FedEX{
		opt:    fedex.New(len(grid), stats.NewRNG(seed)),
		grid:   grid,
		energy: newEnergyEMA(),
	}
}

// Name identifies the controller.
func (f *FedEX) Name() string { return "FedEX" }

// Plan samples a configuration from the Hedge distribution.
func (f *FedEX) Plan(fl.Observation) fl.Plan {
	idx := f.opt.Suggest()
	f.pending = true
	return staticPlan(f.grid[idx])
}

// Observe applies the exponentiated-gradient update.
func (f *FedEX) Observe(res fl.RoundResult) {
	if !f.pending {
		return
	}
	r := RoundReward(f.energy.norm(res.EnergyGlobalJ), res.Accuracy*100, res.PrevAccuracy*100)
	f.opt.Observe(r)
	f.pending = false
}
