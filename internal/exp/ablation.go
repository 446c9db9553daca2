package exp

import (
	"fmt"

	"fedgpo/internal/core"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

// AblationEpsilon reproduces the paper's footnote-3 sensitivity study:
// exploration probability ϵ ∈ {0.1, 0.5, 0.9}. High ϵ keeps choosing
// random parameters, hurting both convergence and energy.
func AblationEpsilon(o Options) Table {
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	t := Table{
		ID:     "abl-eps",
		Title:  "FedGPO sensitivity to exploration probability ϵ (paper footnote 3)",
		Header: []string{"epsilon", "PPW (norm to eps=0.1)", "conv round", "accuracy"},
	}
	epsilons := []float64{0.1, 0.5, 0.9}
	rt := o.runtime()
	cells := make([]cell, len(epsilons))
	for i, eps := range epsilons {
		eps := eps
		cells[i] = cell{s, fedgpoVariantContender(s, fmt.Sprintf("FedGPO eps=%.1f", eps),
			func(c *core.Config) {
				c.RL.Epsilon = eps
				// The sensitivity question is about exploration during
				// operation, so the freeze is disabled.
				c.FreezeAfterRounds = 0
			})}
	}
	sums := rt.summaries(cells, o.seeds())
	base := sums[0].MeanPPW
	for i, eps := range epsilons {
		sum := sums[i]
		t.AddRow(fmt.Sprintf("%.1f", eps), fmtRatio(sum.MeanPPW/base),
			fmt.Sprintf("%.0f", sum.MeanConvergenceRound),
			fmtPct(100*sum.MeanFinalAccuracy))
	}
	t.Notes = append(t.Notes, "paper expectation: eps=0.1 best; larger eps degrades accuracy and convergence overhead")
	return t
}

// AblationGammaMu reproduces the paper's §4.1 hyperparameter
// sensitivity analysis over the Q-learning rate γ and discount µ
// (values {0.1, 0.5, 0.9} each, one axis at a time).
func AblationGammaMu(o Options) Table {
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	t := Table{
		ID:     "abl-gm",
		Title:  "FedGPO sensitivity to learning rate γ and discount µ (paper §4.1)",
		Header: []string{"gamma", "mu", "PPW (norm to default)", "conv round"},
	}
	def := core.DefaultConfig()
	gammas := []float64{0.1, 0.5, 0.9}
	mus := []float64{0.5, 0.9}

	rt := o.runtime()
	cells := []cell{{s, fedgpoVariantContender(s, "FedGPO", nil)}}
	for _, gamma := range gammas {
		g := gamma
		cells = append(cells, cell{s, fedgpoVariantContender(s, fmt.Sprintf("FedGPO gamma=%.1f", g),
			func(c *core.Config) { c.RL.LearningRate = g })})
	}
	for _, mu := range mus {
		m := mu
		cells = append(cells, cell{s, fedgpoVariantContender(s, fmt.Sprintf("FedGPO mu=%.1f", m),
			func(c *core.Config) { c.RL.Discount = m })})
	}
	sums := rt.summaries(cells, o.seeds())

	base := sums[0]
	t.AddRow(fmt.Sprintf("%.2f (default)", def.RL.LearningRate),
		fmt.Sprintf("%.1f", def.RL.Discount), "1.00x",
		fmt.Sprintf("%.0f", base.MeanConvergenceRound))
	for i, g := range gammas {
		sum := sums[1+i]
		t.AddRow(fmt.Sprintf("%.1f", g), fmt.Sprintf("%.1f", def.RL.Discount),
			fmtRatio(sum.MeanPPW/base.MeanPPW), fmt.Sprintf("%.0f", sum.MeanConvergenceRound))
	}
	for i, m := range mus {
		sum := sums[1+len(gammas)+i]
		t.AddRow(fmt.Sprintf("%.2f", def.RL.LearningRate), fmt.Sprintf("%.1f", m),
			fmtRatio(sum.MeanPPW/base.MeanPPW), fmt.Sprintf("%.0f", sum.MeanConvergenceRound))
	}
	t.Notes = append(t.Notes,
		"paper finds high γ / low µ best on its testbed; this simulator's reward is noisier across categories, so its sensitivity analysis selects a lower γ (see core.DefaultConfig)")
	return t
}

// qmemExtra is the Kind-specific payload of "qmem" jobs: the
// controller's Q-table memory footprint, measured after warm-up as
// the paper's footnote-2 variant reports it.
type qmemExtra struct {
	MemBytes int `json:"memBytes"`
}

// executeQMem runs a "qmem" spec: it materializes the warm controller
// (restoring its Q-tables from the pretrained-controller cache) and
// measures the table footprint — kept separate from the "sim" cells so
// those stay shareable with every other figure touching the same
// deployment.
func executeQMem(r *Runtime, sp JobSpec) runtime.Result {
	var res runtime.Result
	ctrl := r.controller(sp.Scenario, sp.Contender).(*core.Controller)
	res.SetExtra(qmemExtra{MemBytes: ctrl.MemoryBytes()})
	return res
}

// AblationTables reproduces the paper's footnote-2 variant: per-device
// Q-tables instead of tables shared across a performance category.
// Sharing pools experience (faster learning); per-device tables
// specialize (paper: +2.7% prediction accuracy, −12.2% convergence
// overhead trade-off).
func AblationTables(o Options) Table {
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	rt := o.runtime()
	t := Table{
		ID:     "abl-tables",
		Title:  "shared per-category vs per-device Q-tables (paper footnote 2)",
		Header: []string{"variant", "PPW (norm to shared)", "conv round", "Q-table memory"},
	}
	variants := []struct {
		name      string
		perDevice bool
	}{{"shared per-category", false}, {"per-device", true}}

	cells := make([]cell, len(variants))
	memSpecs := make([]JobSpec, len(variants))
	for i, v := range variants {
		perDev := v.perDevice
		c := fedgpoVariantContender(s, v.name, func(cc *core.Config) { cc.PerDeviceTables = perDev })
		cells[i] = cell{s, c}
		memSpecs[i] = JobSpec{Kind: KindQMem, Scenario: s, Contender: c}
	}
	// The shared-variant config equals the default, so its sim cells
	// are the same cache entries Fig5/Fig6/Fig9 use.
	sums := rt.summaries(cells, o.seeds())
	memResults := rt.runSpecs(memSpecs)

	base := sums[0].MeanPPW
	for i, v := range variants {
		var ex qmemExtra
		if err := memResults[i].GetExtra(&ex); err != nil {
			panic("exp: qmem payload: " + err.Error())
		}
		t.AddRow(v.name, fmtRatio(sums[i].MeanPPW/base),
			fmt.Sprintf("%.0f", sums[i].MeanConvergenceRound),
			fmt.Sprintf("%.1f KB", float64(ex.MemBytes)/1024))
	}
	return t
}

// AblationBeta sweeps the Eq. 1 reward weight β on the improvement
// term, the one weight that trades convergence against energy (see
// core.DefaultRewardConfig): too small and the policy chases cheap
// parameters at the cost of convergence; too large and energy stops
// mattering.
func AblationBeta(o Options) Table {
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	t := Table{
		ID:     "abl-beta",
		Title:  "FedGPO sensitivity to reward weight β (improvement term)",
		Header: []string{"beta", "PPW (norm to default)", "conv round", "accuracy"},
	}
	def := core.DefaultConfig().Reward.Beta
	betas := []float64{5, 100}
	rt := o.runtime()
	cells := []cell{{s, fedgpoVariantContender(s, "FedGPO", nil)}}
	for _, beta := range betas {
		b := beta
		cells = append(cells, cell{s, fedgpoVariantContender(s, fmt.Sprintf("FedGPO beta=%.0f", b),
			func(c *core.Config) { c.Reward.Beta = b })})
	}
	sums := rt.summaries(cells, o.seeds())

	base := sums[0]
	t.AddRow(fmt.Sprintf("%.0f (default)", def), "1.00x",
		fmt.Sprintf("%.0f", base.MeanConvergenceRound), fmtPct(100*base.MeanFinalAccuracy))
	for i, b := range betas {
		sum := sums[1+i]
		t.AddRow(fmt.Sprintf("%.0f", b), fmtRatio(sum.MeanPPW/base.MeanPPW),
			fmt.Sprintf("%.0f", sum.MeanConvergenceRound), fmtPct(100*sum.MeanFinalAccuracy))
	}
	return t
}

// AblationColdStart quantifies the learning-phase cost the paper's
// §5.4 describes: cold FedGPO (learning inside the measured run) versus
// warm-started FedGPO (Q-tables pre-trained), against Fixed (Best).
func AblationColdStart(o Options) Table {
	w := workload.CNNMNIST()
	s := o.apply(Realistic(w))
	rt := o.runtime()
	best := FixedBestParams(w, o.WithRuntime(rt))
	t := Table{
		ID:     "abl-cold",
		Title:  "learning-phase cost: cold vs warm-started FedGPO (CNN-MNIST, realistic)",
		Header: []string{"controller", "PPW (norm to Fixed)", "conv round", "accuracy"},
	}
	sums := rt.summaries([]cell{
		{s, staticContender(best, "Fixed (Best)")},
		{s, fedgpoColdContender()},
		{s, fedgpoWarmContender(s)},
	}, o.seeds())

	fixed := sums[0]
	t.AddRow("Fixed (Best) "+best.String(), "1.00x",
		fmt.Sprintf("%.0f", fixed.MeanConvergenceRound), fmtPct(100*fixed.MeanFinalAccuracy))
	for i, name := range []string{"FedGPO (cold)", "FedGPO (warm)"} {
		sum := sums[1+i]
		t.AddRow(name, fmtRatio(sum.MeanPPW/fixed.MeanPPW),
			fmt.Sprintf("%.0f", sum.MeanConvergenceRound), fmtPct(100*sum.MeanFinalAccuracy))
	}
	t.Notes = append(t.Notes,
		"paper §5.4: FedGPO runs ~24% below Fixed (Best) efficiency during the learning phase and overtakes after the Q-tables converge")
	return t
}
