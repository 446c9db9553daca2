package exp

import (
	"fmt"

	"fedgpo/internal/core"
	"fedgpo/internal/runtime"
	"fedgpo/internal/workload"
)

// ablationMetrics are the metric columns of abl-eps, abl-beta and
// abl-cold.
var ablationMetrics = []metric{metricPPW, metricConvRound, metricAccuracy}

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
	g := compareGroup{label: s.Name, s: s}
	var labels [][]string
	for _, eps := range []float64{0.1, 0.5, 0.9} {
		g.cs = append(g.cs, fedgpoVariantContender(s, fmt.Sprintf("FedGPO eps=%.1f", eps),
			func(c *core.Config) {
				c.RL.Epsilon = eps
				// The sensitivity question is about exploration during
				// operation, so the freeze is disabled.
				c.FreezeAfterRounds = 0
			}))
		labels = append(labels, []string{fmt.Sprintf("%.1f", eps)})
	}
	comparisonTable(&t, comparison([]compareGroup{g}, o.seeds(), o.runtime()), ablationMetrics, labels)
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
	def := core.DefaultConfig().RL
	g := compareGroup{label: s.Name, s: s, cs: []ContenderSpec{fedgpoVariantContender(s, "FedGPO", nil)}}
	labels := [][]string{{fmt.Sprintf("%.2f (default)", def.LearningRate), fmt.Sprintf("%.1f", def.Discount)}}
	for _, gamma := range []float64{0.1, 0.5, 0.9} {
		g.cs = append(g.cs, fedgpoVariantContender(s, fmt.Sprintf("FedGPO gamma=%.1f", gamma),
			func(c *core.Config) { c.RL.LearningRate = gamma }))
		labels = append(labels, []string{fmt.Sprintf("%.1f", gamma), fmt.Sprintf("%.1f", def.Discount)})
	}
	for _, mu := range []float64{0.5, 0.9} {
		g.cs = append(g.cs, fedgpoVariantContender(s, fmt.Sprintf("FedGPO mu=%.1f", mu),
			func(c *core.Config) { c.RL.Discount = mu }))
		labels = append(labels, []string{fmt.Sprintf("%.2f", def.LearningRate), fmt.Sprintf("%.1f", mu)})
	}
	comparisonTable(&t, comparison([]compareGroup{g}, o.seeds(), o.runtime()),
		[]metric{metricPPW, metricConvRound}, labels)
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

	g := compareGroup{label: s.Name, s: s}
	var memSpecs []JobSpec
	var labels [][]string
	for _, v := range variants {
		perDev := v.perDevice
		c := fedgpoVariantContender(s, v.name, func(cc *core.Config) { cc.PerDeviceTables = perDev })
		g.cs = append(g.cs, c)
		memSpecs = append(memSpecs, JobSpec{Kind: KindQMem, Scenario: s, Contender: c})
		labels = append(labels, []string{v.name})
	}
	// The shared-variant config equals the default, so its sim cells
	// are the same cache entries Fig5/Fig6/Fig9 use.
	ms := comparison([]compareGroup{g}, o.seeds(), rt)
	for i, res := range rt.runSpecs(memSpecs) {
		mem := extra[qmemExtra](res).MemBytes
		ms = append(ms, measurement{g.label, g.cs[i].Name, metricQMem, float64(mem) / 1024, unitKB})
	}
	comparisonTable(&t, ms, []metric{metricPPW, metricConvRound, metricQMem}, labels)
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
	g := compareGroup{label: s.Name, s: s, cs: []ContenderSpec{fedgpoVariantContender(s, "FedGPO", nil)}}
	labels := [][]string{{fmt.Sprintf("%.0f (default)", core.DefaultConfig().Reward.Beta)}}
	for _, beta := range []float64{5, 100} {
		g.cs = append(g.cs, fedgpoVariantContender(s, fmt.Sprintf("FedGPO beta=%.0f", beta),
			func(c *core.Config) { c.Reward.Beta = beta }))
		labels = append(labels, []string{fmt.Sprintf("%.0f", beta)})
	}
	comparisonTable(&t, comparison([]compareGroup{g}, o.seeds(), o.runtime()), ablationMetrics, labels)
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
	g := compareGroup{s.Name, s, []ContenderSpec{
		staticContender(best, "Fixed (Best)"),
		fedgpoColdContender(),
		fedgpoWarmContender(s),
	}}
	labels := [][]string{{"Fixed (Best) " + best.String()}, {"FedGPO (cold)"}, {"FedGPO (warm)"}}
	comparisonTable(&t, comparison([]compareGroup{g}, o.seeds(), rt), ablationMetrics, labels)
	return t
}
