package fedex

import (
	"math"
	"slices"
	"testing"

	"fedgpo/internal/stats"
)

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, stats.NewRNG(1)) },
		func() { New(1000, stats.NewRNG(1)) }, // 1000 arms at the 1e-3 floor leave nothing to learn
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	o := New(10, stats.NewRNG(1))
	for i := 0; i < 50; i++ {
		idx := o.Suggest()
		o.Observe(float64(idx)) // arbitrary rewards
		p := o.probabilities()
		sum := 0.0
		for _, v := range p {
			if v < minProb-1e-12 {
				t.Fatalf("probability %v below floor", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestConcentratesOnBestArm(t *testing.T) {
	// Arm 7 pays 10, everything else pays 0 (with light noise).
	o := New(10, stats.NewRNG(2))
	noise := stats.NewRNG(3)
	for i := 0; i < 600; i++ {
		arm := o.Suggest()
		r := noise.Gaussian(0, 0.2)
		if arm == 7 {
			r += 10
		}
		o.Observe(r)
	}
	p := o.probabilities()
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	if best != 7 {
		t.Errorf("most probable arm = %d, want 7 (probs=%v)", best, p)
	}
	if p[7] < 0.5 {
		t.Errorf("best arm probability = %v, want > 0.5", p[7])
	}
}

func TestObserveWithoutSuggestIsNoOp(t *testing.T) {
	o := New(4, stats.NewRNG(1))
	before := slices.Clone(o.probabilities())
	o.Observe(100)
	after := o.probabilities()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Observe without Suggest changed the distribution")
		}
	}
}

func TestWeightsStayBounded(t *testing.T) {
	o := New(5, stats.NewRNG(4))
	for i := 0; i < 5000; i++ {
		arm := o.Suggest()
		r := -100.0
		if arm == 0 {
			r = 100
		}
		o.Observe(r)
	}
	for _, w := range o.logW {
		if math.IsNaN(w) || math.IsInf(w, 0) || w > 0.001 || w < -26 {
			t.Fatalf("log-weight out of bounds: %v", w)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() []float64 {
		o := New(6, stats.NewRNG(11))
		for i := 0; i < 200; i++ {
			arm := o.Suggest()
			o.Observe(float64(arm % 3))
		}
		return slices.Clone(o.probabilities())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed FedEX runs diverged")
		}
	}
}

// A steady Suggest+Observe round writes the distribution into the
// optimizer's scratch, so it allocates nothing.
func TestSteadyRoundAllocs(t *testing.T) {
	o := New(10, stats.NewRNG(5))
	reward := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		arm := o.Suggest()
		reward += float64(arm%3) - 1
		o.Observe(reward)
	})
	if allocs != 0 {
		t.Errorf("Suggest+Observe makes %v allocations per round, want 0", allocs)
	}
}

// refOptimizer is FedEX as a from-scratch reference: it recomputes the
// sampling distribution from the log-weights wherever it reads one.
type refOptimizer struct {
	logW            []float64
	rng             *stats.RNG
	baseline, scale *stats.EMA
	lastArm         int
}

func (r *refOptimizer) probabilities() []float64 {
	n := len(r.logW)
	maxW := slices.Max(r.logW)
	p := make([]float64, n)
	sum := 0.0
	for i, w := range r.logW {
		p[i] = math.Exp(w - maxW)
		sum += p[i]
	}
	for i := range p {
		p[i] = p[i]/sum*(1-float64(n)*minProb) + minProb
	}
	return p
}

func (r *refOptimizer) suggest() int {
	r.lastArm = r.rng.Categorical(r.probabilities())
	return r.lastArm
}

func (r *refOptimizer) observe(reward float64) {
	r.scale.Add(math.Abs(reward) + 1e-9)
	norm := r.scale.Value()
	if norm <= 0 {
		norm = 1
	}
	advantage := (reward - r.baseline.Value()) / norm
	r.baseline.Add(reward)
	p := r.probabilities()
	r.logW[r.lastArm] += stepSize * advantage / p[r.lastArm] * p[r.lastArm]
	maxW := slices.Max(r.logW)
	for i := range r.logW {
		r.logW[i] -= maxW
		if r.logW[i] < -25 {
			r.logW[i] = -25
		}
	}
}

// Observe reads the distribution Suggest drew from instead of
// recomputing it: over 500 rounds the picks and the log-weights equal
// the from-scratch reference's, bit for bit.
func TestObserveMatchesRecomputedDistribution(t *testing.T) {
	const arms = 150
	o := New(arms, stats.NewRNG(7))
	ref := &refOptimizer{logW: make([]float64, arms), rng: stats.NewRNG(7),
		baseline: stats.NewEMA(baselineAlpha), scale: stats.NewEMA(0.1)}
	noise := stats.NewRNG(8)
	for round := 0; round < 500; round++ {
		arm, want := o.Suggest(), ref.suggest()
		if arm != want {
			t.Fatalf("round %d: Suggest = %d, reference %d", round, arm, want)
		}
		reward := float64(arm%17)/4 + noise.Gaussian(0, 0.5)
		o.Observe(reward)
		ref.observe(reward)
		for i := range ref.logW {
			if math.Float64bits(o.logW[i]) != math.Float64bits(ref.logW[i]) {
				t.Fatalf("round %d: logW[%d] = %v, reference %v", round, i, o.logW[i], ref.logW[i])
			}
		}
	}
}
