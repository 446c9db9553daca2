package ga

import (
	"testing"

	"fedgpo/internal/stats"
)

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(nil, stats.NewRNG(1)) },
		func() { New([]int{0}, stats.NewRNG(1)) },
		func() { New([]int{3, -1}, stats.NewRNG(1)) },
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

func TestSuggestionsWithinGeneSpace(t *testing.T) {
	o := New([]int{6, 5, 5}, stats.NewRNG(1))
	for i := 0; i < 200; i++ {
		g := o.Suggest()
		if len(g) != 3 {
			t.Fatalf("genome length = %d", len(g))
		}
		if g[0] < 0 || g[0] >= 6 || g[1] < 0 || g[1] >= 5 || g[2] < 0 || g[2] >= 5 {
			t.Fatalf("genes out of range: %v", g)
		}
		o.Observe(0)
	}
}

func TestEvolvesTowardOptimum(t *testing.T) {
	// Fitness peaks at genes (4, 2, 3); the GA should concentrate
	// there within a few generations.
	target := []int{4, 2, 3}
	fitness := func(g []int) float64 {
		f := 0.0
		for i := range g {
			d := g[i] - target[i]
			if d < 0 {
				d = -d
			}
			f -= float64(d)
		}
		return f
	}
	o := New([]int{6, 5, 5}, stats.NewRNG(7))
	for i := 0; i < 400; i++ {
		g := o.Suggest()
		o.Observe(fitness(g))
	}
	best := o.Best()
	if fitness(best) < -2 {
		t.Errorf("GA best %v has fitness %v, want near-optimal (>= -2)", best, fitness(best))
	}
	if o.gen < 10 {
		t.Errorf("expected multiple generations, got %d", o.gen)
	}
}

func TestElitePreserved(t *testing.T) {
	// After a full generation, the best genome must survive.
	o := New([]int{10}, stats.NewRNG(3))
	bestGene, bestFit := -1, -1e18
	for i := 0; i < populationSize; i++ {
		g := o.Suggest()
		f := float64(g[0]) // fitness = gene value
		if f > bestFit {
			bestGene, bestFit = g[0], f
		}
		o.Observe(f)
	}
	// The new population's first genome is the elite.
	if o.pop[0].genes[0] != bestGene {
		t.Errorf("elite gene = %d, want %d", o.pop[0].genes[0], bestGene)
	}
}

func TestBestWithoutEvaluationsIsValid(t *testing.T) {
	o := New([]int{4, 4}, stats.NewRNG(5))
	g := o.Best()
	if len(g) != 2 || g[0] < 0 || g[0] >= 4 || g[1] < 0 || g[1] >= 4 {
		t.Errorf("unevaluated Best out of range: %v", g)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		o := New([]int{6, 5, 5}, stats.NewRNG(9))
		for i := 0; i < 100; i++ {
			g := o.Suggest()
			o.Observe(float64(-g[0] - g[1] - g[2]))
		}
		return o.Best()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed GA runs diverged")
		}
	}
}
