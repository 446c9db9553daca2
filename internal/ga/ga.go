// Package ga implements a steady-state genetic algorithm over a
// discrete candidate set — the substrate of the paper's "Adaptive (GA)"
// baseline, which adjusts the FL global parameters every round with a
// genetic algorithm (paper §4.1, citing Alibrahim & Ludwig).
//
// Candidates are genomes of integer gene indices (one gene per
// parameter dimension, e.g. B/E/K). The population evolves one
// suggestion per Observe via tournament selection, single-point
// crossover and per-gene mutation; fitness of unevaluated genomes is
// the mean fitness of their evaluated neighbours (same dimension
// values), falling back to optimistic initialization.
package ga

import (
	"fedgpo/internal/stats"
)

// The algorithm is sized for round-by-round FL parameter tuning: a
// small population that turns over within tens of rounds, strong
// selection pressure (competitors per parent draw), and a low per-gene
// mutation rate so the population homogenizes (and the tuner
// effectively exploits) once a good genome dominates.
const (
	populationSize = 12
	tournamentK    = 4
	mutationRate   = 0.06
)

// Optimizer evolves genomes over the gene space. Not safe for
// concurrent use.
type Optimizer struct {
	geneSizes []int
	rng       *stats.RNG
	pop       []genome
	cursor    int // next population slot to evaluate
	gen       int
}

type genome struct {
	genes     []int
	fitness   float64
	evaluated bool
}

// New builds an optimizer over a gene space given by the number of
// discrete values per dimension (e.g. [6, 5, 5] for B, E, K). It
// panics on an empty or non-positive gene space.
func New(geneSizes []int, rng *stats.RNG) *Optimizer {
	if len(geneSizes) == 0 {
		panic("ga: empty gene space")
	}
	for _, s := range geneSizes {
		if s <= 0 {
			panic("ga: gene sizes must be positive")
		}
	}
	o := &Optimizer{geneSizes: append([]int(nil), geneSizes...), rng: rng}
	o.pop = make([]genome, populationSize)
	for i := range o.pop {
		o.pop[i] = genome{genes: o.randomGenes()}
	}
	return o
}

func (o *Optimizer) randomGenes() []int {
	g := make([]int, len(o.geneSizes))
	for i, s := range o.geneSizes {
		g[i] = o.rng.Intn(s)
	}
	return g
}

// Suggest returns the genome to evaluate next (a copy).
func (o *Optimizer) Suggest() []int {
	g := o.pop[o.cursor].genes
	out := make([]int, len(g))
	copy(out, g)
	return out
}

// Observe records the fitness of the genome last suggested and advances
// the evolutionary state: once the whole population has been evaluated,
// a new generation is bred.
func (o *Optimizer) Observe(fitness float64) {
	o.pop[o.cursor].fitness = fitness
	o.pop[o.cursor].evaluated = true
	o.cursor++
	if o.cursor >= len(o.pop) {
		o.evolve()
		o.cursor = 0
		o.gen++
	}
}

// Best returns the genes of the best evaluated genome so far, or a
// random genome if none has been evaluated.
func (o *Optimizer) Best() []int {
	bestIdx, bestFit, found := 0, 0.0, false
	for i, g := range o.pop {
		if g.evaluated && (!found || g.fitness > bestFit) {
			bestIdx, bestFit, found = i, g.fitness, true
		}
	}
	if !found {
		return o.randomGenes()
	}
	out := make([]int, len(o.pop[bestIdx].genes))
	copy(out, o.pop[bestIdx].genes)
	return out
}

// evolve breeds the next generation: elitism for the best genome, the
// rest from tournament selection + crossover + mutation.
func (o *Optimizer) evolve() {
	next := make([]genome, 0, len(o.pop))
	next = append(next, genome{genes: o.Best()}) // elite carries over
	for len(next) < len(o.pop) {
		a := o.tournament()
		b := o.tournament()
		child := o.crossover(a, b)
		o.mutate(child)
		next = append(next, genome{genes: child})
	}
	o.pop = next
}

// tournament returns the genes of the fittest of tournamentK random
// competitors.
func (o *Optimizer) tournament() []int {
	best := -1
	for i := 0; i < tournamentK; i++ {
		c := o.rng.Intn(len(o.pop))
		if best == -1 || o.pop[c].fitness > o.pop[best].fitness {
			best = c
		}
	}
	return o.pop[best].genes
}

// crossover performs single-point crossover.
func (o *Optimizer) crossover(a, b []int) []int {
	child := make([]int, len(a))
	cut := o.rng.Intn(len(a))
	for i := range child {
		if i <= cut {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	return child
}

// mutate randomly resets genes at the mutation rate.
func (o *Optimizer) mutate(g []int) {
	for i := range g {
		if o.rng.Bernoulli(mutationRate) {
			g[i] = o.rng.Intn(o.geneSizes[i])
		}
	}
}
