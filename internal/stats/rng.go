// Package stats provides the deterministic random-number and statistics
// substrate used by every stochastic component of the FedGPO simulator:
// Gaussian and Dirichlet sampling for network variance and non-IID data
// partitioning, categorical draws for participant selection, and summary
// statistics for experiment reporting.
//
// All randomness in the repository flows through RNG so that experiments
// are reproducible bit-for-bit for a given seed.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of all randomness used by the simulator.
// It wraps math/rand.Rand and adds the distributions the paper's
// methodology calls for (Gaussian bandwidth, Dirichlet(0.1) data skew).
//
// A stream is seeded on its first draw: NewRNG and Split keep only the
// seed, and math/rand's source (about 5 KB, and a 607-word seeding
// loop) is allocated when the stream first draws. A stream that never
// draws costs one small struct. The draws are the same either way.
//
// RNG is not safe for concurrent use; give each goroutine its own
// stream via Split. It must not be copied: its Rand and its src point
// at each other until the first draw.
type RNG struct {
	r   rand.Rand
	src lazySource
}

// lazySource is the rand.Source64 of an RNG that has not drawn yet.
// The first draw seeds math/rand's source and installs it in the RNG's
// Rand in place of the lazySource, so later draws reach it directly.
type lazySource struct {
	seed int64
	r    *rand.Rand // the Rand reading this source
}

func (s *lazySource) Int63() int64    { return s.install().Int63() }
func (s *lazySource) Uint64() uint64  { return s.install().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed = seed }

// install seeds math/rand's source, puts it in place of s in the Rand
// and returns it.
func (s *lazySource) install() rand.Source64 {
	src := rand.NewSource(s.seed).(rand.Source64)
	*s.r = *rand.New(src)
	return src
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src = lazySource{seed: seed, r: &g.r}
	g.r = *rand.New(&g.src)
	return g
}

// Reseed restarts the stream at seed, leaving exactly the state
// NewRNG(seed) would: a caller that runs many seeded streams one after
// another can keep one source instead of allocating a new one (about
// 4.9 KB) each time.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Split derives an independent child stream. The child is seeded from
// the parent's stream, so a fixed sequence of Split calls on a fixed
// seed yields a fixed family of streams. The parent draws the child's
// seed at once, so the parent's stream does not depend on whether the
// child ever draws.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Norm returns a standard-normal sample, N(0, 1).
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Gaussian returns a sample from N(mean, stddev^2).
func (g *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*g.Norm()
}

// TruncGaussian returns a Gaussian sample clamped to [lo, hi].
// The paper models wireless bandwidth as Gaussian; clamping keeps the
// sample physically meaningful (bandwidth cannot be negative).
func (g *RNG) TruncGaussian(mean, stddev, lo, hi float64) float64 {
	v := g.Gaussian(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// gammaSample draws from Gamma(alpha, 1) using Marsaglia-Tsang for
// alpha >= 1 and the boost trick for alpha < 1. It is the kernel of
// Dirichlet sampling.
func (g *RNG) gammaSample(alpha float64) float64 {
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.gammaSample(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet returns a sample from Dirichlet(alpha_1 ... alpha_n) given
// by the concentration slice. The result sums to 1 (within float error)
// and has len(alpha) entries. It panics if alpha is empty or contains a
// non-positive entry.
func (g *RNG) Dirichlet(alpha []float64) []float64 {
	if len(alpha) == 0 {
		panic("stats: Dirichlet needs at least one concentration")
	}
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		if a <= 0 {
			panic("stats: Dirichlet concentrations must be positive")
		}
		out[i] = g.gammaSample(a)
		sum += out[i]
	}
	if sum == 0 {
		// Pathologically small concentrations can underflow every
		// component; fall back to a uniform simplex point.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SymmetricDirichlet returns a sample from Dirichlet with n components
// all sharing concentration alpha. The paper partitions non-IID data
// with a Dirichlet of concentration 0.1.
func (g *RNG) SymmetricDirichlet(n int, alpha float64) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = alpha
	}
	return g.Dirichlet(a)
}

// Categorical draws an index with probability proportional to the
// supplied non-negative weights. It panics if weights is empty or all
// weights are zero/negative.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: Categorical needs at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: Categorical needs a positive total weight")
	}
	x := g.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if x < acc {
			return i
		}
	}
	// Float round-off can leave x just above acc; return the last
	// positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return 0
}

// PermInto fills p with a random permutation of [0, len(p)), consuming
// exactly the same draws as math/rand's Perm(len(p)) — the result and
// the RNG's subsequent stream are identical, only the allocation is
// the caller's.
// It exists for the simulator's per-round participant selection, which
// would otherwise allocate a fresh permutation every round.
func (g *RNG) PermInto(p []int) {
	// This replicates math/rand.(*Rand).Perm exactly, including the
	// redundant i=0 iteration: that iteration draws from the source, so
	// skipping it would fork the stream (the same Go 1 compatibility
	// note appears in math/rand itself).
	for i := 0; i < len(p); i++ {
		j := g.r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Shuffle randomly permutes a slice of ints in place.
func (g *RNG) Shuffle(xs []int) {
	g.r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
