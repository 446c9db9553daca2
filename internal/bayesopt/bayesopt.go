// Package bayesopt implements Gaussian-process Bayesian optimization
// over a discrete candidate set — the substrate of the paper's
// "Adaptive (BO)" baseline, which re-selects the FL global parameters
// every aggregation round using the same BO machinery state-of-the-art
// HPO methods build on (paper §4.1, citing Souza et al.).
//
// The implementation is a standard exact GP with an RBF kernel over
// normalized candidate coordinates and an expected-improvement
// acquisition function, maximizing a scalar reward. Observation noise
// is handled with a diagonal jitter.
//
// Cost model, for C candidates and n ≤ Window observations: New builds
// the C×C kernel (Gram) table once, O(C²) time and memory, so no
// kernel is evaluated afterwards. Each Suggest then costs an O(n³)
// Cholesky factorization plus O(C·n) for the posterior mean, plus
// O(C·n²) for the posterior stddev — which only expected improvement
// reads, so that term is paid before ExploitAfter only. All per-round
// work runs in scratch the Optimizer owns: Suggest and Observe do not
// allocate once the window is full.
package bayesopt

import (
	"math"

	"fedgpo/internal/stats"
)

// Optimizer maximizes an unknown f over a fixed discrete candidate set.
// Not safe for concurrent use.
type Optimizer struct {
	points       [][]float64 // normalized candidate coordinates
	gram         []float64   // gram[i*C+j] = kernel(points[i], points[j])
	xs           []int       // observed candidate indices, oldest first
	ys           []float64   // observed values
	rng          *stats.RNG
	noise        float64
	xi           float64 // EI exploration margin
	maxPoints    int     // cap on the GP design matrix (sliding window)
	exploitAfter int
	observed     int // lifetime observation count

	// Per-Suggest scratch, sized once in New.
	l         []float64 // n×n row-major: K + noise·I, factored in place
	alpha     []float64 // (K + noise·I)⁻¹·yc
	kstar     []float64 // k* for one candidate, then L⁻¹·k*
	mu, sigma []float64 // posterior at every candidate
}

// Config tunes the optimizer.
type Config struct {
	// LengthScale of the RBF kernel in normalized coordinate space.
	LengthScale float64
	// Noise is the observation-noise variance added to the kernel
	// diagonal.
	Noise float64
	// Xi is the expected-improvement exploration margin.
	Xi float64
	// Window caps the number of most-recent observations kept in the
	// GP (older rounds are stale under runtime variance anyway).
	Window int
	// ExploitAfter switches Suggest from expected improvement to pure
	// posterior-mean maximization once this many observations have
	// accumulated (0 = never). Round-by-round FL tuning needs the
	// optimizer to eventually commit — perpetual EI exploration keeps
	// perturbing the training configuration forever.
	ExploitAfter int
}

// DefaultConfig returns a reasonable operating point for round-by-round
// FL parameter tuning.
func DefaultConfig() Config {
	return Config{LengthScale: 0.35, Noise: 0.05, Xi: 0.01, Window: 60, ExploitAfter: 50}
}

// New builds an optimizer over the candidate coordinate set. Each
// candidate is a point in [0,1]^d (normalize before calling). It panics
// on an empty candidate set or inconsistent dimensions.
func New(candidates [][]float64, cfg Config, rng *stats.RNG) *Optimizer {
	if len(candidates) == 0 {
		panic("bayesopt: empty candidate set")
	}
	d := len(candidates[0])
	for _, c := range candidates {
		if len(c) != d {
			panic("bayesopt: inconsistent candidate dimensions")
		}
	}
	if cfg.LengthScale <= 0 || cfg.Noise <= 0 || cfg.Window <= 0 {
		panic("bayesopt: config values must be positive")
	}
	c, w := len(candidates), cfg.Window
	gram := make([]float64, c*c)
	for i, a := range candidates {
		for j, b := range candidates {
			gram[i*c+j] = kernel(a, b, cfg.LengthScale)
		}
	}
	return &Optimizer{
		points:       candidates,
		gram:         gram,
		xs:           make([]int, 0, w),
		ys:           make([]float64, 0, w),
		rng:          rng,
		noise:        cfg.Noise,
		xi:           cfg.Xi,
		maxPoints:    w,
		exploitAfter: cfg.ExploitAfter,
		l:            make([]float64, w*w),
		alpha:        make([]float64, w),
		kstar:        make([]float64, w),
		mu:           make([]float64, c),
		sigma:        make([]float64, c),
	}
}

// Observe records the outcome of evaluating candidate idx. Once the
// window is full the oldest observation slides out.
func (o *Optimizer) Observe(idx int, y float64) {
	if idx < 0 || idx >= len(o.points) {
		panic("bayesopt: candidate index out of range")
	}
	o.observed++
	if n := len(o.xs); n == o.maxPoints {
		copy(o.xs, o.xs[1:])
		copy(o.ys, o.ys[1:])
		o.xs[n-1], o.ys[n-1] = idx, y
		return
	}
	o.xs = append(o.xs, idx)
	o.ys = append(o.ys, y)
}

// Suggest returns the candidate index with the highest expected
// improvement under the current posterior (or, after ExploitAfter
// observations, the highest posterior mean). With no observations it
// explores uniformly at random.
func (o *Optimizer) Suggest() int {
	if len(o.xs) == 0 {
		return o.rng.Intn(len(o.points))
	}
	if o.exploitAfter > 0 && o.observed >= o.exploitAfter {
		mu, _ := o.posterior(false)
		return stats.ArgMax(mu)
	}
	mu, sigma := o.posterior(true)
	best := stats.Max(o.ys)
	bestIdx, bestEI := 0, math.Inf(-1)
	for i := range o.points {
		ei := expectedImprovement(mu[i], sigma[i], best, o.xi)
		if ei > bestEI {
			bestIdx, bestEI = i, ei
		}
	}
	return bestIdx
}

// kernel is the RBF covariance between two normalized points.
func kernel(a, b []float64, lengthSc float64) float64 {
	d2 := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return math.Exp(-d2 / (2 * lengthSc * lengthSc))
}

// posterior computes the GP posterior mean at every candidate, and the
// stddev too when withSigma is set (otherwise sigma is stale). Values
// are standardized internally so the kernel amplitude can stay at 1.
// The returned slices are the Optimizer's scratch, valid until the
// next call.
func (o *Optimizer) posterior(withSigma bool) (mu, sigma []float64) {
	n, c := len(o.xs), len(o.points)
	mean := stats.Mean(o.ys)
	std := stats.StdDev(o.ys)
	if std < 1e-9 {
		std = 1
	}
	mu, sigma = o.mu, o.sigma
	// K + noise·I (lower triangle; the factorization reads no more).
	l := o.l[:n*n]
	for i, xi := range o.xs {
		for j, xj := range o.xs[:i+1] {
			l[i*n+j] = o.gram[xi*c+xj]
		}
		l[i*n+i] += o.noise
	}
	if !cholesky(l, n) {
		// Numerically degenerate: fall back to prior.
		for i := range mu {
			mu[i] = mean
			sigma[i] = std
		}
		return mu, sigma
	}
	alpha := o.alpha[:n]
	for i, y := range o.ys {
		alpha[i] = (y - mean) / std
	}
	forwardSolve(l, n, alpha)
	backSolve(l, n, alpha)

	kstar := o.kstar[:n]
	for i := range o.points {
		row := o.gram[i*c : (i+1)*c]
		for j, xj := range o.xs {
			kstar[j] = row[xj]
		}
		m := 0.0
		for j := range kstar {
			m += kstar[j] * alpha[j]
		}
		mu[i] = m*std + mean
		if !withSigma {
			continue
		}
		forwardSolve(l, n, kstar)
		varReduction := 0.0
		for _, x := range kstar {
			varReduction += x * x
		}
		variance := 1 - varReduction
		if variance < 1e-12 {
			variance = 1e-12
		}
		sigma[i] = math.Sqrt(variance) * std
	}
	return mu, sigma
}

// expectedImprovement is the standard EI acquisition for maximization.
func expectedImprovement(mu, sigma, best, xi float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (mu - best - xi) / sigma
	return (mu-best-xi)*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// cholesky factors the symmetric positive definite n×n row-major
// matrix a into its lower-triangular factor L, in place: only the lower
// triangle is read or written. It returns false if a is not SPD.
func cholesky(a []float64, n int) bool {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= a[i*n+k] * a[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					return false
				}
				a[i*n+i] = math.Sqrt(sum)
			} else {
				a[i*n+j] = sum / a[j*n+j]
			}
		}
	}
	return true
}

// forwardSolve solves L·x = b in place (x overwrites b) for the
// lower-triangular n×n row-major L.
func forwardSolve(l []float64, n int, b []float64) {
	for i := 0; i < n; i++ {
		sum := b[i]
		for j := 0; j < i; j++ {
			sum -= l[i*n+j] * b[j]
		}
		b[i] = sum / l[i*n+i]
	}
}

// backSolve solves Lᵀ·x = b in place (x overwrites b) for the
// lower-triangular n×n row-major L.
func backSolve(l []float64, n int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= l[j*n+i] * b[j]
		}
		b[i] = sum / l[i*n+i]
	}
}
