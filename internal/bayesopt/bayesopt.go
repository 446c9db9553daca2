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
// It comes in two parts. A Space is the candidate set with its C×C
// kernel (Gram) table: built once, O(C²) time and memory, immutable
// and safe for concurrent reads, so every optimizer over the same
// candidates can share one. An Optimizer is one run's GP over a Space.
//
// Cost model, for C candidates and n ≤ Window observations. The
// Optimizer keeps the Cholesky factor of K + noise·I across rounds.
// Row i of the factor reads only the first i+1 observations, so while
// the window grows each Suggest factors one new row, O(n²). A slide
// shifts every observation and refactors the whole window, O(n³) at
// most: a row whose candidate already sits in an earlier row p copies
// that row's first p columns, which were computed from identical
// inputs, and computes only the rest; a row computes two columns per
// pass, sharing their dot over the earlier columns. The posterior mean
// then costs O(n²) for the weights plus O(C·n) for the sum of n kernel
// rows, taken four observations per pass over the C candidates, so the
// candidates' add chains run side by side. The weights' forward solve
// takes two rows per pass like the factor; the back solve stays one
// row per pass, because row i's sum starts with the newest weight
// b[i+1] and pairing rows would reorder its subtractions. The
// posterior stddev, which only expected improvement reads (so before
// ExploitAfter only), keeps each candidate's L⁻¹·k* and a running sum
// of its squares, so a new observation costs O(C·n); a slide resets
// them. Every value is computed with the same float operations, in the
// same order, as a from-scratch factorization and solve, so results
// match one to the last bit. All per-round work runs in scratch the
// Optimizer owns: Suggest and Observe do not allocate.
package bayesopt

import (
	"math"

	"fedgpo/internal/stats"
)

// lengthScale is the RBF kernel's length scale, in normalized
// coordinate space.
const lengthScale = 0.35

// Space is a fixed discrete candidate set and its kernel table. It is
// immutable once built and safe for concurrent use.
type Space struct {
	c int
	// gram[i*c+j] = kernel(candidate i, candidate j). It is symmetric
	// to the bit: kernel squares each coordinate difference, which only
	// changes sign when the candidates swap.
	gram []float64
}

// NewSpace builds the space over the candidate coordinate set. Each
// candidate is a point in [0,1]^d (normalize before calling). It
// panics on an empty candidate set or inconsistent dimensions.
func NewSpace(candidates [][]float64) *Space {
	if len(candidates) == 0 {
		panic("bayesopt: empty candidate set")
	}
	d := len(candidates[0])
	for _, c := range candidates {
		if len(c) != d {
			panic("bayesopt: inconsistent candidate dimensions")
		}
	}
	c := len(candidates)
	gram := make([]float64, c*c)
	for i, a := range candidates {
		for j, b := range candidates {
			gram[i*c+j] = kernel(a, b, lengthScale)
		}
	}
	return &Space{c: c, gram: gram}
}

// Optimizer maximizes an unknown f over a Space's candidates.
// Not safe for concurrent use.
type Optimizer struct {
	space        *Space
	xs           []int     // observed candidate indices, oldest first
	ys           []float64 // observed values
	rng          *stats.RNG
	noise        float64
	xi           float64 // EI exploration margin
	window       int     // cap on the GP design matrix (sliding window)
	exploitAfter int
	observed     int // lifetime observation count

	// l holds the Cholesky factor of K + noise·I over xs, lower
	// triangle, row-major with row stride window. Rows [0, rows) are
	// current; Observe resets rows on a slide, and posterior factors
	// the rest. last[c] is the latest factored row whose candidate is
	// c, or -1.
	l    []float64
	rows int
	last []int

	// v holds L⁻¹·k* for every candidate, row stride window, and ss
	// each one's sum of squares; entries [0, solved) are current.
	v      []float64
	ss     []float64
	solved int

	alpha     []float64 // (K + noise·I)⁻¹·yc
	mu, sigma []float64 // posterior at every candidate
}

// Config tunes the optimizer.
type Config struct {
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
	return Config{Noise: 0.05, Xi: 0.01, Window: 60, ExploitAfter: 50}
}

// New builds an optimizer over space. It panics on a non-positive
// Noise or Window.
func New(space *Space, cfg Config, rng *stats.RNG) *Optimizer {
	if cfg.Noise <= 0 || cfg.Window <= 0 {
		panic("bayesopt: config values must be positive")
	}
	c, w := space.c, cfg.Window
	return &Optimizer{
		space:        space,
		xs:           make([]int, 0, w),
		ys:           make([]float64, 0, w),
		rng:          rng,
		noise:        cfg.Noise,
		xi:           cfg.Xi,
		window:       w,
		exploitAfter: cfg.ExploitAfter,
		l:            make([]float64, w*w),
		last:         make([]int, c),
		v:            make([]float64, c*w),
		ss:           make([]float64, c),
		alpha:        make([]float64, w),
		mu:           make([]float64, c),
		sigma:        make([]float64, c),
	}
}

// Observe records the outcome of evaluating candidate idx. Once the
// window is full the oldest observation slides out.
func (o *Optimizer) Observe(idx int, y float64) {
	if idx < 0 || idx >= o.space.c {
		panic("bayesopt: candidate index out of range")
	}
	o.observed++
	if n := len(o.xs); n == o.window {
		copy(o.xs, o.xs[1:])
		copy(o.ys, o.ys[1:])
		o.xs[n-1], o.ys[n-1] = idx, y
		// Every observation moved up a row.
		o.rows, o.solved = 0, 0
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
		return o.rng.Intn(o.space.c)
	}
	if o.exploitAfter > 0 && o.observed >= o.exploitAfter {
		mu, _ := o.posterior(false)
		return stats.ArgMax(mu)
	}
	mu, sigma := o.posterior(true)
	best := stats.Max(o.ys)
	bestIdx, bestEI := 0, math.Inf(-1)
	for i := range mu {
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
	n, c := len(o.xs), o.space.c
	mean := stats.Mean(o.ys)
	std := stats.StdDev(o.ys)
	if std < 1e-9 {
		std = 1
	}
	mu, sigma = o.mu, o.sigma
	if !o.factor() {
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
	forwardSolve(o.l, o.window, alpha)
	backSolve(o.l, o.window, alpha)
	if withSigma {
		o.solve()
	}
	// The mean is a sum of kernel rows, mu += gram[xs[j]]·alpha[j],
	// four observations per pass over the candidates: each candidate's
	// adds run in observation order, and the candidates' add chains are
	// independent. gram is symmetric to the bit, so row xs[j] holds
	// every candidate's kernel against observation j.
	gram := o.space.gram
	clear(mu)
	j := 0
	for ; j+4 <= n; j += 4 {
		r0 := gram[o.xs[j]*c:][:len(mu)]
		r1 := gram[o.xs[j+1]*c:][:len(mu)]
		r2 := gram[o.xs[j+2]*c:][:len(mu)]
		r3 := gram[o.xs[j+3]*c:][:len(mu)]
		a0, a1, a2, a3 := alpha[j], alpha[j+1], alpha[j+2], alpha[j+3]
		for i := range mu {
			m := mu[i]
			m += r0[i] * a0
			m += r1[i] * a1
			m += r2[i] * a2
			m += r3[i] * a3
			mu[i] = m
		}
	}
	for ; j < n; j++ {
		row := gram[o.xs[j]*c:][:len(mu)]
		aj := alpha[j]
		for i := range mu {
			mu[i] += row[i] * aj
		}
	}
	for i := range mu {
		mu[i] = mu[i]*std + mean
	}
	if !withSigma {
		return mu, sigma
	}
	for i := range sigma {
		variance := 1 - o.ss[i]
		if variance < 1e-12 {
			variance = 1e-12
		}
		sigma[i] = math.Sqrt(variance) * std
	}
	return mu, sigma
}

// factor brings the Cholesky factor up to date with xs, one row at a
// time from the first stale one. It returns false if K + noise·I is
// not positive definite; the rows before the failing one stay current.
func (o *Optimizer) factor() bool {
	if o.rows == 0 {
		for i := range o.last {
			o.last[i] = -1
		}
	}
	w, c := o.window, o.space.c
	for i := o.rows; i < len(o.xs); i++ {
		xi := o.xs[i]
		row := o.l[i*w : i*w+i+1]
		from := 0
		if p := o.last[xi]; p >= 0 {
			// Row p observed the same candidate, so its kernel entries
			// equal this row's in every column but p and i: by
			// induction its first p factor columns do too.
			copy(row[:p], o.l[p*w:p*w+p])
			from = p
		}
		g := o.space.gram[xi*c : (xi+1)*c]
		for j := from; j <= i; j++ {
			row[j] = g[o.xs[j]]
		}
		row[i] += o.noise
		if !choleskyRow(o.l, w, i, from) {
			o.rows = i
			return false
		}
		o.last[xi] = i
	}
	o.rows = len(o.xs)
	return true
}

// solve brings every candidate's L⁻¹·k* and its sum of squares up to
// date with the factor: entry j of a forward solve reads only rows
// 0..j, so the entries of earlier rounds stand.
func (o *Optimizer) solve() {
	n, w, c := len(o.xs), o.window, o.space.c
	for i := range o.ss {
		row := o.space.gram[i*c : (i+1)*c]
		v := o.v[i*w : i*w+n]
		ss := o.ss[i]
		if o.solved == 0 {
			ss = 0
		}
		for j := o.solved; j < n; j++ {
			lj := o.l[j*w : j*w+j+1]
			sum := row[o.xs[j]]
			vj := v[:j]
			for k, x := range lj[:j] {
				sum -= x * vj[k]
			}
			v[j] = sum / lj[j]
			ss += v[j] * v[j]
		}
		o.ss[i] = ss
	}
	o.solved = n
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

// choleskyRow computes row i of the lower-triangular Cholesky factor of
// a symmetric positive definite matrix, in place in a (row-major, row
// stride `stride`). Rows 0..i-1 must already hold the factor, row i's
// columns before from must hold their factor values too, and columns
// from..i the matrix's row i. It returns false if the matrix is not
// positive definite.
//
// Columns are computed two per pass: column j+1's dot over k < j
// shares column j's pass over row i, and its k = j term, which reads
// the new ri[j], is subtracted last, so every column subtracts its
// terms in ascending k as a one-column loop would.
func choleskyRow(a []float64, stride, i, from int) bool {
	ri := a[i*stride : i*stride+i+1]
	j := from
	for ; j+1 <= i; j += 2 {
		r0 := a[j*stride : j*stride+j+1]
		r1 := a[(j+1)*stride : (j+1)*stride+j+2]
		s0, s1 := ri[j], ri[j+1]
		rik := ri[:j]
		r1k := r1[:j]
		for k, x := range r0[:j] {
			y := rik[k]
			s0 -= y * x
			s1 -= y * r1k[k]
		}
		ri[j] = s0 / r0[j]
		s1 -= ri[j] * r1[j]
		if j+1 == i {
			if s1 <= 0 {
				return false
			}
			ri[i] = math.Sqrt(s1)
		} else {
			ri[j+1] = s1 / r1[j+1]
		}
	}
	if j == i {
		rik := ri[:i]
		sum := ri[i]
		for _, x := range rik {
			sum -= x * x
		}
		if sum <= 0 {
			return false
		}
		ri[i] = math.Sqrt(sum)
	}
	return true
}

// forwardSolve solves L·x = b in place (x overwrites b) for the
// lower-triangular row-major L of row stride `stride` and order len(b).
// Rows are solved two per pass, the way choleskyRow pairs columns: row
// i+1's dot over j < i shares row i's pass over b, and its j = i term
// is subtracted last.
func forwardSolve(l []float64, stride int, b []float64) {
	n := len(b)
	i := 0
	for ; i+2 <= n; i += 2 {
		l0 := l[i*stride : i*stride+i+1]
		l1 := l[(i+1)*stride : (i+1)*stride+i+2]
		s0, s1 := b[i], b[i+1]
		bj := b[:i]
		l0j, l1j := l0[:len(bj)], l1[:len(bj)]
		for j, x := range bj {
			s0 -= l0j[j] * x
			s1 -= l1j[j] * x
		}
		b[i] = s0 / l0[i]
		s1 -= l1[i] * b[i]
		b[i+1] = s1 / l1[i+1]
	}
	if i < n {
		li := l[i*stride : i*stride+i+1]
		sum := b[i]
		bj := b[:i]
		lij := li[:len(bj)]
		for j, x := range bj {
			sum -= lij[j] * x
		}
		b[i] = sum / li[i]
	}
}

// backSolve solves Lᵀ·x = b in place (x overwrites b) for the
// lower-triangular row-major L of row stride `stride` and order len(b).
// It stays one row per pass: row i's sum starts with the newest
// b[i+1], so pairing rows would reorder its subtractions.
func backSolve(l []float64, stride int, b []float64) {
	n := len(b)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= l[j*stride+i] * b[j]
		}
		b[i] = sum / l[i*stride+i]
	}
}
