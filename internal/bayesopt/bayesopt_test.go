package bayesopt

import (
	"math"
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/stats"
)

// grid1D builds candidates at n evenly spaced points in [0,1].
func grid1D(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{float64(i) / float64(n-1)}
	}
	return out
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(nil, DefaultConfig(), stats.NewRNG(1)) },
		func() { New([][]float64{{0}, {0, 1}}, DefaultConfig(), stats.NewRNG(1)) },
		func() {
			c := DefaultConfig()
			c.LengthScale = 0
			New(grid1D(3), c, stats.NewRNG(1))
		},
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

func TestFindsMaximumOfSmoothFunction(t *testing.T) {
	// f(x) = -(x-0.7)^2 peaks at x=0.7; BO should concentrate there.
	cand := grid1D(21)
	f := func(x float64) float64 { return -(x - 0.7) * (x - 0.7) }
	opt := New(cand, DefaultConfig(), stats.NewRNG(1))
	counts := make([]int, len(cand))
	for i := 0; i < 60; i++ {
		idx := opt.Suggest()
		counts[idx]++
		noise := stats.NewRNG(int64(i)).Gaussian(0, 0.001)
		opt.Observe(idx, f(cand[idx][0])+noise)
	}
	// The most-evaluated candidate in the last stretch should be near
	// 0.7 (index 14 of 0..20).
	lateBest := 0
	for i := 40; i < 60; i++ {
		_ = i
	}
	for i, c := range counts {
		if c > counts[lateBest] {
			lateBest = i
		}
	}
	x := cand[lateBest][0]
	if math.Abs(x-0.7) > 0.2 {
		t.Errorf("BO concentrated at x=%v, want near 0.7 (counts=%v)", x, counts)
	}
}

func TestColdStartIsRandomButValid(t *testing.T) {
	opt := New(grid1D(5), DefaultConfig(), stats.NewRNG(2))
	for i := 0; i < 20; i++ {
		idx := opt.Suggest()
		if idx < 0 || idx >= 5 {
			t.Fatalf("suggestion %d out of range", idx)
		}
	}
	if len(opt.xs) != 0 {
		t.Error("no observations should be recorded yet")
	}
}

func TestWindowCapsObservations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 10
	opt := New(grid1D(5), cfg, stats.NewRNG(3))
	for i := 0; i < 30; i++ {
		opt.Observe(i%5, float64(i))
	}
	if got := len(opt.xs); got != 10 {
		t.Errorf("window kept %d observations, want 10", got)
	}
}

func TestObservePanicsOnBadIndex(t *testing.T) {
	opt := New(grid1D(3), DefaultConfig(), stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	opt.Observe(3, 1)
}

func TestCholeskyRoundTrip(t *testing.T) {
	a := []float64{
		4, 2, 0.6,
		2, 5, 1.2,
		0.6, 1.2, 3,
	}
	l := append([]float64(nil), a...)
	if !cholesky(l, 3) {
		t.Fatal("SPD matrix rejected")
	}
	// Check L·Lᵀ == A over the lower triangle (the factor lives there).
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			sum := 0.0
			for k := 0; k <= min(i, j); k++ {
				sum += l[i*3+k] * l[j*3+k]
			}
			if math.Abs(sum-a[i*3+j]) > 1e-9 {
				t.Errorf("LL^T[%d][%d] = %v, want %v", i, j, sum, a[i*3+j])
			}
		}
	}
	// Solve check: (LLᵀ)x = b.
	b := []float64{1, 2, 3}
	x := append([]float64(nil), b...)
	forwardSolve(l, 3, x)
	backSolve(l, 3, x)
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			sum += a[i*3+j] * x[j]
		}
		if math.Abs(sum-b[i]) > 1e-9 {
			t.Errorf("solve residual at %d: %v vs %v", i, sum, b[i])
		}
	}
	if cholesky([]float64{-1}, 1) {
		t.Error("non-SPD matrix should be rejected")
	}
}

// paramGrid is the Adaptive (BO) baseline's candidate set: the 150
// (B, E, K) grid points of fl.AllParams, normalized into [0,1]^3 the
// way baseline.NewBO does.
func paramGrid() [][]float64 {
	grid := fl.AllParams()
	out := make([][]float64, len(grid))
	for i, p := range grid {
		out[i] = []float64{math.Log2(float64(p.B)) / 5, float64(p.E) / 20, float64(p.K) / 20}
	}
	return out
}

// TestPosteriorMatchesReferenceBitForBit runs the Optimizer against a
// straightforward nested-slice GP (referencePosterior, the textbook
// form that evaluates every kernel afresh) on the BO baseline's own
// candidate grid. 300 rounds cover the EI phase, the switch at
// ExploitAfter and the window sliding past its cap: every suggestion
// must agree, and so must every posterior mean — and, while EI reads
// it, every stddev — to the last bit.
func TestPosteriorMatchesReferenceBitForBit(t *testing.T) {
	cfg := DefaultConfig()
	pts := paramGrid()
	opt := New(pts, cfg, stats.NewRNG(5))
	rng := stats.NewRNG(9)
	truth := make([]float64, len(pts))
	for i := range truth {
		truth[i] = rng.Float64()
	}
	var xs [][]float64
	var ys []float64
	for round := 0; round < 300; round++ {
		got := opt.Suggest()
		if len(xs) > 0 {
			exploit := round >= cfg.ExploitAfter
			mu, sigma := referencePosterior(pts, xs, ys, cfg)
			for i := range pts {
				if math.Float64bits(opt.mu[i]) != math.Float64bits(mu[i]) {
					t.Fatalf("round %d: mu[%d] = %v, reference %v", round, i, opt.mu[i], mu[i])
				}
				if !exploit && math.Float64bits(opt.sigma[i]) != math.Float64bits(sigma[i]) {
					t.Fatalf("round %d: sigma[%d] = %v, reference %v", round, i, opt.sigma[i], sigma[i])
				}
			}
			want := stats.ArgMax(mu)
			if !exploit {
				best, bestEI := stats.Max(ys), math.Inf(-1)
				for i := range pts {
					if ei := expectedImprovement(mu[i], sigma[i], best, cfg.Xi); ei > bestEI {
						want, bestEI = i, ei
					}
				}
			}
			if got != want {
				t.Fatalf("round %d: Suggest = %d, reference %d", round, got, want)
			}
		}
		y := truth[got] + rng.Gaussian(0, 0.1)
		opt.Observe(got, y)
		xs, ys = append(xs, pts[got]), append(ys, y)
		if len(xs) > cfg.Window {
			xs, ys = xs[1:], ys[1:]
		}
	}
	if got := len(opt.xs); got != cfg.Window {
		t.Fatalf("window holds %d observations, want %d", got, cfg.Window)
	}
}

// TestSuggestSteadyStateAllocs pins the per-round cost of the BO
// baseline's optimizer: once the window is full, a Suggest+Observe
// round runs entirely in the Optimizer's scratch, in the EI phase and
// in the exploit phase alike.
func TestSuggestSteadyStateAllocs(t *testing.T) {
	for _, exploitAfter := range []int{0, 50} {
		cfg := DefaultConfig()
		cfg.ExploitAfter = exploitAfter
		opt := New(paramGrid(), cfg, stats.NewRNG(1))
		rng := stats.NewRNG(2)
		for i := 0; i < cfg.Window; i++ {
			opt.Observe(opt.Suggest(), rng.Float64())
		}
		allocs := testing.AllocsPerRun(50, func() {
			idx := opt.Suggest()
			opt.Observe(idx, float64(idx%7))
		})
		if allocs != 0 {
			t.Errorf("ExploitAfter=%d: Suggest+Observe allocates %.1f objects per round, want 0", exploitAfter, allocs)
		}
	}
}

// referencePosterior is the GP posterior in its textbook form: kernels
// evaluated on the observed points, nested-slice matrices, a fresh
// Cholesky and one forward solve per candidate. It is the oracle the
// Optimizer's table-driven, in-place posterior must match bit for bit.
func referencePosterior(points, xs [][]float64, ys []float64, cfg Config) (mu, sigma []float64) {
	n := len(xs)
	mean := stats.Mean(ys)
	std := stats.StdDev(ys)
	if std < 1e-9 {
		std = 1
	}
	yc := make([]float64, n)
	for i, y := range ys {
		yc[i] = (y - mean) / std
	}
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = kernel(xs[i], xs[j], cfg.LengthScale)
		}
		k[i][i] += cfg.Noise
	}
	mu = make([]float64, len(points))
	sigma = make([]float64, len(points))
	l, ok := refCholesky(k)
	if !ok {
		for i := range sigma {
			mu[i] = mean
			sigma[i] = std
		}
		return mu, sigma
	}
	alpha := refBackSolve(l, refForwardSolve(l, yc))
	kstar := make([]float64, n)
	for i, p := range points {
		for j := range xs {
			kstar[j] = kernel(p, xs[j], cfg.LengthScale)
		}
		m := 0.0
		for j := range kstar {
			m += kstar[j] * alpha[j]
		}
		v := refForwardSolve(l, kstar)
		varReduction := 0.0
		for _, x := range v {
			varReduction += x * x
		}
		variance := 1 - varReduction
		if variance < 1e-12 {
			variance = 1e-12
		}
		mu[i] = m*std + mean
		sigma[i] = math.Sqrt(variance) * std
	}
	return mu, sigma
}

// refCholesky returns the lower-triangular factor of a symmetric
// positive definite matrix, or ok=false if the matrix is not SPD.
func refCholesky(a [][]float64) (l [][]float64, ok bool) {
	n := len(a)
	l = make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, true
}

// refForwardSolve solves L·x = b for lower-triangular L.
func refForwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for j := 0; j < i; j++ {
			sum -= l[i][j] * x[j]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// refBackSolve solves Lᵀ·x = b for lower-triangular L.
func refBackSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= l[j][i] * x[j]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

func TestEIProperties(t *testing.T) {
	// Higher mean -> higher EI at equal sigma.
	if expectedImprovement(1, 0.5, 0, 0.01) <= expectedImprovement(0.5, 0.5, 0, 0.01) {
		t.Error("EI should increase with posterior mean")
	}
	// Zero sigma -> zero EI.
	if expectedImprovement(10, 0, 0, 0.01) != 0 {
		t.Error("EI with zero sigma should be 0")
	}
	// EI is non-negative.
	if expectedImprovement(-5, 0.1, 0, 0.01) < 0 {
		t.Error("EI must be non-negative")
	}
}

func TestNormalHelpers(t *testing.T) {
	if math.Abs(stdNormCDF(0)-0.5) > 1e-12 {
		t.Error("CDF(0) != 0.5")
	}
	if math.Abs(stdNormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Error("PDF(0) wrong")
	}
	if stdNormCDF(5) < 0.999 || stdNormCDF(-5) > 0.001 {
		t.Error("CDF tails wrong")
	}
}
