package bayesopt

import (
	"math"
	"slices"
	"sync"
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

// newOpt builds an optimizer over candidates.
func newOpt(candidates [][]float64, cfg Config, seed int64) *Optimizer {
	return New(NewSpace(candidates), cfg, stats.NewRNG(seed))
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { NewSpace(nil) },
		func() { NewSpace([][]float64{{0}, {0, 1}}) },
		func() {
			c := DefaultConfig()
			c.Noise = 0
			newOpt(grid1D(3), c, 1)
		},
		func() {
			c := DefaultConfig()
			c.Window = 0
			newOpt(grid1D(3), c, 1)
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
	opt := newOpt(cand, DefaultConfig(), 1)
	// counts holds the last stretch only: rounds 40..59.
	counts := make([]int, len(cand))
	for i := 0; i < 60; i++ {
		idx := opt.Suggest()
		if i >= 40 {
			counts[idx]++
		}
		noise := stats.NewRNG(int64(i)).Gaussian(0, 0.001)
		opt.Observe(idx, f(cand[idx][0])+noise)
	}
	// The most-evaluated candidate in the last stretch should be near
	// 0.7 (index 14 of 0..20).
	lateBest := 0
	for i, c := range counts {
		if c > counts[lateBest] {
			lateBest = i
		}
	}
	x := cand[lateBest][0]
	if math.Abs(x-0.7) > 0.2 {
		t.Errorf("BO concentrated at x=%v in rounds 40-59, want near 0.7 (counts=%v)", x, counts)
	}
}

func TestColdStartIsRandomButValid(t *testing.T) {
	opt := newOpt(grid1D(5), DefaultConfig(), 2)
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
	opt := newOpt(grid1D(5), cfg, 3)
	for i := 0; i < 30; i++ {
		opt.Observe(i%5, float64(i))
	}
	if got := len(opt.xs); got != 10 {
		t.Errorf("window kept %d observations, want 10", got)
	}
}

func TestObservePanicsOnBadIndex(t *testing.T) {
	opt := newOpt(grid1D(3), DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	opt.Observe(3, 1)
}

// spdMatrix returns a dense n×n symmetric positive definite matrix
// with distinct, non-trivial entries.
func spdMatrix(n int) [][]float64 {
	pts := make([][]float64, n)
	rng := stats.NewRNG(int64(n))
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = kernel(pts[i], pts[j], 0.5)
		}
		a[i][i] += 0.1
	}
	return a
}

// TestCholeskyRoundTrip checks the strided, row-at-a-time factor:
// rows appended one by one into a matrix whose stride exceeds its
// order, some of them starting from a copied prefix, equal a
// from-scratch factorization bit for bit; the factor reproduces A and
// solves against it; a non-SPD row is rejected, and factoring an SPD
// row into the same rows afterwards succeeds.
func TestCholeskyRoundTrip(t *testing.T) {
	const n, stride = 7, 10
	a := spdMatrix(n)
	want, ok := refCholesky(a)
	if !ok {
		t.Fatal("reference rejected an SPD matrix")
	}
	l := make([]float64, stride*stride)
	for i := 0; i < n; i++ {
		copy(l[i*stride:i*stride+i+1], a[i][:i+1])
		if !choleskyRow(l, stride, i, 0) {
			t.Fatalf("row %d of an SPD matrix rejected", i)
		}
		// The appended row alone must not disturb the rows above it.
		for r := 0; r <= i; r++ {
			for c := 0; c <= r; c++ {
				if math.Float64bits(l[r*stride+c]) != math.Float64bits(want[r][c]) {
					t.Fatalf("after row %d: L[%d][%d] = %v, from scratch %v", i, r, c, l[r*stride+c], want[r][c])
				}
			}
		}
	}
	// Resuming a row from a prefix already holding factor values
	// computes the same rest.
	for from := 0; from < n; from++ {
		row := l[(n-1)*stride : (n-1)*stride+n]
		copy(row[:from], want[n-1][:from])
		copy(row[from:], a[n-1][from:])
		if !choleskyRow(l, stride, n-1, from) {
			t.Fatalf("resume from %d rejected", from)
		}
		for c := 0; c < n; c++ {
			if math.Float64bits(row[c]) != math.Float64bits(want[n-1][c]) {
				t.Fatalf("resume from %d: L[%d][%d] = %v, from scratch %v", from, n-1, c, row[c], want[n-1][c])
			}
		}
	}
	// Check L·Lᵀ == A (the factor lives in the lower triangle).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k <= min(i, j); k++ {
				sum += l[i*stride+k] * l[j*stride+k]
			}
			if math.Abs(sum-a[i][j]) > 1e-9 {
				t.Errorf("LL^T[%d][%d] = %v, want %v", i, j, sum, a[i][j])
			}
		}
	}
	// Solve check: (LLᵀ)x = b.
	b := []float64{1, 2, 3, -1, 0.5, 4, -2}
	x := append([]float64(nil), b...)
	forwardSolve(l, stride, x)
	backSolve(l, stride, x)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a[i][j] * x[j]
		}
		if math.Abs(sum-b[i]) > 1e-9 {
			t.Errorf("solve residual at %d: %v vs %v", i, sum, b[i])
		}
	}
	// A row that breaks positive definiteness is rejected...
	bad := l[(n-1)*stride : (n-1)*stride+n]
	for c := range bad {
		bad[c] = 10
	}
	if choleskyRow(l, stride, n-1, 0) {
		t.Error("non-SPD row should be rejected")
	}
	// ...and the rows above it still hold, so the real row factors.
	copy(bad, a[n-1])
	if !choleskyRow(l, stride, n-1, 0) {
		t.Fatal("recovery after a rejected row failed")
	}
	for c := 0; c < n; c++ {
		if math.Float64bits(bad[c]) != math.Float64bits(want[n-1][c]) {
			t.Fatalf("after recovery: L[%d][%d] = %v, from scratch %v", n-1, c, bad[c], want[n-1][c])
		}
	}
	if choleskyRow([]float64{-1}, 1, 0, 0) {
		t.Error("non-SPD 1×1 matrix should be rejected")
	}
}

// TestOptimizerRecoversFromNonSPDWindow runs an optimizer over a space
// whose kernel table is not positive definite for some windows: those
// rounds fall back to the prior, and once the window is SPD again the
// posterior is the from-scratch one, bit for bit.
func TestOptimizerRecoversFromNonSPDWindow(t *testing.T) {
	// K(0,1) = 2 exceeds both diagonals, so any window holding both
	// candidates is indefinite.
	space := &Space{c: 2, gram: []float64{1, 2, 2, 1}}
	cfg := DefaultConfig()
	cfg.Window, cfg.ExploitAfter = 2, 0
	opt := New(space, cfg, stats.NewRNG(1))
	steps := []struct {
		idx int
		y   float64
		spd bool
	}{
		{0, 1, true},
		{1, 3, false},
		{0, 2, false}, // slides to [1, 0]
		{0, 5, true},  // slides to [0, 0]
		{1, 4, false},
		{1, 7, true},
	}
	for s, st := range steps {
		opt.Observe(st.idx, st.y)
		opt.Suggest()
		ys := opt.ys
		mean, std := stats.Mean(ys), stats.StdDev(ys)
		if std < 1e-9 {
			std = 1
		}
		n := len(opt.xs)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = space.gram[opt.xs[i]*2+opt.xs[j]]
			}
			a[i][i] += cfg.Noise
		}
		l, ok := refCholesky(a)
		if ok != st.spd {
			t.Fatalf("step %d: reference SPD = %v, want %v", s, ok, st.spd)
		}
		for i := 0; i < 2; i++ {
			wantMu, wantSigma := mean, std
			if ok {
				yc := make([]float64, n)
				for j, y := range ys {
					yc[j] = (y - mean) / std
				}
				alpha := refBackSolve(l, refForwardSolve(l, yc))
				kstar := make([]float64, n)
				m := 0.0
				for j, xj := range opt.xs {
					kstar[j] = space.gram[i*2+xj]
					m += kstar[j] * alpha[j]
				}
				vr := 0.0
				for _, x := range refForwardSolve(l, kstar) {
					vr += x * x
				}
				wantMu, wantSigma = m*std+mean, math.Sqrt(max(1-vr, 1e-12))*std
			}
			if math.Float64bits(opt.mu[i]) != math.Float64bits(wantMu) ||
				math.Float64bits(opt.sigma[i]) != math.Float64bits(wantSigma) {
				t.Fatalf("step %d candidate %d: posterior (%v, %v), reference (%v, %v)",
					s, i, opt.mu[i], opt.sigma[i], wantMu, wantSigma)
			}
		}
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

// refRun drives an Optimizer and the from-scratch reference GP
// (referencePosterior) through the same observations.
type refRun struct {
	t   testing.TB
	opt *Optimizer
	pts [][]float64
	cfg Config
	xs  [][]float64
	ys  []float64
}

func newRefRun(t testing.TB, pts [][]float64, cfg Config, seed int64) *refRun {
	return &refRun{t: t, opt: newOpt(pts, cfg, seed), pts: pts, cfg: cfg}
}

// suggest calls Suggest and checks it against the reference: the
// suggestion, every posterior mean and, while EI reads it, every
// stddev must agree to the last bit.
func (r *refRun) suggest() int {
	r.t.Helper()
	got := r.opt.Suggest()
	if len(r.xs) == 0 {
		return got
	}
	round := r.opt.observed
	exploit := r.cfg.ExploitAfter > 0 && round >= r.cfg.ExploitAfter
	mu, sigma := referencePosterior(r.pts, r.xs, r.ys, r.cfg)
	for i := range r.pts {
		if math.Float64bits(r.opt.mu[i]) != math.Float64bits(mu[i]) {
			r.t.Fatalf("round %d: mu[%d] = %v, reference %v", round, i, r.opt.mu[i], mu[i])
		}
		if !exploit && math.Float64bits(r.opt.sigma[i]) != math.Float64bits(sigma[i]) {
			r.t.Fatalf("round %d: sigma[%d] = %v, reference %v", round, i, r.opt.sigma[i], sigma[i])
		}
	}
	want := stats.ArgMax(mu)
	if !exploit {
		best, bestEI := stats.Max(r.ys), math.Inf(-1)
		for i := range r.pts {
			if ei := expectedImprovement(mu[i], sigma[i], best, r.cfg.Xi); ei > bestEI {
				want, bestEI = i, ei
			}
		}
	}
	if got != want {
		r.t.Fatalf("round %d: Suggest = %d, reference %d", round, got, want)
	}
	return got
}

func (r *refRun) observe(idx int, y float64) {
	r.opt.Observe(idx, y)
	r.xs, r.ys = append(r.xs, r.pts[idx]), append(r.ys, y)
	if len(r.xs) > r.cfg.Window {
		r.xs, r.ys = r.xs[1:], r.ys[1:]
	}
}

// TestPosteriorMatchesReferenceBitForBit runs the Optimizer against a
// straightforward nested-slice GP (referencePosterior, the textbook
// form that evaluates every kernel afresh and factors from scratch) on
// the BO baseline's own candidate grid, checking every suggestion and
// every posterior value to the last bit:
//   - paper: the default config over 300 rounds covers the EI phase,
//     the switch at ExploitAfter and the window sliding past its cap;
//   - sliding EI: a Window below ExploitAfter, so EI runs on a sliding
//     window and its solve cache resets every round;
//   - dominant: a peak far above the noise, so the window fills with
//     one candidate and most factor rows start from a copied prefix.
func TestPosteriorMatchesReferenceBitForBit(t *testing.T) {
	slidingEI := DefaultConfig()
	slidingEI.Window = 20
	cases := []struct {
		name     string
		cfg      Config
		rounds   int
		dominant int // candidate given a far higher value, or -1
	}{
		{"paper", DefaultConfig(), 300, -1},
		{"sliding EI", slidingEI, 120, -1},
		{"dominant", DefaultConfig(), 200, 77},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := paramGrid()
			r := newRefRun(t, pts, tc.cfg, 5)
			rng := stats.NewRNG(9)
			truth := make([]float64, len(pts))
			for i := range truth {
				truth[i] = rng.Float64()
			}
			if d := tc.dominant; d >= 0 {
				// A smooth peak at d, far above the noise, that the GP
				// can climb.
				for i, p := range pts {
					d2 := 0.0
					for k := range p {
						d2 += (p[k] - pts[d][k]) * (p[k] - pts[d][k])
					}
					truth[i] += 5 - 10*d2
				}
			}
			for round := 0; round < tc.rounds; round++ {
				got := r.suggest()
				r.observe(got, truth[got]+rng.Gaussian(0, 0.1))
			}
			if got := len(r.opt.xs); got != tc.cfg.Window {
				t.Fatalf("window holds %d observations, want %d", got, tc.cfg.Window)
			}
			if tc.dominant >= 0 {
				n := 0
				for _, x := range r.opt.xs {
					if x == tc.dominant {
						n++
					}
				}
				if n < tc.cfg.Window/2 {
					t.Fatalf("the peak holds %d of %d window rows; the prefix copy went unexercised", n, tc.cfg.Window)
				}
			}
		})
	}
}

// FuzzPosteriorMatchesReference drives an Optimizer with an arbitrary
// window, ExploitAfter and observation sequence over a 16-point space
// (so candidates repeat often) and checks every Suggest against the
// from-scratch reference, bit for bit. Each pair of sequence bytes is
// one observation: a candidate index and a value.
func FuzzPosteriorMatchesReference(f *testing.F) {
	f.Add(uint8(60), uint8(50), []byte("\x00\x10\x05\x20\x05\x21\x0f\xf0\x03\x03\x05\x20\x05\x20"))
	f.Add(uint8(3), uint8(0), []byte("\x01\x01\x01\x01\x01\x01\x02\x09\x01\x01\x01\x01"))
	f.Add(uint8(5), uint8(8), []byte("\x07\x80\x08\x7f\x07\x80\x09\x00\x07\x80\x07\x81\x07\x80\x0a\x11\x07\x80\x07\x80"))
	pts := make([][]float64, 0, 16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			pts = append(pts, []float64{float64(i) / 3, float64(j) / 3})
		}
	}
	f.Fuzz(func(t *testing.T, window, exploitAfter uint8, seq []byte) {
		cfg := DefaultConfig()
		cfg.Window = int(window%64) + 1
		cfg.ExploitAfter = int(exploitAfter % 128)
		if len(seq) > 512 {
			seq = seq[:512]
		}
		r := newRefRun(t, pts, cfg, 1)
		for ; len(seq) >= 2; seq = seq[2:] {
			r.suggest()
			r.observe(int(seq[0])%len(pts), float64(int8(seq[1]))/8)
		}
		r.suggest()
	})
}

// TestSpaceSharedAcrossGoroutines runs optimizers on one Space from
// several goroutines at once (the race detector checks the space is
// only read) and checks each run equals the same run alone.
func TestSpaceSharedAcrossGoroutines(t *testing.T) {
	space := NewSpace(paramGrid())
	run := func(seed int64) []int {
		opt := New(space, DefaultConfig(), stats.NewRNG(seed))
		rng := stats.NewRNG(seed + 100)
		var picks []int
		for round := 0; round < 90; round++ {
			idx := opt.Suggest()
			picks = append(picks, idx)
			opt.Observe(idx, rng.Float64())
		}
		return picks
	}
	const runs = 4
	var got [runs][]int
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(int64(i))
		}()
	}
	wg.Wait()
	for i := range got {
		if want := run(int64(i)); !slices.Equal(got[i], want) {
			t.Errorf("run %d on a shared space differs from the run alone", i)
		}
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
		opt := newOpt(paramGrid(), cfg, 1)
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
// Optimizer's table-driven, incremental posterior must match bit for
// bit.
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
			k[i][j] = kernel(xs[i], xs[j], lengthScale)
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
			kstar[j] = kernel(p, xs[j], lengthScale)
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

// TestGramSymmetricBitForBit checks the kernel table the posterior
// mean reads by rows: over the paper grid, gram[i][j] and gram[j][i]
// are the same float to the last bit, so row xs[j] holds every
// candidate's kernel against observation j.
func TestGramSymmetricBitForBit(t *testing.T) {
	s := NewSpace(paramGrid())
	for i := 0; i < s.c; i++ {
		for j := 0; j < i; j++ {
			if a, b := s.gram[i*s.c+j], s.gram[j*s.c+i]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("gram[%d][%d] = %v, gram[%d][%d] = %v", i, j, a, j, i, b)
			}
		}
	}
}

// BenchmarkSuggest is the Adaptive (BO) baseline's per-round cost: a
// DefaultConfig optimizer over the paper's 150-point grid, run for 400
// rounds at a time (the EI phase, the switch to exploitation and the
// sliding window), in ns/round. b.N counts rounds; each run starts
// from a new Optimizer on one shared Space, as the baseline does.
//
//	go test -run '^$' -bench Suggest ./internal/bayesopt
func BenchmarkSuggest(b *testing.B) {
	const runRounds = 400
	space := NewSpace(paramGrid())
	rng := stats.NewRNG(9)
	truth := make([]float64, space.c)
	for i := range truth {
		truth[i] = rng.Float64()
	}
	noise := make([]float64, runRounds)
	for i := range noise {
		noise[i] = rng.Gaussian(0, 0.1)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += runRounds {
		opt := New(space, DefaultConfig(), stats.NewRNG(5))
		for round := 0; round < min(runRounds, b.N-done); round++ {
			idx := opt.Suggest()
			opt.Observe(idx, truth[idx]+noise[round])
		}
	}
	b.StopTimer()
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
}
