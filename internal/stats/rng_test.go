package stats

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	a1 := NewRNG(7).Split()
	a2 := NewRNG(7).Split()
	for i := 0; i < 50; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatalf("split streams from same parent seed diverged at %d", i)
		}
	}
	parent := NewRNG(7)
	c1, c2 := parent.Split(), parent.Split()
	same := true
	for i := 0; i < 20; i++ {
		if c1.Float64() != c2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("sibling splits produced identical streams")
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewRNG(1)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Gaussian(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestTruncGaussianBounds(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := g.TruncGaussian(0, 100, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncGaussian out of bounds: %v", v)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	g := NewRNG(4)
	for trial := 0; trial < 100; trial++ {
		p := g.SymmetricDirichlet(10, 0.1)
		if len(p) != 10 {
			t.Fatalf("want 10 components, got %d", len(p))
		}
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v, want 1", sum)
		}
	}
}

func TestDirichletLowConcentrationIsSkewed(t *testing.T) {
	// Dirichlet(0.1) should concentrate mass on few classes: that is the
	// whole point of the paper's non-IID partition. Check that the max
	// component is on average far above the uniform 1/n.
	g := NewRNG(5)
	n, trials := 10, 500
	maxSum := 0.0
	for i := 0; i < trials; i++ {
		p := g.SymmetricDirichlet(n, 0.1)
		maxSum += Max(p)
	}
	if avgMax := maxSum / float64(trials); avgMax < 0.5 {
		t.Errorf("Dirichlet(0.1) avg max component = %v, want > 0.5 (skewed)", avgMax)
	}
	// And a high concentration should be near uniform.
	maxSum = 0
	for i := 0; i < trials; i++ {
		p := g.SymmetricDirichlet(n, 100)
		maxSum += Max(p)
	}
	if avgMax := maxSum / float64(trials); avgMax > 0.2 {
		t.Errorf("Dirichlet(100) avg max component = %v, want near 1/10", avgMax)
	}
}

func TestDirichletPanics(t *testing.T) {
	g := NewRNG(1)
	for _, alpha := range [][]float64{{}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for alpha=%v", alpha)
				}
			}()
			g.Dirichlet(alpha)
		}()
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	g := NewRNG(6)
	counts := make([]int, 3)
	n := 60000
	for i := 0; i < n; i++ {
		counts[g.Categorical([]float64{1, 2, 3})]++
	}
	want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("category %d frequency = %v, want ~%v", i, got, want[i])
		}
	}
}

func TestCategoricalSkipsNonPositive(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if idx := g.Categorical([]float64{0, -1, 5, 0}); idx != 2 {
			t.Fatalf("picked zero-weight category %d", idx)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestDirichletPropertySimplex(t *testing.T) {
	// Property: any positive concentration vector yields a point on the
	// simplex.
	f := func(seed int64, rawAlpha uint8, n uint8) bool {
		comp := int(n%8) + 2
		alpha := 0.05 + float64(rawAlpha%100)/25.0
		p := NewRNG(seed).SymmetricDirichlet(comp, alpha)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 50, 200} {
		a, b := NewRNG(99), NewRNG(99)
		want := a.r.Perm(n)
		got := make([]int, n)
		b.PermInto(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d]=%d, Perm=%d", n, i, got[i], want[i])
			}
		}
		// The two generators must also have consumed identical draws, so
		// their subsequent streams agree.
		for i := 0; i < 5; i++ {
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("n=%d: stream diverged after permutation (draw %d: %d vs %d)", n, i, x, y)
			}
		}
	}
}

// sameStream reports the first draw at which a and b differ across
// every draw kind the simulator uses, or -1 if they agree throughout.
func sameStream(a, b *RNG) int {
	pa, pb := make([]int, 37), make([]int, 37)
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			if a.Float64() != b.Float64() {
				return i
			}
		case 1:
			if a.Gaussian(0, 1) != b.Gaussian(0, 1) {
				return i
			}
		case 2:
			if a.Intn(1+i) != b.Intn(1+i) {
				return i
			}
		case 3:
			a.PermInto(pa)
			b.PermInto(pb)
			for j := range pa {
				if pa[j] != pb[j] {
					return i
				}
			}
		}
	}
	return -1
}

func TestReseedMatchesNewRNG(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for _, drawn := range []int{0, 1, 13, 1000} {
			g := NewRNG(seed ^ 0x5eed)
			for i := 0; i < drawn; i++ {
				g.Float64()
				g.Gaussian(0, 1)
			}
			g.Reseed(seed)
			if i := sameStream(g, NewRNG(seed)); i >= 0 {
				t.Fatalf("seed %d after %d draws: reseeded stream diverges from NewRNG at draw %d", seed, drawn, i)
			}
		}
	}
}

// eagerRNG is an RNG over a source seeded at construction, the way
// math/rand seeds one: the reference a stream seeded on its first draw
// must match.
func eagerRNG(seed int64) *RNG {
	g := &RNG{}
	g.r = *rand.New(rand.NewSource(seed))
	return g
}

// draws runs each of RNG's draw methods; each returns what it drew as
// float64s.
var draws = []struct {
	name string
	draw func(g *RNG) []float64
}{
	{"Float64", func(g *RNG) []float64 { return []float64{g.Float64()} }},
	{"Intn", func(g *RNG) []float64 { return []float64{float64(g.Intn(1000))} }},
	{"Int63", func(g *RNG) []float64 { return []float64{float64(g.Int63())} }},
	{"Norm", func(g *RNG) []float64 { return []float64{g.Norm()} }},
	{"Gaussian", func(g *RNG) []float64 { return []float64{g.Gaussian(3, 2)} }},
	{"TruncGaussian", func(g *RNG) []float64 { return []float64{g.TruncGaussian(0, 5, -1, 1)} }},
	{"Dirichlet", func(g *RNG) []float64 { return g.Dirichlet([]float64{0.1, 0.5, 2}) }},
	{"SymmetricDirichlet", func(g *RNG) []float64 { return g.SymmetricDirichlet(4, 0.1) }},
	{"Categorical", func(g *RNG) []float64 { return []float64{float64(g.Categorical([]float64{0.2, 0, 0.5, 0.3}))} }},
	{"Bernoulli", func(g *RNG) []float64 {
		if g.Bernoulli(0.4) {
			return []float64{1}
		}
		return []float64{0}
	}},
	{"PermInto", func(g *RNG) []float64 {
		p := make([]int, 9)
		g.PermInto(p)
		return floats(p)
	}},
	{"Shuffle", func(g *RNG) []float64 {
		xs := []int{0, 1, 2, 3, 4, 5, 6}
		g.Shuffle(xs)
		return floats(xs)
	}},
	{"Split", func(g *RNG) []float64 { return []float64{float64(g.Split().Int63())} }},
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// A stream seeded on its first draw matches an eagerly seeded one
// across every draw method, whichever method draws first; the
// primitives match math/rand itself; a Reseed before the first draw
// leaves NewRNG's state; and a Split child that never draws leaves the
// parent's stream as it was and costs under 100 bytes.
func TestLazyStreamMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		for first := range draws {
			g, ref := NewRNG(seed), eagerRNG(seed)
			for k := range 2 * len(draws) {
				d := draws[(first+k)%len(draws)]
				got, want := d.draw(g), d.draw(ref)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d, first draw %s: %s = %v, eager %v", seed, draws[first].name, d.name, got, want)
					}
				}
			}
		}

		ref := rand.New(rand.NewSource(seed))
		g := NewRNG(seed)
		if x, y := g.Float64(), ref.Float64(); x != y {
			t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, x, y)
		}
		if x, y := g.Intn(77), ref.Intn(77); x != y {
			t.Fatalf("seed %d: Intn %v, math/rand %v", seed, x, y)
		}
		if x, y := g.Int63(), ref.Int63(); x != y {
			t.Fatalf("seed %d: Int63 %v, math/rand %v", seed, x, y)
		}
		if x, y := g.Gaussian(0, 1), ref.NormFloat64(); x != y {
			t.Fatalf("seed %d: Gaussian %v, math/rand %v", seed, x, y)
		}
		if x, y := g.Norm(), ref.NormFloat64(); x != y {
			t.Fatalf("seed %d: Norm %v, math/rand %v", seed, x, y)
		}
		p := make([]int, 12)
		g.PermInto(p)
		if w := ref.Perm(12); !slices.Equal(p, w) {
			t.Fatalf("seed %d: PermInto %v, math/rand Perm %v", seed, p, w)
		}
		xs, ys := []int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4, 5, 6}
		g.Shuffle(xs)
		ref.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		if !slices.Equal(xs, ys) {
			t.Fatalf("seed %d: Shuffle %v, math/rand %v", seed, xs, ys)
		}

		// Reseed before the first draw, and again after draws.
		g = NewRNG(seed)
		g.Reseed(seed + 1)
		ref = rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 3; i++ {
			if x, y := g.Int63(), ref.Int63(); x != y {
				t.Fatalf("seed %d: after Reseed, draw %d = %v, math/rand %v", seed, i, x, y)
			}
			g.Reseed(seed + int64(i))
			ref.Seed(seed + int64(i))
		}

		// The parent draws the child's seed at Split; the child's own
		// draws, or their absence, do not touch the parent's stream.
		parent, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		child := parent.Split()
		childSeed := ref.Int63()
		for i := 0; i < 3; i++ {
			if x, y := parent.Int63(), ref.Int63(); x != y {
				t.Fatalf("seed %d: parent after Split, draw %d = %v, math/rand %v", seed, i, x, y)
			}
		}
		if x, y := child.Int63(), rand.New(rand.NewSource(childSeed)).Int63(); x != y {
			t.Fatalf("seed %d: child's first draw %v, want %v", seed, x, y)
		}
	}

	const splits = 1000
	parent := NewRNG(1)
	sink := make([]*RNG, splits)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range sink {
		sink[i] = parent.Split()
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / splits; per >= 100 {
		t.Errorf("a Split child that never draws allocates %.0f B, want < 100", per)
	}
	runtime.KeepAlive(sink)
}
