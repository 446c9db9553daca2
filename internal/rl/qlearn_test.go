package rl

import (
	"testing"

	"fedgpo/internal/stats"
)

func newTable(t *testing.T, actions int, eps float64) *QTable {
	t.Helper()
	cfg := PaperConfig()
	cfg.Epsilon = eps
	return NewQTable(actions, cfg, stats.NewRNG(1), NewSpace())
}

// newLowInitTable builds a table whose initial values sit below any
// reward used in these tests, so greedy behaviour is driven purely by
// learned values rather than optimistic initialization.
func newLowInitTable(t *testing.T, actions int, eps float64) *QTable {
	t.Helper()
	cfg := PaperConfig()
	cfg.Epsilon = eps
	cfg.InitLo, cfg.InitHi = -0.5, 0.5
	return NewQTable(actions, cfg, stats.NewRNG(1), NewSpace())
}

// named interns a state name in the table's space.
func (t *QTable) named(name string) int { return t.space.Index(name) }

// maxQ returns the value of the greedy (allowed) action for a state,
// the value Update bootstraps from.
func (t *QTable) maxQ(s int) float64 {
	row := t.Values(s)
	return row[t.best(row)]
}

func TestPaperConfigValues(t *testing.T) {
	c := PaperConfig()
	if c.LearningRate != 0.9 || c.Discount != 0.1 || c.Epsilon != 0.1 {
		t.Errorf("paper hyperparameters changed: %+v", c)
	}
}

func TestNewQTablePanics(t *testing.T) {
	cases := []func(){
		func() { NewQTable(0, PaperConfig(), stats.NewRNG(1), NewSpace()) },
		func() {
			c := PaperConfig()
			c.LearningRate = 0
			NewQTable(3, c, stats.NewRNG(1), NewSpace())
		},
		func() {
			c := PaperConfig()
			c.Discount = 1
			NewQTable(3, c, stats.NewRNG(1), NewSpace())
		},
		func() {
			c := PaperConfig()
			c.Epsilon = 2
			NewQTable(3, c, stats.NewRNG(1), NewSpace())
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

func TestValuesRandomInitWithinBounds(t *testing.T) {
	tab := newTable(t, 10, 0.1)
	row := tab.Values(tab.named("s0"))
	if len(row) != 10 {
		t.Fatalf("row size = %d", len(row))
	}
	cfg := PaperConfig()
	for _, v := range row {
		if v < cfg.InitLo || v >= cfg.InitHi {
			t.Errorf("init value %v outside [%v, %v)", v, cfg.InitLo, cfg.InitHi)
		}
	}
	// Same state returns the same row.
	row2 := tab.Values(tab.named("s0"))
	for i := range row {
		if row[i] != row2[i] {
			t.Fatal("re-reading a state re-initialized it")
		}
	}
	if tab.States() != 1 {
		t.Errorf("states = %d, want 1", tab.States())
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	tab := newLowInitTable(t, 4, 0)
	before := tab.Values(tab.named("s"))[2]
	tab.Update(tab.named("s"), 2, 10, tab.named("s2"))
	after := tab.Values(tab.named("s"))[2]
	if after <= before {
		t.Errorf("positive reward should raise Q: %v -> %v", before, after)
	}
	// Repeated updates with constant reward converge to
	// R + µ·maxQ(S') fixed point (with S' fixed and its row untouched).
	for i := 0; i < 200; i++ {
		tab.Update(tab.named("s"), 2, 10, tab.named("s2"))
	}
	want := 10 + 0.1*tab.maxQ(tab.named("s2"))
	got := tab.Values(tab.named("s"))[2]
	if diff := got - want; diff > 0.01 || diff < -0.01 {
		t.Errorf("fixed point = %v, want %v", got, want)
	}
}

func TestGreedySelectionExploitsLearnedValues(t *testing.T) {
	tab := newLowInitTable(t, 5, 0) // epsilon 0: pure exploitation
	for i := 0; i < 50; i++ {
		tab.Update(tab.named("s"), 3, 100, tab.named("s"))
	}
	for i := 0; i < 100; i++ {
		if got := tab.Select(tab.named("s")); got != 3 {
			t.Fatalf("greedy selection = %d, want 3", got)
		}
	}
	if tab.best(tab.Values(tab.named("s"))) != 3 {
		t.Error("Best should be 3")
	}
}

func TestEpsilonGreedyExploresAtExpectedRate(t *testing.T) {
	tab := newLowInitTable(t, 10, 0.5)
	for i := 0; i < 50; i++ {
		tab.Update(tab.named("s"), 0, 100, tab.named("s"))
	}
	nonGreedy := 0
	n := 20000
	for i := 0; i < n; i++ {
		if tab.Select(tab.named("s")) != 0 {
			nonGreedy++
		}
	}
	// With eps=0.5 and 10 actions, non-greedy rate = 0.5 * 9/10 = 0.45.
	rate := float64(nonGreedy) / float64(n)
	if rate < 0.42 || rate > 0.48 {
		t.Errorf("non-greedy rate = %v, want ~0.45", rate)
	}
}

func TestUpdatePanicsOnBadAction(t *testing.T) {
	tab := newTable(t, 3, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tab.Update(tab.named("s"), 3, 1, tab.named("s"))
}

func TestConvergenceDetection(t *testing.T) {
	tab := newTable(t, 3, 0)
	if tab.Converged(1e9, 1) {
		t.Error("untouched table must not be converged")
	}
	// Constant reward drives deltas to zero.
	for i := 0; i < 300; i++ {
		tab.Update(tab.named("s"), 0, 5, tab.named("s"))
	}
	if !tab.Converged(0.01, 50) {
		t.Errorf("table should have converged; deltaEMA = %v", tab.deltaEMA.Value())
	}
	if tab.Updates() != 300 {
		t.Errorf("updates = %d", tab.Updates())
	}
}

func TestMemoryBytesGrowsWithStates(t *testing.T) {
	tab := newTable(t, 30, 0.1)
	m0 := tab.MemoryBytes()
	for i := 0; i < 100; i++ {
		tab.Values(tab.named(string(rune('a'+i%26)) + string(rune('0'+i/26))))
	}
	if tab.MemoryBytes() <= m0 {
		t.Error("memory estimate should grow with states")
	}
}

func TestSetEpsilon(t *testing.T) {
	tab := newTable(t, 3, 0.1)
	tab.SetEpsilon(0)
	if tab.Epsilon() != 0 {
		t.Error("SetEpsilon did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad epsilon")
		}
	}()
	tab.SetEpsilon(-1)
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	cfg := PaperConfig()
	a := NewQTable(5, cfg, stats.NewRNG(7), NewSpace())
	b := NewQTable(5, cfg, stats.NewRNG(7), NewSpace())
	for i := 0; i < 50; i++ {
		sa, sb := a.Select(a.named("x")), b.Select(b.named("x"))
		if sa != sb {
			t.Fatalf("same-seed tables diverged at %d", i)
		}
		a.Update(a.named("x"), sa, float64(i%7), a.named("x"))
		b.Update(b.named("x"), sb, float64(i%7), b.named("x"))
	}
}

// selectOfCandidates is SelectOf as it was built on CandidatesOf, kept
// as the oracle for the in-place version.
func selectOfCandidates(t *QTable, state int, allowed []bool) int {
	candidates := t.CandidatesOf(allowed)
	if len(candidates) == 0 {
		return t.Select(state)
	}
	if t.rng.Bernoulli(t.cfg.Epsilon) {
		return candidates[t.rng.Intn(len(candidates))]
	}
	row := t.Values(state)
	best := candidates[0]
	for _, a := range candidates[1:] {
		if row[a] > row[best] {
			best = a
		}
	}
	return best
}

func TestSelectOfMatchesCandidatesOf(t *testing.T) {
	const actions = 30
	gen := stats.NewRNG(2024)
	const states = 6
	for seed := int64(1); seed <= 40; seed++ {
		cfg := PaperConfig()
		cfg.Epsilon = []float64{0, 0.1, 0.5, 1}[seed%4]
		got := NewQTable(actions, cfg, stats.NewRNG(seed), NewSpace())
		want := NewQTable(actions, cfg, stats.NewRNG(seed), NewSpace())
		for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
			got.named(name)
			want.named(name)
		}
		if seed%3 != 0 {
			mask := make([]bool, actions)
			mask[gen.Intn(actions)] = true
			for a := range mask {
				mask[a] = mask[a] || gen.Bernoulli(0.6)
			}
			got.SetMask(mask)
			want.SetMask(mask)
		}
		for step := 0; step < 200; step++ {
			// Density 0 yields the empty-intersection fallback; a short
			// allowed slice covers actions past its end.
			allowed := make([]bool, []int{actions, actions, actions, 12}[step%4])
			density := []float64{0, 0.05, 0.3, 0.9}[gen.Intn(4)]
			for a := range allowed {
				allowed[a] = gen.Bernoulli(density)
			}
			state := gen.Intn(states)
			if g, w := got.SelectOf(state, allowed), selectOfCandidates(want, state, allowed); g != w {
				t.Fatalf("seed %d step %d: SelectOf = %d, CandidatesOf version = %d", seed, step, g, w)
			}
			if step%7 == 0 {
				r := gen.Float64()
				a := got.best(got.Values(state))
				got.Update(state, a, r, state)
				want.Update(state, a, r, state)
			}
		}
		if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
			t.Fatalf("seed %d: RNG state after SelectOf differs from the CandidatesOf version", seed)
		}
	}
}

func TestSelectOfAllocs(t *testing.T) {
	tab := newTable(t, 30, 0.5)
	allowed := make([]bool, 30)
	for a := range allowed {
		allowed[a] = a%3 != 0
	}
	tab.SelectOf(tab.named("seen"), allowed)
	if n := testing.AllocsPerRun(100, func() { tab.SelectOf(tab.named("seen"), allowed) }); n != 0 {
		t.Errorf("SelectOf on a seen state makes %v allocations, want 0", n)
	}
	fresh := 0
	states := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10"}
	if n := testing.AllocsPerRun(10, func() { tab.Values(tab.named(states[fresh])); fresh++ }); n < 1 {
		t.Errorf("Values on a new state makes %v allocations, want a new row", n)
	}
}
