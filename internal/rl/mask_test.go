package rl

import (
	"testing"

	"fedgpo/internal/stats"
)

func TestSetMaskPanics(t *testing.T) {
	tab := newTable(t, 4, 0.1)
	for i, mask := range [][]bool{
		{true, false},                // wrong length
		{false, false, false, false}, // allows nothing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			tab.SetMask(mask)
		}()
	}
}

func TestMaskedSelectionNeverPicksMaskedOut(t *testing.T) {
	tab := newTable(t, 6, 0.5) // heavy exploration
	tab.SetMask([]bool{false, true, false, true, false, true})
	for i := 0; i < 2000; i++ {
		a := tab.Select(tab.named("s"))
		if a%2 == 0 {
			t.Fatalf("selected masked-out action %d", a)
		}
	}
	if b := tab.best(tab.Values(tab.named("s"))); b%2 == 0 {
		t.Fatalf("Best returned masked-out action %d", b)
	}
}

func TestMaskCopiedNotAliased(t *testing.T) {
	tab := newTable(t, 3, 0)
	mask := []bool{true, false, true}
	tab.SetMask(mask)
	mask[0] = false
	mask[2] = false
	// The table must still be able to select (its copy allows 0 and 2).
	if a := tab.Select(tab.named("s")); a == 1 {
		t.Fatal("mutating the caller's slice changed the table's mask")
	}
}

// The greedy pick among the per-call allowed set intersected with the
// table mask: SelectOf with no exploration.
func TestBestOfIntersectsWithTableMask(t *testing.T) {
	tab := newLowInitTable(t, 4, 0)
	tab.SetMask([]bool{true, true, true, false})
	// Teach action 2 the highest value.
	for i := 0; i < 30; i++ {
		tab.Update(tab.named("s"), 2, 50, tab.named("s"))
	}
	// Per-call set excludes action 2: best among {0, 1}.
	got := tab.SelectOf(tab.named("s"), []bool{true, true, false, true})
	if got != 0 && got != 1 {
		t.Fatalf("greedy SelectOf = %d, want 0 or 1", got)
	}
	// Empty intersection falls back to the table mask (action 2 wins).
	if got := tab.SelectOf(tab.named("s"), []bool{false, false, false, true}); got != 2 {
		t.Fatalf("fallback SelectOf = %d, want greedy 2", got)
	}
}

func TestSelectOfExploresWithinAllowedSet(t *testing.T) {
	cfg := PaperConfig()
	cfg.Epsilon = 1 // always explore
	tab := NewQTable(5, cfg, stats.NewRNG(3), NewSpace())
	allowed := []bool{false, true, false, true, false}
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		a := tab.SelectOf(tab.named("s"), allowed)
		if !allowed[a] {
			t.Fatalf("explored disallowed action %d", a)
		}
		seen[a] = true
	}
	if len(seen) != 2 {
		t.Fatalf("exploration covered %d actions, want 2", len(seen))
	}
}

func TestSelectOfShortAllowedSliceIsSafe(t *testing.T) {
	tab := newTable(t, 5, 0)
	// A short allowed slice must not panic; indices past its end are
	// treated as disallowed.
	a := tab.SelectOf(tab.named("s"), []bool{true, true})
	if a != 0 && a != 1 {
		t.Fatalf("SelectOf with short slice = %d", a)
	}
}

func TestMaskedMaxQUsesAllowedBest(t *testing.T) {
	tab := newLowInitTable(t, 3, 0)
	for i := 0; i < 30; i++ {
		tab.Update(tab.named("s"), 0, 5, tab.named("s"))
		tab.Update(tab.named("s"), 2, 50, tab.named("s"))
	}
	full := tab.maxQ(tab.named("s"))
	tab.SetMask([]bool{true, true, false})
	masked := tab.maxQ(tab.named("s"))
	if masked >= full {
		t.Fatalf("masked maxQ %v should drop below unmasked %v", masked, full)
	}
}

// The states a table has materialized are exactly the ones its
// snapshot carries.
func TestKnownStatesListsMaterialized(t *testing.T) {
	tab := newTable(t, 2, 0)
	tab.Values(tab.named("a"))
	tab.Values(tab.named("b"))
	tab.Values(tab.named("a"))
	q := tab.Snapshot().Q
	if len(q) != 2 || tab.States() != 2 {
		t.Fatalf("snapshot states = %v, States() = %d, want a and b", q, tab.States())
	}
	if q["a"] == nil || q["b"] == nil {
		t.Fatalf("snapshot missing materialized states: %v", q)
	}
}
