package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSumMaxMin(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Min(xs) != 1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice behaviour changed")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single-element StdDev should be 0")
	}
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. No package code reads a
// percentile; the tests below keep its definition checked.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

func TestMedianAndPercentile(t *testing.T) {
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if got := percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := percentile(xs, 50); got != 30 {
		t.Errorf("P50 = %v", got)
	}
	if got := percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 6}, 2)
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", got, want)
		}
	}
	for _, v := range Normalize([]float64{1, 2}, 0) {
		if v != 0 {
			t.Fatal("zero base should produce zeros")
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaved")
	}
}

func TestArgMaxArgMin(t *testing.T) {
	xs := []float64{3, 9, 9, 1}
	if ArgMax(xs) != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of ties)", ArgMax(xs))
	}
	if ArgMax(nil) != -1 {
		t.Error("empty ArgMax should be -1")
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if got := e.Add(10); got != 10 {
		t.Errorf("first Add = %v, want 10", got)
	}
	if got := e.Add(20); got != 15 {
		t.Errorf("second Add = %v, want 15", got)
	}
	if e.Value() != 15 {
		t.Errorf("Value = %v", e.Value())
	}
}

func TestEMABadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEMA(0)
}

func TestPropertyMeanBounds(t *testing.T) {
	// Property: Min <= Mean <= Max for any non-empty slice.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return Min(xs)-1e-6 <= m && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p, q := float64(a%101), float64(b%101)
		if p > q {
			p, q = q, p
		}
		return percentile(xs, p) <= percentile(xs, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
