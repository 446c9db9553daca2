package main

import (
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The reference values are Python's statistics.median and
// statistics.quantiles(xs, n=4), the functions the spread of a run set
// is recomputed with.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{3.1, 1.2, 5.0}, med: 3.1, q1: 1.2, q3: 5.0},
		{xs: []float64{2, 9}, med: 5.5, q1: 0.25, q3: 10.75},
		{xs: []float64{5, 1, 4, 2, 3, 8, 7}, med: 4, q1: 2, q3: 7},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles [%v, %v], want %v [%v, %v]", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("one sample: quartiles [%v, %v], want [4, 4]", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread %v", s)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{
		{n: 12}, {n: 99},
		{n: 100, p: 0.9, okay: true},
		{n: 199, p: 0.9, okay: true},
		{n: 200, p: 0.95, okay: true},
		{n: 1000, p: 0.99, okay: true},
		{n: 10000, p: 0.999, okay: true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.okay || p != c.p {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.okay)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Rank 0.9·101 = 90.9: between the 90th and 91st smallest.
	if got := percentile(xs, 0.9); !near(got, 90.9) {
		t.Errorf("p90 of 1..100 = %v, want 90.9", got)
	}
}

func TestFitLineRecoversAlphaAndBeta(t *testing.T) {
	xs := []float64{1, 5, 10, 15, 20}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2000 + 55*x
	}
	if a, b := fitLine(xs, ys); !near(a, 2000) || !near(b, 55) {
		t.Errorf("exact line: alpha %v beta %v, want 2000 and 55", a, b)
	}
	// Residuals +½, −½, −½, +½ around y = 1 + x are orthogonal to x
	// and sum to zero, so least squares recovers the line.
	a, b := fitLine([]float64{0, 1, 2, 3}, []float64{1.5, 1.5, 2.5, 4.5})
	if !near(a, 1) || !near(b, 1) {
		t.Errorf("noisy line: alpha %v beta %v, want 1 and 1", a, b)
	}
	if a, _ := fitLine([]float64{1}, []float64{1}); !math.IsNaN(a) {
		t.Errorf("one point fits nothing, got alpha %v", a)
	}
}

func TestBatchTailCountsTimeBelowFullOccupancy(t *testing.T) {
	// Two workers; jobs [0,4] and [1,3] overlap on [1,3], so the batch
	// [0,6] runs below two bodies for [0,1], [3,4] and [4,6].
	b := span{Start: 0, End: 6e9}
	jobs := []span{{Start: 0, End: 4e9}, {Start: 1e9, End: 3e9}}
	if got := batchTail(b, jobs, 2); !near(got, 4) {
		t.Errorf("tail %v s, want 4", got)
	}
	if got := batchTail(b, nil, 2); !near(got, 6) {
		t.Errorf("empty batch tail %v s, want the whole batch", got)
	}
}

func TestKernelScalesEachSampleByItsOwnBracket(t *testing.T) {
	if f := kernelScale(0, memRefSeconds, memRefSeconds); !near(f, 1) {
		t.Errorf("reference-speed kernel scales by %v, want 1", f)
	}
	if f := kernelScale(0, 0.05, 0.15); !near(f, 0.5) {
		t.Errorf("kernel twice as slow on average scales by %v, want 0.5", f)
	}
	if f := kernelScale(0.25, 0.075, 0.075); !near(f, 1) {
		t.Errorf("memory + files/4 at reference speed scales by %v, want 1", f)
	}
	its := []iterRecord{{WallS: 2, CPUS: 3, Cells: 100, AllocBytes: 7e6, LiveHeapBytes: 1e6}}
	s := endToEndSamples([]float64{3, 4}, its, []float64{1, 0.5, 0.25})
	for name, want := range map[string]float64{
		"wall_s": 0.5, "cpu_s": 0.75, "cells_per_s": 200, "alloc_mb": 7, "live_heap_mb": 1,
	} {
		if got := s[name]; len(got) != 1 || !near(got[0], want) {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	if got := s["setup_s"]; len(got) != 2 || !near(got[0], 3) || !near(got[1], 2) {
		t.Errorf("setup_s = %v, want [3 2]", got)
	}
}

func TestKernelRunsAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	k, err := kernel(dir, 0.25)
	if err != nil || !(k > 0) {
		t.Fatalf("kernel: %v s, %v", k, err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("kernel left %d entries in its directory (%v)", len(left), err)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	reversed := make([]float64, len(base))
	for i, x := range base {
		reversed[len(base)-1-i] = x
	}
	wide := []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.1, 0.9, 1.0}
	// Every sample above every one of wide, but spread so widely that
	// the median gap stays inside its interquartile range.
	far := []float64{1.5, 20, 1.5, 20, 1.5, 20, 1.5, 20, 1.6, 20}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same samples in another order", lower, base, reversed, unchanged},
		{"20% faster", lower, base, scale(base, 0.8), improved},
		{"20% slower", lower, base, scale(base, 1.2), worse},
		{"5% slower is within the bound", lower, base, scale(base, 1.05), unchanged},
		{"spread wider than the bound", lower, base, wide, unresolved},
		{"wide but every change sample better", lower, far, wide, improved},
		{"higher is better", metricDef{Better: "higher", Bound: 0.1}, base, scale(base, 0.8), worse},
	} {
		if got := judge(c.d, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %s (ratio %.3f, wins %d/%d), want %s", c.name, got.verdict, got.ratio, got.wins, got.pairs, c.want)
		}
	}
}
