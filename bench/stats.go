package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spread this benchmark reports is the spread a reader recomputes from
// the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		ld := len(s)
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-quantile (0 < p < 1) of xs by the same
// exclusive interpolation as quartiles: the value at rank p·(n+1),
// clamped to the sample range.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(len(s)) {
		return s[len(s)-1]
	}
	j := int(pos)
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// tailPercentiles are the tail ranks a timing may be reported at.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9}

// tailPercentile picks the highest tail percentile that leaves at least
// ten of n samples beyond it. ok is false when n is too small for any
// of them (fewer than 100 samples): the median is then the highest
// percentile the run can support.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// fitLine is the ordinary least-squares fit y ≈ alpha + beta·x: a
// layer's fixed cost and its cost per unit of size.
func fitLine(xs, ys []float64) (alpha, beta float64) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	beta = (n*sxy - sx*sy) / den
	alpha = (sy - beta*sx) / n
	return alpha, beta
}
