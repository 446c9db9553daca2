package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Normalize returns xs scaled so that base maps to 1.0. It is used to
// report values "normalized to Fixed (Best)" as the paper's figures do.
// A zero base yields a zero slice.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ArgMax returns the index of the maximum element, or -1 for empty xs.
// Ties resolve to the lowest index.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// EMA maintains an exponential moving average. A zero EMA is ready to
// use with the given alpha set via NewEMA.
type EMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEMA returns an EMA with smoothing factor alpha in (0, 1].
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EMA alpha must be in (0,1]")
	}
	return &EMA{alpha: alpha}
}

// Add folds a new observation into the average and returns the updated
// value.
func (e *EMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EMA) Value() float64 { return e.value }

// State exposes the average and whether any observation has been
// folded in yet — together with the alpha, the EMA's full state, so
// learned components (Q-tables, energy normalizers) can be
// snapshotted and restored bit-for-bit.
func (e *EMA) State() (value float64, initialized bool) {
	return e.value, e.init
}

// Restore overwrites the average with a previously captured State.
func (e *EMA) Restore(value float64, initialized bool) {
	e.value = value
	e.init = initialized
}
