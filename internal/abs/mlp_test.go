package abs

import (
	"math"
	"testing"

	"fedgpo/internal/stats"
)

// The backward pass must match a central-difference gradient of the
// masked TD loss on every parameter, and only each row's taken action
// may carry an output gradient.
func TestMLPBackwardMatchesNumericalGradient(t *testing.T) {
	const in, hidden, out, rows = 5, 7, 4, 6
	rng := stats.NewRNG(3)
	net := newMLP(in, hidden, out, 0.01, rng)
	_, b1, _, b2 := net.layers(net.w)
	for i := range b1 {
		b1[i] = rng.Float64() - 0.5
	}
	for i := range b2 {
		b2[i] = rng.Float64() - 0.5
	}
	// Feature 1 is always zero, like an idle state feature, so the
	// zero-input skip is exercised.
	x := make([]float64, rows*in)
	for i := range x {
		if i%in != 1 {
			x[i] = rng.Float64()*2 - 1
		}
	}
	actions := make([]int, rows)
	targets := make([]float64, rows)
	for i := range actions {
		actions[i] = rng.Intn(out)
		targets[i] = rng.Float64()*2 - 1
	}
	loss := func() float64 {
		pred := net.forward(net.w, x, rows)
		s := 0.0
		for i, a := range actions {
			d := pred[i*out+a] - targets[i]
			s += d * d
		}
		return s / rows
	}

	pred := net.forward(net.w, x, rows)
	cut := 0
	for _, v := range net.h {
		if v == 0 {
			cut++
		}
	}
	if cut == 0 || cut == len(net.h) {
		t.Fatalf("ReLU cut %d of %d hidden units; want some of each", cut, len(net.h))
	}
	dy := make([]float64, rows*out)
	tdGrad(dy, pred, actions, targets, out)
	for i, g := range dy {
		if i%out != actions[i/out] && g != 0 {
			t.Errorf("masked-out output %d got gradient %v", i, g)
		}
	}
	net.backward(x, dy, rows)
	grad := append([]float64(nil), net.grad...)

	const h = 1e-6
	for i := range net.w {
		orig := net.w[i]
		net.w[i] = orig + h
		up := loss()
		net.w[i] = orig - h
		down := loss()
		net.w[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("parameter %d: backward %v, numerical %v", i, grad[i], num)
		}
	}
}

// With an all-ones output gradient and no mask, backward must match a
// central-difference gradient of the sum of every output.
func TestMLPUnmaskedGradientMatchesNumerical(t *testing.T) {
	const in, hidden, out, rows = 3, 5, 2, 4
	rng := stats.NewRNG(6)
	net := newMLP(in, hidden, out, 0.01, rng)
	x := make([]float64, rows*in)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	sumOut := func() float64 {
		s := 0.0
		for _, v := range net.forward(net.w, x, rows) {
			s += v
		}
		return s
	}

	net.forward(net.w, x, rows)
	dy := make([]float64, rows*out)
	for i := range dy {
		dy[i] = 1
	}
	net.backward(x, dy, rows)
	grad := append([]float64(nil), net.grad...)

	const h = 1e-6
	for i := range net.w {
		orig := net.w[i]
		net.w[i] = orig + h
		up := sumOut()
		net.w[i] = orig - h
		down := sumOut()
		net.w[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("parameter %d: backward %v, numerical %v", i, grad[i], num)
		}
	}
}

// tdGrad is the masked-MSE gradient 2·(pred−target)/rows on each row's
// taken action and exactly zero everywhere else.
func TestTDGradKnownValuesAndMask(t *testing.T) {
	pred := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	actions := []int{0, 2, 1}
	targets := []float64{0, 4, 8}
	dy := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9} // stale values must be cleared
	tdGrad(dy, pred, actions, targets, 3)
	want := []float64{
		2.0 / 3, 0, 0,
		0, 0, 4.0 / 3,
		0, 0, 0,
	}
	for i := range want {
		if dy[i] != want[i] {
			t.Fatalf("tdGrad = %v, want %v", dy, want)
		}
	}
}
