package abs

import (
	"math"

	"fedgpo/internal/stats"
)

// Adam's decay rates and epsilon. The β's are variables on purpose:
// as untyped constants Go would fold 1-0.9 exactly, while the agent's
// recorded behavior uses the rounded float64 difference.
var adamBeta1, adamBeta2, adamEps = 0.9, 0.999, 1e-8

// mlp is the DQN's fixed-shape network, in → hidden (ReLU) → out,
// trained with Adam. Its parameters are one flat row-major slice
// [W1 | b1 | W2 | b2], so a target network is a copy of that slice.
type mlp struct {
	in, hidden, out int
	lr              float64

	w, grad []float64 // parameters and their gradient
	m, v    []float64 // Adam moments
	steps   int

	// h and y hold the hidden activations (after ReLU) and the outputs
	// of the last forward pass; backward reads h. dh is backward's
	// per-row hidden gradient.
	h, y, dh []float64
}

// newMLP draws W1 then W2 Glorot-uniform from rng; biases start at zero.
func newMLP(in, hidden, out int, lr float64, rng *stats.RNG) *mlp {
	n := in*hidden + hidden + hidden*out + out
	net := &mlp{
		in: in, hidden: hidden, out: out, lr: lr,
		w: make([]float64, n), grad: make([]float64, n),
		m: make([]float64, n), v: make([]float64, n),
		dh: make([]float64, hidden),
	}
	w1, _, w2, _ := net.layers(net.w)
	glorot(w1, in, hidden, rng)
	glorot(w2, hidden, out, rng)
	return net
}

func glorot(w []float64, in, out int, rng *stats.RNG) {
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * limit
	}
}

// layers splits a flat parameter slice into W1 [in×hidden], b1,
// W2 [hidden×out] and b2.
func (n *mlp) layers(p []float64) (w1, b1, w2, b2 []float64) {
	i1 := n.in * n.hidden
	i2 := i1 + n.hidden
	i3 := i2 + n.hidden*n.out
	return p[:i1], p[i1:i2], p[i2:i3], p[i3:]
}

// forward evaluates the network with parameters p (the live weights or
// a target copy) on rows inputs x [rows×in] and returns the outputs
// [rows×out], valid until the next call.
func (n *mlp) forward(p, x []float64, rows int) []float64 {
	w1, b1, w2, b2 := n.layers(p)
	if cap(n.h) < rows*n.hidden {
		n.h = make([]float64, rows*n.hidden)
		n.y = make([]float64, rows*n.out)
	}
	n.h, n.y = n.h[:rows*n.hidden], n.y[:rows*n.out]
	affine(n.h, x, w1, b1, rows, n.in, n.hidden)
	for i, v := range n.h {
		if v <= 0 {
			n.h[i] = 0
		}
	}
	affine(n.y, n.h, w2, b2, rows, n.hidden, n.out)
	return n.y
}

// affine computes c = a·w + b for a [m×k] and w [k×cols]: the product
// first, skipping zero entries of a, then the bias.
func affine(c, a, w, b []float64, m, k, cols int) {
	clear(c)
	for i := 0; i < m; i++ {
		crow := c[i*cols : (i+1)*cols]
		for p, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			for j, wv := range w[p*cols : (p+1)*cols] {
				crow[j] += av * wv
			}
		}
		for j := range crow {
			crow[j] += b[j]
		}
	}
}

// tdGrad writes into dy [rows×out] the gradient of the mean squared
// error between pred and targets on each row's taken action only;
// every other output is masked out and gets zero gradient.
func tdGrad(dy, pred []float64, actions []int, targets []float64, out int) {
	clear(dy)
	for i, a := range actions {
		dy[i*out+a] = 2 * (pred[i*out+a] - targets[i])
	}
	cnt := float64(len(actions))
	for i := range dy {
		dy[i] /= cnt
	}
}

// backward sets n.grad to the gradient of the loss whose output
// gradient is dy [rows×out], for the forward pass just run on the live
// weights with inputs x.
func (n *mlp) backward(x, dy []float64, rows int) {
	_, _, w2, _ := n.layers(n.w)
	g1, gb1, g2, gb2 := n.layers(n.grad)
	clear(n.grad)
	dh := n.dh
	for p := 0; p < rows; p++ {
		dyrow := dy[p*n.out : (p+1)*n.out]
		hrow := n.h[p*n.hidden : (p+1)*n.hidden]
		// Output layer: dW2 += hᵀ·dy, db2 += dy.
		for i, hv := range hrow {
			if hv == 0 {
				continue
			}
			grow := g2[i*n.out : (i+1)*n.out]
			for j, d := range dyrow {
				grow[j] += hv * d
			}
		}
		for j, d := range dyrow {
			gb2[j] += d
		}
		// Hidden layer: dh = dy·W2ᵀ on the units ReLU passed (a zero
		// activation marks a cut one), then dW1 += xᵀ·dh, db1 += dh.
		for i, hv := range hrow {
			dh[i] = 0
			if hv == 0 {
				continue
			}
			for j, d := range dyrow {
				if d == 0 {
					continue
				}
				dh[i] += d * w2[i*n.out+j]
			}
		}
		for i, xv := range x[p*n.in : (p+1)*n.in] {
			if xv == 0 {
				continue
			}
			grow := g1[i*n.hidden : (i+1)*n.hidden]
			for j, d := range dh {
				grow[j] += xv * d
			}
		}
		for j, d := range dh {
			gb1[j] += d
		}
	}
}

// adamStep applies one Adam update from n.grad.
func (n *mlp) adamStep() {
	n.steps++
	bc1 := 1 - math.Pow(adamBeta1, float64(n.steps))
	bc2 := 1 - math.Pow(adamBeta2, float64(n.steps))
	for i, g := range n.grad {
		n.m[i] = adamBeta1*n.m[i] + (1-adamBeta1)*g
		n.v[i] = adamBeta2*n.v[i] + (1-adamBeta2)*g*g
		mHat := n.m[i] / bc1
		vHat := n.v[i] / bc2
		n.w[i] -= n.lr * mHat / (math.Sqrt(vHat) + adamEps)
	}
}
