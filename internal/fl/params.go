// Package fl implements the federated-learning substrate the paper
// builds on: the FedAvg aggregation loop (paper Algorithm 1) executed
// as a discrete-event simulation over a heterogeneous device fleet,
// with straggler semantics, per-device compute/communication timing and
// energy accounting (paper Eqs. 2–6), and a pluggable round-by-round
// global-parameter controller — the seam where FedGPO and every
// baseline attach.
package fl

import "fmt"

// Params is one FL global-parameter setting: local minibatch size B,
// local epoch count E, and participant count K (paper Algorithm 1).
type Params struct {
	B, E, K int
}

// String formats the tuple the way the paper writes it, e.g. "(8,10,20)".
func (p Params) String() string { return fmt.Sprintf("(%d,%d,%d)", p.B, p.E, p.K) }

// LocalParams is the per-device portion of the action: FedGPO assigns
// (B, E) per device while K is a round-global choice.
type LocalParams struct {
	B, E int
}

// Discrete action values from paper Table 2.
var (
	bValues = []int{1, 2, 4, 8, 16, 32}
	eValues = []int{1, 5, 10, 15, 20}
	kValues = []int{1, 5, 10, 15, 20}
)

// BValues returns the discrete batch sizes of the action space.
func BValues() []int { return append([]int(nil), bValues...) }

// EValues returns the discrete local-epoch counts of the action space.
func EValues() []int { return append([]int(nil), eValues...) }

// KValues returns the discrete participant counts of the action space.
func KValues() []int { return append([]int(nil), kValues...) }

// AllParams enumerates the full discrete (B, E, K) grid
// (6 × 5 × 5 = 150 combinations), in a fixed deterministic order.
func AllParams() []Params {
	out := make([]Params, 0, len(bValues)*len(eValues)*len(kValues))
	for _, b := range bValues {
		for _, e := range eValues {
			for _, k := range kValues {
				out = append(out, Params{B: b, E: e, K: k})
			}
		}
	}
	return out
}

// AllLocalParams enumerates the per-device (B, E) grid (6 × 5 = 30).
func AllLocalParams() []LocalParams {
	out := make([]LocalParams, 0, len(bValues)*len(eValues))
	for _, b := range bValues {
		for _, e := range eValues {
			out = append(out, LocalParams{B: b, E: e})
		}
	}
	return out
}

// DefaultParams is the conventional FedAvg setting the paper's
// characterization normalizes to, (B, E, K) = (1, 10, 20) in Figs. 1–2.
func DefaultParams() Params { return Params{B: 1, E: 10, K: 20} }
