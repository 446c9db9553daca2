package netsim

import (
	"math"
	"testing"

	"fedgpo/internal/stats"
)

// TestCommModelMatchesCommRoundTrip is the memo's contract: RoundTrip
// must be bit-identical to Channel.CommRoundTrip over sampled and
// hand-built conditions, including the degenerate zero-bandwidth /
// zero-power corners.
func TestCommModelMatchesCommRoundTrip(t *testing.T) {
	channels := map[string]Channel{
		"stable":    StableChannel(),
		"unstable":  UnstableChannel(),
		"zeropower": {MeanMbps: 50, StdMbps: 10, FloorMbps: 1, BaseTxWatts: 0, WeakTxFactor: 1.9},
	}
	payloads := []float64{0, 1, 3.2e6, 1.7e7}
	for name, ch := range channels {
		m := ch.Model()
		conds := []Condition{
			{BandwidthMbps: 0, Signal: SignalWeak}, // Inf transfer time
			{BandwidthMbps: 12, Signal: SignalWeak},
			{BandwidthMbps: 55, Signal: SignalMedium},
			{BandwidthMbps: 90, Signal: SignalStrong},
			{BandwidthMbps: 30, Signal: SignalStrength(7)}, // out-of-range band
		}
		rng := stats.NewRNG(7)
		for i := 0; i < 200; i++ {
			conds = append(conds, sample(ch, rng))
		}
		for _, cond := range conds {
			for _, payload := range payloads {
				want := ch.CommRoundTrip(payload, cond)
				got := m.RoundTrip(payload, cond)
				if math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) ||
					math.Float64bits(got.Joules) != math.Float64bits(want.Joules) {
					t.Fatalf("%s payload=%g cond=%+v: memo %+v != direct %+v",
						name, payload, cond, got, want)
				}
			}
		}
	}
}
