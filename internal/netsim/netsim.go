// Package netsim models the wireless channel between participant
// devices and the aggregation server: round-varying bandwidth following
// a Gaussian distribution (the paper's §4.2 methodology), signal
// strength bands, and the transmission latency and energy of gradient /
// parameter uploads (paper Eq. 3).
//
// The paper observes that "data transmission latency and energy
// increase exponentially at weak signal strength"; the power model here
// encodes that with an exponentially increasing transmission power as
// signal strength degrades.
package netsim

import (
	"fmt"
	"math"
)

// SignalStrength is a coarse wireless signal band. Transmission power
// rises as signal weakens (paper cites Ding et al., SIGMETRICS'13).
type SignalStrength int

// Signal bands from strongest to weakest.
const (
	SignalStrong SignalStrength = iota
	SignalMedium
	SignalWeak
)

// String labels the band.
func (s SignalStrength) String() string {
	switch s {
	case SignalStrong:
		return "strong"
	case SignalMedium:
		return "medium"
	case SignalWeak:
		return "weak"
	default:
		return "unknown"
	}
}

// Paper Table 1 discretizes S_Network at a 40 Mbps threshold
// ("regular" above, "bad" at or below).
const RegularBandwidthMbps = 40.0

// Channel is the stochastic wireless link model for one federation.
// Bandwidth is Gaussian, clamped to a physical floor: a device-round's
// standard-normal draw z becomes a bandwidth through Bandwidth, so one
// sequence of draws serves every channel. Signal strength derives from
// the bandwidth so that weak signal and low bandwidth coincide, as
// they do on real links.
type Channel struct {
	// MeanMbps and StdMbps parameterize the Gaussian bandwidth draw.
	MeanMbps float64
	StdMbps  float64
	// FloorMbps is the minimum usable bandwidth.
	FloorMbps float64
	// BaseTxWatts is the radio power at strong signal.
	BaseTxWatts float64
	// WeakTxFactor multiplies power per band of signal degradation
	// (exponential growth: strong -> medium -> weak).
	WeakTxFactor float64
}

// StableChannel returns the paper's regular-network scenario: high mean
// bandwidth and mild variation, so S_Network is almost always regular.
func StableChannel() Channel {
	return Channel{
		MeanMbps:     80,
		StdMbps:      8,
		FloorMbps:    1,
		BaseTxWatts:  0.8,
		WeakTxFactor: 1.9,
	}
}

// UnstableChannel returns the paper's network-variance scenario: the
// Gaussian is centered near the 40 Mbps "bad" threshold with a large
// spread, so devices frequently fall into the weak band.
func UnstableChannel() Channel {
	return Channel{
		MeanMbps:     38,
		StdMbps:      25,
		FloorMbps:    8,
		BaseTxWatts:  0.8,
		WeakTxFactor: 1.9,
	}
}

// Channel preset names, the values a scenario spec's network kind can
// take.
const (
	KindStable   = "stable"
	KindUnstable = "unstable"
)

// ChannelByName returns the named channel preset ("stable" or
// "unstable"); ok is false for unknown names.
func ChannelByName(kind string) (Channel, bool) {
	switch kind {
	case KindStable:
		return StableChannel(), true
	case KindUnstable:
		return UnstableChannel(), true
	default:
		return Channel{}, false
	}
}

// Key renders the channel's outcome-relevant parameters canonically
// for cache keys. Every field that shapes a draw or an energy term is
// included, so channels that behave differently never share a key.
func (ch Channel) Key() string {
	return fmt.Sprintf("gauss(mean=%g,std=%g,floor=%g,tx=%g,weak=%g)",
		ch.MeanMbps, ch.StdMbps, ch.FloorMbps, ch.BaseTxWatts, ch.WeakTxFactor)
}

// Condition is one device-round link state.
type Condition struct {
	BandwidthMbps float64
	Signal        SignalStrength
}

// Regular reports whether the condition falls in Table 1's "regular"
// band (> 40 Mbps).
func (c Condition) Regular() bool { return c.BandwidthMbps > RegularBandwidthMbps }

// Bandwidth is the channel's bandwidth at standard-normal draw z:
// MeanMbps + StdMbps*z clamped to [FloorMbps, MeanMbps+4*StdMbps+1].
// It is bit for bit stats.RNG.TruncGaussian with those bounds, where z
// is the draw TruncGaussian would have taken from its stream.
func (ch Channel) Bandwidth(z float64) float64 {
	v := ch.MeanMbps + ch.StdMbps*z
	if v < ch.FloorMbps {
		return ch.FloorMbps
	}
	if hi := ch.MeanMbps + 4*ch.StdMbps + 1; v > hi {
		return hi
	}
	return v
}

// ConditionAt is the condition of a link at bandwidth bw: the signal
// band is a pure function of the bandwidth.
func ConditionAt(bw float64) Condition {
	return Condition{BandwidthMbps: bw, Signal: signalFor(bw)}
}

// signalFor maps a drawn bandwidth to a signal band: weak below the
// regular threshold, medium within 1.5x of it, strong above.
func signalFor(bw float64) SignalStrength {
	switch {
	case bw <= RegularBandwidthMbps:
		return SignalWeak
	case bw <= 1.5*RegularBandwidthMbps:
		return SignalMedium
	default:
		return SignalStrong
	}
}

// TxSeconds returns the time to transfer payloadBytes in the given
// condition, both directions of the round trip (model download +
// gradient upload) counted once each by the caller.
func TxSeconds(payloadBytes float64, cond Condition) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	bps := cond.BandwidthMbps * 1e6 / 8
	if bps <= 0 {
		return math.Inf(1)
	}
	return payloadBytes / bps
}

// TxWatts returns the radio power during transmission at the given
// signal strength: P_TX^S in paper Eq. 3, growing exponentially as the
// signal weakens.
func (ch Channel) TxWatts(s SignalStrength) float64 {
	return ch.BaseTxWatts * math.Pow(ch.WeakTxFactor, float64(s))
}

// TxJoules implements paper Eq. 3: E_comm = P_TX^S × t_TX.
func (ch Channel) TxJoules(payloadBytes float64, cond Condition) float64 {
	t := TxSeconds(payloadBytes, cond)
	if math.IsInf(t, 1) {
		return math.Inf(1)
	}
	return ch.TxWatts(cond.Signal) * t
}

// RoundTrip aggregates one device's full communication for a round:
// download of the global model and upload of the update (both sized at
// modelBytes, as FedAvg sends full parameters both ways).
type RoundTrip struct {
	Seconds float64
	Joules  float64
}

// CommRoundTrip computes the communication time and energy for one
// participant-round.
func (ch Channel) CommRoundTrip(modelBytes float64, cond Condition) RoundTrip {
	sec := 2 * TxSeconds(modelBytes, cond)
	j := 2 * ch.TxJoules(modelBytes, cond)
	return RoundTrip{Seconds: sec, Joules: j}
}

// CommModel memoizes the channel's pure per-signal-band transmission
// power (the math.Pow in TxWatts) so the simulation round loop stops
// re-deriving it for every participant of every round. RoundTrip is
// bit-identical to Channel.CommRoundTrip — enforced by
// TestCommModelMatchesCommRoundTrip — and safe for concurrent use once
// built.
type CommModel struct {
	ch      Channel
	txWatts [3]float64 // indexed by SignalStrength
}

// Model builds the memoized form of the channel.
func (ch Channel) Model() CommModel {
	m := CommModel{ch: ch}
	for s := SignalStrong; s <= SignalWeak; s++ {
		m.txWatts[s] = ch.TxWatts(s)
	}
	return m
}

// RoundTrip is Channel.CommRoundTrip with the per-band power memoized.
func (m *CommModel) RoundTrip(modelBytes float64, cond Condition) RoundTrip {
	t := TxSeconds(modelBytes, cond)
	sec := 2 * t
	if math.IsInf(t, 1) {
		// Replicates TxJoules' explicit guard: the original returns Inf
		// here, where watts*Inf could produce NaN for a zero-power
		// channel.
		return RoundTrip{Seconds: sec, Joules: math.Inf(1)}
	}
	w := 0.0
	if cond.Signal >= 0 && int(cond.Signal) < len(m.txWatts) {
		w = m.txWatts[cond.Signal]
	} else {
		// Out-of-range bands cannot come from ConditionAt, but a
		// hand-constructed Condition still gets the unmemoized answer.
		w = m.ch.TxWatts(cond.Signal)
	}
	return RoundTrip{Seconds: sec, Joules: 2 * (w * t)}
}
