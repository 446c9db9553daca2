// Package core implements FedGPO, the paper's contribution: a
// reinforcement-learning global-parameter optimizer that, each FedAvg
// aggregation round, observes the execution state of the federation
// (neural-network architecture, per-device co-running interference,
// network stability, and data-class composition — paper Table 1),
// selects per-device (B, E) and a global K from the discrete action
// space of paper Table 2 via epsilon-greedy Q-learning over shared
// per-category Q-tables (paper Algorithm 2), and learns from the
// energy/accuracy reward of paper Eq. 1.
package core

import (
	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// Discretization bands from paper Table 1. Band values are single
// characters to keep Q-table keys (and the §5.4 memory footprint)
// small.

// ConvBand discretizes S_CONV: small (<10), medium (<20), large (<30),
// larger (>=30; the paper's table lists ">=40" leaving 30–39 unmapped —
// we close the gap at 30). We additionally add a "none" band for
// zero-conv architectures: without it the Table 1 bands cannot
// distinguish a small CNN from a pure-recurrent model.
func ConvBand(n int) byte {
	switch {
	case n == 0:
		return 'n'
	case n < 10:
		return 's'
	case n < 20:
		return 'm'
	case n < 30:
		return 'l'
	default:
		return 'x'
	}
}

// FCBand discretizes S_FC: small (<10), large (>=10).
func FCBand(n int) byte {
	if n < 10 {
		return 's'
	}
	return 'l'
}

// RCBand discretizes S_RC: small (<5), medium (<10), large (>=10),
// with an extra "none" band for zero recurrent layers (see ConvBand).
func RCBand(n int) byte {
	switch {
	case n == 0:
		return 'n'
	case n < 5:
		return 's'
	case n < 10:
		return 'm'
	default:
		return 'l'
	}
}

// UsageBand discretizes S_Co_CPU / S_Co_MEM from a usage fraction in
// [0,1]: none (0%), small (<25%), medium (<75%), large (<=100%).
func UsageBand(frac float64) byte { return usageBands[usageLevel(frac)] }

// usageBands lists UsageBand's bands by level.
const usageBands = "nsml"

// usageLevel is UsageBand's band as an index into usageBands.
func usageLevel(frac float64) int {
	pct := frac * 100
	switch {
	case pct <= 0:
		return 0
	case pct < 25:
		return 1
	case pct < 75:
		return 2
	default:
		return 3
	}
}

// NetworkBand discretizes S_Network: regular (>40Mbps), bad (<=40Mbps).
func NetworkBand(regular bool) byte {
	if regular {
		return 'r'
	}
	return 'b'
}

// DataBand discretizes S_Data from the class-coverage percentage
// (0..100): small (<25%), medium (<100%), large (=100%).
func DataBand(classFractionPct float64) byte { return dataBands[dataLevel(classFractionPct)] }

// dataBands lists DataBand's bands by level.
const dataBands = "sml"

// dataLevel is DataBand's band as an index into dataBands.
func dataLevel(classFractionPct float64) int {
	switch {
	case classFractionPct < 25:
		return 0
	case classFractionPct < 100:
		return 1
	default:
		return 2
	}
}

// archBands encodes the workload's architecture states (S_CONV, S_FC,
// S_RC), the leading bytes of every state key. They are constant
// within a run but keep Q-tables transferable across workloads, which
// is how shared tables "expedite the design space exploration" (§3.3).
func archBands(w *workload.Workload) [3]byte {
	return [3]byte{ConvBand(w.ConvLayers), FCBand(w.FCLayers), RCBand(w.RCLayers)}
}

// deviceKey is a device state key's bytes: the architecture bands, the
// co-runner CPU and memory bands, the network band and the data band.
type deviceKey [7]byte

// globalKey is a global state key's bytes: the architecture bands, the
// interfered and bad-network fleet fraction bands and the mean data
// band.
type globalKey [6]byte

// deviceStateBytes encodes one device's full Table 1 state for the
// per-category (B, E) Q-tables.
func deviceStateBytes(arch [3]byte, st fl.DeviceState) deviceKey {
	return deviceKey{
		arch[0], arch[1], arch[2],
		UsageBand(st.Interference.CPUUsage),
		UsageBand(st.Interference.MemUsage),
		NetworkBand(st.Network.Regular()),
		DataBand(st.ClassFraction),
	}
}

// deviceCodes bounds deviceCode.
const deviceCodes = 4 * 4 * 2 * 3

// deviceCode numbers the non-architecture bands of a device state: two
// states of one architecture share a code exactly when they share a
// deviceStateBytes key.
func deviceCode(st *fl.DeviceState) int {
	net := 0
	if !st.Network.Regular() {
		net = 1
	}
	return ((usageLevel(st.Interference.CPUUsage)*4+usageLevel(st.Interference.MemUsage))*2+net)*3 +
		dataLevel(st.ClassFraction)
}

// globalSignals returns the fleet-level signals the K-selection agent
// conditions on: the fractions of interfered and of bad-network
// devices, and the mean data-class coverage, all from the round's
// observation counts (zero for an empty fleet).
func globalSignals(obs *fl.Observation) (intf, bad, class float64) {
	if n := len(obs.Fleet); n > 0 {
		intf = float64(obs.Interfered) / float64(n)
		bad = float64(obs.BadLinks) / float64(n)
		class = obs.MeanClassFraction
	}
	return intf, bad, class
}

// globalStateBytes encodes the fleet-level state the K-selection agent
// conditions on: the architecture plus the banded globalSignals.
func globalStateBytes(arch [3]byte, intf, bad, class float64) globalKey {
	return globalKey{arch[0], arch[1], arch[2], UsageBand(intf), UsageBand(bad), DataBand(class)}
}

// globalCodes bounds globalCode.
const globalCodes = 4 * 4 * 3

// globalCode numbers the non-architecture bands of a global state, as
// deviceCode does for a device state.
func globalCode(intf, bad, class float64) int {
	return (usageLevel(intf)*4+usageLevel(bad))*3 + dataLevel(class)
}
