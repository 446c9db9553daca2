// Package interfere models on-device interference from co-running
// applications. The paper's methodology (§4.2) runs a synthetic
// co-runner "with the same CPU and memory usage as the real-world
// mobile application of web browsing" on a random subset of devices;
// this package reproduces that: a profile of CPU/memory footprints, a
// per-round activation probability, and sampled per-device loads that
// feed both the device compute model (slowdown) and FedGPO's
// S_Co_CPU / S_Co_MEM states.
package interfere

import (
	"fmt"

	"fedgpo/internal/device"
	"fedgpo/internal/stats"
)

// Profile describes a co-running application's resource footprint.
// Usage values are fractions of the device resource in [0, 1].
type Profile struct {
	Name string
	// MeanCPU/StdCPU parameterize the Gaussian CPU usage draw.
	MeanCPU, StdCPU float64
	// MeanMem/StdMem parameterize the Gaussian memory usage draw.
	MeanMem, StdMem float64
}

// WebBrowsing is the paper's synthetic co-runner: CPU/memory usage
// matching a web-browsing session (bursty, moderate CPU; sizeable
// resident memory), per the mobile characterization studies the paper
// cites (Pandiyan et al., Shingari et al.).
func WebBrowsing() Profile {
	return Profile{
		Name:    "web-browsing",
		MeanCPU: 0.45, StdCPU: 0.15,
		MeanMem: 0.30, StdMem: 0.10,
	}
}

// HeavyGame is an optional heavier co-runner used by stress experiments.
func HeavyGame() Profile {
	return Profile{
		Name:    "heavy-game",
		MeanCPU: 0.80, StdCPU: 0.10,
		MeanMem: 0.55, StdMem: 0.10,
	}
}

// ProfileByName returns the named co-runner profile ("web-browsing" or
// "heavy-game"); ok is false for unknown names.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case WebBrowsing().Name:
		return WebBrowsing(), true
	case HeavyGame().Name:
		return HeavyGame(), true
	default:
		return Profile{}, false
	}
}

// Key renders the model's outcome-relevant parameters canonically for
// cache keys: the profile's footprint distribution and the activation
// fraction.
func (m Model) Key() string {
	if !m.Active() {
		return "none"
	}
	return fmt.Sprintf("%s(cpu=%g±%g,mem=%g±%g)@%g", m.Profile.Name,
		m.Profile.MeanCPU, m.Profile.StdCPU, m.Profile.MeanMem, m.Profile.StdMem,
		m.ActiveFraction)
}

// Model generates per-device, per-round interference. A fraction
// ActiveFraction of devices has the co-runner active in any round
// (chosen independently each round, matching "a random subset of
// devices").
type Model struct {
	Profile        Profile
	ActiveFraction float64
}

// None returns a model that never generates interference (the paper's
// "absence of runtime variance" scenario).
func None() Model { return Model{ActiveFraction: 0} }

// Paper returns the paper's interference scenario: the web-browsing
// co-runner active on a random subset of devices. The paper does not
// publish the subset size; 50% exercises both the interfered and clean
// populations every round.
func Paper() Model {
	return Model{Profile: WebBrowsing(), ActiveFraction: 0.5}
}

// Sample draws this round's interference for one device.
func (m Model) Sample(rng *stats.RNG) device.Interference {
	if m.ActiveFraction <= 0 || !rng.Bernoulli(m.ActiveFraction) {
		return device.Interference{}
	}
	return device.Interference{
		CPUUsage: rng.TruncGaussian(m.Profile.MeanCPU, m.Profile.StdCPU, 0, 1),
		MemUsage: rng.TruncGaussian(m.Profile.MeanMem, m.Profile.StdMem, 0, 1),
	}
}

// Active reports whether the model generates any interference at all.
func (m Model) Active() bool { return m.ActiveFraction > 0 }
