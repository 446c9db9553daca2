// Package device models the participant hardware of the FedGPO paper:
// three smartphone performance categories (high/mid/low-end), their
// compute capability and memory capacity (paper Table 3), their CPU/GPU
// DVFS power envelopes (paper Table 4), and the utilization-based
// compute and idle energy formulations (paper Eqs. 2 and 4).
//
// The paper emulated the fleet with Amazon EC2 instances of equivalent
// GFLOPS/RAM and measured power on three representative phones with a
// Monsoon meter; this package implements the analytic models the paper
// distilled those measurements into.
package device

import "fmt"

// Category is a device performance category. The paper groups the
// in-the-field device population into high-end (H), mid-end (M) and
// low-end (L) devices.
type Category int

// Device performance categories, ordered from fastest to slowest.
const (
	High Category = iota
	Mid
	Low
	NumCategories = 3
)

// String returns the paper's single-letter label for the category.
func (c Category) String() string {
	switch c {
	case High:
		return "H"
	case Mid:
		return "M"
	case Low:
		return "L"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all categories in order.
func Categories() []Category { return []Category{High, Mid, Low} }

// PowerCurve describes a processing unit's DVFS envelope: its number of
// voltage/frequency steps and the power drawn at the top step. Power at
// intermediate steps follows the classic P ∝ f·V² ≈ f³ scaling between
// a floor and the peak, which is the shape the utilization-based models
// the paper cites (Joseph & Martonosi; Kim et al.) assume.
type PowerCurve struct {
	MaxFreqGHz float64 // top frequency step
	Steps      int     // number of V/F steps (paper Table 4)
	PeakWatts  float64 // power at the top step, busy (paper Table 4)
	FloorWatts float64 // power at the lowest step, busy
}

// PowerAt returns the busy power at V/F step (1-based; Steps = top).
// Steps outside [1, Steps] are clamped.
func (p PowerCurve) PowerAt(step int) float64 {
	if p.Steps <= 1 {
		return p.PeakWatts
	}
	if step < 1 {
		step = 1
	}
	if step > p.Steps {
		step = p.Steps
	}
	frac := float64(step) / float64(p.Steps)
	// Cubic interpolation between floor and peak.
	return p.FloorWatts + (p.PeakWatts-p.FloorWatts)*frac*frac*frac
}

// Profile is the static hardware description of one device category.
// Performance and RAM come from paper Table 3 (EC2 equivalents); the
// CPU/GPU envelopes from paper Table 4 (measured phones).
type Profile struct {
	Category  Category
	Name      string  // representative phone (Table 4)
	Instance  string  // EC2 instance the paper emulated with (Table 3)
	GFLOPS    float64 // theoretical peak compute (Table 3)
	RAMBytes  float64 // memory capacity (Table 3)
	CPU       PowerCurve
	GPU       PowerCurve
	IdleWatts float64 // whole-device idle draw (screen-off estimate)
	// WaitWatts is the draw while a participant that finished local
	// training waits for the global aggregation: the FL runtime keeps
	// the training context resident, holds wakelocks, and busy-polls
	// the server over an active radio, so the device sits near busy
	// power (~75% of peak here). This is the "redundant energy
	// consumption" of the straggler problem — the paper's Fig. 5 shows
	// fast devices under fixed parameters consuming energy comparable
	// to the slow devices they wait for, which is only possible if
	// waiting draws close to busy power.
	WaitWatts float64
}

const gb = 1024 * 1024 * 1024

// Profiles returns the three category profiles with the paper's
// published numbers. Idle power is not tabulated in the paper; the
// values here are typical screen-off smartphone draws scaled by device
// class, and only relative magnitudes matter for the normalized results.
func Profiles() map[Category]Profile {
	return map[Category]Profile{
		High: {
			Category:  High,
			Name:      "Mi8Pro",
			Instance:  "m4.large",
			GFLOPS:    153.6,
			RAMBytes:  8 * gb,
			CPU:       PowerCurve{MaxFreqGHz: 2.8, Steps: 23, PeakWatts: 5.5, FloorWatts: 0.7},
			GPU:       PowerCurve{MaxFreqGHz: 0.7, Steps: 7, PeakWatts: 2.8, FloorWatts: 0.4},
			IdleWatts: 0.35,
			WaitWatts: 6.2,
		},
		Mid: {
			Category:  Mid,
			Name:      "Galaxy S10e",
			Instance:  "t3a.medium",
			GFLOPS:    80.0,
			RAMBytes:  4 * gb,
			CPU:       PowerCurve{MaxFreqGHz: 2.7, Steps: 21, PeakWatts: 5.6, FloorWatts: 0.7},
			GPU:       PowerCurve{MaxFreqGHz: 0.7, Steps: 9, PeakWatts: 2.4, FloorWatts: 0.35},
			IdleWatts: 0.30,
			WaitWatts: 5.8,
		},
		Low: {
			Category:  Low,
			Name:      "Moto X Force",
			Instance:  "t2.small",
			GFLOPS:    52.8,
			RAMBytes:  2 * gb,
			CPU:       PowerCurve{MaxFreqGHz: 1.9, Steps: 15, PeakWatts: 3.6, FloorWatts: 0.5},
			GPU:       PowerCurve{MaxFreqGHz: 0.6, Steps: 6, PeakWatts: 2.0, FloorWatts: 0.3},
			IdleWatts: 0.25,
			WaitWatts: 4.2,
		},
	}
}

// Device is one participant in the federation: a profile plus fleet
// identity. Round-varying state (interference, bandwidth, data shard)
// lives in the simulation layer, keeping Device immutable and safe to
// share.
type Device struct {
	ID      int
	Profile Profile
}

// FleetComposition is the number of devices of each category.
// The paper composes 200 devices as 30 H, 70 M, 100 L by reference to
// an in-the-field performance distribution. The JSON form is the
// device-class mix of a serialized scenario spec.
type FleetComposition struct {
	High int `json:"high,omitempty"`
	Mid  int `json:"mid,omitempty"`
	Low  int `json:"low,omitempty"`
}

// Key renders the composition canonically for cache keys, e.g.
// "H30:M70:L100".
func (f FleetComposition) Key() string {
	return fmt.Sprintf("H%d:M%d:L%d", f.High, f.Mid, f.Low)
}

// PaperComposition returns the paper's 30/70/100 fleet mix.
func PaperComposition() FleetComposition { return FleetComposition{High: 30, Mid: 70, Low: 100} }

// Total returns the fleet size.
func (f FleetComposition) Total() int { return f.High + f.Mid + f.Low }

// Scale returns the composition proportionally resized to total n
// (rounding keeps the sum exactly n; remainders go to the Low class,
// the most populous in the paper's mix). It panics if n <= 0.
func (f FleetComposition) Scale(n int) FleetComposition {
	if n <= 0 {
		panic("device: fleet size must be positive")
	}
	t := float64(f.Total())
	h := int(float64(f.High) / t * float64(n))
	m := int(float64(f.Mid) / t * float64(n))
	l := n - h - m
	return FleetComposition{High: h, Mid: m, Low: l}
}

// NewFleet builds the device list for a composition. Device IDs are
// assigned densely, grouped by category (H first), which makes shared
// per-category Q-table indexing trivial.
func NewFleet(comp FleetComposition) []Device {
	profiles := Profiles()
	fleet := make([]Device, 0, comp.Total())
	id := 0
	add := func(c Category, n int) {
		for i := 0; i < n; i++ {
			fleet = append(fleet, Device{ID: id, Profile: profiles[c]})
			id++
		}
	}
	add(High, comp.High)
	add(Mid, comp.Mid)
	add(Low, comp.Low)
	return fleet
}
