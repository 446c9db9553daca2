// Package data models the training-data distribution across the
// federation. The paper evaluates two distributions (§4.2): Ideal IID,
// where every class is evenly represented on every device, and Non-IID,
// where each class is spread over devices following a Dirichlet
// distribution with concentration 0.1.
//
// The partition exposes exactly the signals the rest of the system
// needs: per-device sample counts (drives compute time), per-device
// class counts (FedGPO's S_Data state, paper Table 1), and
// statistical-heterogeneity measures consumed by the convergence model.
package data

import (
	"math"

	"fedgpo/internal/stats"
)

// Partition is the assignment of class-labelled samples to devices.
// Counts[d][c] is the number of class-c samples held by device d.
//
// Rows are read-only: IID rows alias one shared ring (see IID), so a
// write through one row would change others, and a partition from
// WithSignals carries signals computed from them.
type Partition struct {
	NumClasses int
	Counts     [][]int

	signals *deviceSignals // set by WithSignals only
}

// NumDevices returns the number of devices in the partition.
func (p Partition) NumDevices() int { return len(p.Counts) }

// IID builds the paper's Ideal-IID distribution: every device holds
// samplesPerDevice samples spread evenly over all classes (remainders
// assigned round-robin so totals are exact).
//
// Device d holds base+1 samples of classes d, d+1, ..., d+rem-1 (mod
// classes) and base of the rest, so every row is a rotation of one
// pattern, base + (c < rem). IID fills that pattern twice into a
// 2·classes ring and hands device d the full-cap window starting at
// classes − d%classes: two allocations however large the fleet.
func IID(devices, classes, samplesPerDevice int) Partition {
	validate(devices, classes, samplesPerDevice)
	base := samplesPerDevice / classes
	rem := samplesPerDevice % classes
	ring := make([]int, 2*classes)
	for c := range ring {
		ring[c] = base
		if c%classes < rem {
			ring[c]++
		}
	}
	counts := make([][]int, devices)
	for d := range counts {
		o := classes - d%classes
		counts[d] = ring[o : o+classes : o+classes]
	}
	return Partition{NumClasses: classes, Counts: counts}
}

// Dirichlet builds the paper's Non-IID distribution: for each device,
// class proportions are drawn from a symmetric Dirichlet with the given
// concentration (the paper uses 0.1), and samplesPerDevice samples are
// allocated to classes by largest-remainder rounding of the drawn
// proportions.
func Dirichlet(devices, classes, samplesPerDevice int, alpha float64, rng *stats.RNG) Partition {
	validate(devices, classes, samplesPerDevice)
	if alpha <= 0 {
		panic("data: Dirichlet concentration must be positive")
	}
	counts := make([][]int, devices)
	for d := range counts {
		props := rng.SymmetricDirichlet(classes, alpha)
		counts[d] = allocate(props, samplesPerDevice)
	}
	return Partition{NumClasses: classes, Counts: counts}
}

// PaperAlpha is the Dirichlet concentration the paper's non-IID
// experiments use.
const PaperAlpha = 0.1

func validate(devices, classes, samplesPerDevice int) {
	if devices <= 0 || classes <= 0 || samplesPerDevice < 0 {
		panic("data: devices and classes must be positive, samples non-negative")
	}
}

// allocate converts proportions into integer counts summing exactly to
// total, using largest-remainder apportionment.
func allocate(props []float64, total int) []int {
	counts := make([]int, len(props))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(props))
	assigned := 0
	for i, p := range props {
		exact := p * float64(total)
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - math.Floor(exact)}
	}
	// Hand the leftover samples to the largest fractional remainders.
	for assigned < total {
		best := -1
		for i := range rems {
			if rems[i].frac >= 0 && (best == -1 || rems[i].frac > rems[best].frac) {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

// DeviceSamples returns the number of samples device d holds.
func (p Partition) DeviceSamples(d int) int {
	s := 0
	for _, c := range p.Counts[d] {
		s += c
	}
	return s
}

// DeviceClassCount returns the number of distinct classes device d
// holds at least one sample of — the raw value behind FedGPO's S_Data
// state.
func (p Partition) DeviceClassCount(d int) int {
	n := 0
	for _, c := range p.Counts[d] {
		if c > 0 {
			n++
		}
	}
	return n
}

// DeviceClassFraction returns the percentage (0..100) of classes the
// device covers, matching Table 1's S_Data bands: small (<25%), medium
// (<100%), large (=100%).
func (p Partition) DeviceClassFraction(d int) float64 {
	return 100 * float64(p.DeviceClassCount(d)) / float64(p.NumClasses)
}

// NonIIDDegree returns 1 - H(classes_d)/log(C): 0 for a perfectly
// uniform device, approaching 1 for a single-class device. It is the
// statistical-heterogeneity signal the convergence model consumes.
func (p Partition) NonIIDDegree(d int) float64 {
	total := p.DeviceSamples(d)
	if total == 0 || p.NumClasses <= 1 {
		return 0
	}
	h := 0.0
	for _, c := range p.Counts[d] {
		if c == 0 {
			continue
		}
		q := float64(c) / float64(total)
		h -= q * math.Log(q)
	}
	return 1 - h/math.Log(float64(p.NumClasses))
}

// ParticipantSkew returns the sample-weighted mean non-IID degree of a
// participant set — how skewed the data reflected in this round's
// gradient is. An empty set or zero samples yields 0.
func (p Partition) ParticipantSkew(devices []int) float64 {
	totalSamples := 0
	weighted := 0.0
	for _, d := range devices {
		n := p.DeviceSamples(d)
		totalSamples += n
		weighted += float64(n) * p.NonIIDDegree(d)
	}
	if totalSamples == 0 {
		return 0
	}
	return weighted / float64(totalSamples)
}

// ParticipantCoverage returns the fraction (0..1) of classes covered by
// the union of the participants' data. Low coverage is what makes small
// K dangerous under non-IID data.
func (p Partition) ParticipantCoverage(devices []int) float64 {
	if p.NumClasses == 0 {
		return 0
	}
	covered := make([]bool, p.NumClasses)
	for _, d := range devices {
		for c, n := range p.Counts[d] {
			if n > 0 {
				covered[c] = true
			}
		}
	}
	n := 0
	for _, v := range covered {
		if v {
			n++
		}
	}
	return float64(n) / float64(p.NumClasses)
}
