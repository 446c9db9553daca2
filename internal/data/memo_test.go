package data

import (
	"math"
	"testing"

	"fedgpo/internal/stats"
)

// TestMemoMatchesPartition is the memo's contract: every query must be
// bit-identical to the Partition method it shadows, for IID and
// Dirichlet partitions and across Reset reuse.
func TestMemoMatchesPartition(t *testing.T) {
	rng := stats.NewRNG(11)
	parts := map[string]Partition{
		"iid":       IID(40, 10, 300),
		"dirichlet": Dirichlet(40, 10, 300, PaperAlpha, rng),
		"smaller":   Dirichlet(15, 4, 60, 0.5, rng),
		// Class counts past one and several 64-bit words, with sparse
		// Dirichlet draws leaving most classes absent per device, for the
		// coverage bitsets (MobileNet-ImageNet has 1000 classes).
		"wide":     Dirichlet(30, 130, 200, PaperAlpha, rng),
		"imagenet": Dirichlet(12, 1000, 400, PaperAlpha, rng),
	}
	var m Memo
	// Reset the same memo across partitions of different sizes: reuse
	// must not leak one partition's signals into the next.
	for _, name := range []string{"iid", "dirichlet", "imagenet", "smaller", "wide", "iid"} {
		p := parts[name]
		m.Reset(p)
		n := p.NumDevices()
		for d := 0; d < n; d++ {
			if got, want := m.DeviceSamples(d), p.DeviceSamples(d); got != want {
				t.Fatalf("%s: DeviceSamples(%d) = %d, want %d", name, d, got, want)
			}
			if got, want := m.NonIIDDegree(d), p.NonIIDDegree(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: NonIIDDegree(%d) = %v, want %v", name, d, got, want)
			}
			if got, want := m.DeviceClassCount(d), p.DeviceClassCount(d); got != want {
				t.Fatalf("%s: DeviceClassCount(%d) = %d, want %d", name, d, got, want)
			}
			if got, want := m.DeviceClassFraction(d), p.DeviceClassFraction(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: DeviceClassFraction(%d) = %v, want %v", name, d, got, want)
			}
		}
		all := make([]int, n)
		for d := range all {
			all[d] = d
		}
		sets := [][]int{
			nil,
			{0},
			{0, 1, 2},
			{n - 1, n - 2, 0},
			{3, 3, n - 1},
			all,
		}
		for _, devs := range sets {
			if got, want := m.ParticipantSkew(devs), p.ParticipantSkew(devs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ParticipantSkew(%v) = %v, want %v", name, devs, got, want)
			}
			if got, want := m.ParticipantCoverage(devs), p.ParticipantCoverage(devs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ParticipantCoverage(%v) = %v, want %v", name, devs, got, want)
			}
		}
	}
}
