package data

import (
	"math"
	"testing"
	"testing/quick"

	"fedgpo/internal/stats"
)

func TestIIDEvenAndExact(t *testing.T) {
	p := IID(20, 10, 600)
	if p.NumDevices() != 20 {
		t.Fatalf("devices = %d", p.NumDevices())
	}
	for d := 0; d < 20; d++ {
		if got := p.DeviceSamples(d); got != 600 {
			t.Errorf("device %d samples = %d, want 600", d, got)
		}
		if got := p.DeviceClassCount(d); got != 10 {
			t.Errorf("device %d classes = %d, want all 10", d, got)
		}
		if skew := p.NonIIDDegree(d); skew > 1e-9 {
			t.Errorf("IID device %d non-IID degree = %v, want 0", d, skew)
		}
	}
}

func TestIIDWithRemainderExact(t *testing.T) {
	p := IID(7, 10, 603) // 603 = 60*10 + 3
	for d := 0; d < 7; d++ {
		if got := p.DeviceSamples(d); got != 603 {
			t.Errorf("device %d samples = %d, want 603", d, got)
		}
	}
}

func TestDirichletExactTotalsAndSkew(t *testing.T) {
	rng := stats.NewRNG(1)
	p := Dirichlet(50, 10, 600, PaperAlpha, rng)
	skews := make([]float64, 0, 50)
	for d := 0; d < 50; d++ {
		if got := p.DeviceSamples(d); got != 600 {
			t.Errorf("device %d samples = %d, want 600", d, got)
		}
		skews = append(skews, p.NonIIDDegree(d))
	}
	if mean := stats.Mean(skews); mean < 0.4 {
		t.Errorf("Dirichlet(0.1) mean non-IID degree = %v, want strongly skewed (>0.4)", mean)
	}
	// Devices should typically hold only a few classes at alpha=0.1.
	fewClass := 0
	for d := 0; d < 50; d++ {
		if p.DeviceClassCount(d) <= 5 {
			fewClass++
		}
	}
	if fewClass < 25 {
		t.Errorf("only %d/50 devices hold <=5 classes; Dirichlet(0.1) should be skewed", fewClass)
	}
}

func TestDirichletHighAlphaNearIID(t *testing.T) {
	rng := stats.NewRNG(2)
	p := Dirichlet(30, 10, 1000, 100, rng)
	if skew := meanSkew(p); skew > 0.05 {
		t.Errorf("Dirichlet(100) global skew = %v, want near 0", skew)
	}
}

func TestDirichletDeterministicPerSeed(t *testing.T) {
	a := Dirichlet(10, 10, 100, 0.1, stats.NewRNG(5))
	b := Dirichlet(10, 10, 100, 0.1, stats.NewRNG(5))
	for d := range a.Counts {
		for c := range a.Counts[d] {
			if a.Counts[d][c] != b.Counts[d][c] {
				t.Fatalf("same-seed partitions diverged at [%d][%d]", d, c)
			}
		}
	}
}

func TestValidatePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IID(0, 10, 100) },
		func() { IID(10, 0, 100) },
		func() { IID(10, 10, -1) },
		func() { Dirichlet(10, 10, 100, 0, stats.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDeviceClassFractionBands(t *testing.T) {
	p := Partition{NumClasses: 10, Counts: [][]int{
		{5, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // 1 class -> 10%
		{1, 1, 1, 1, 1, 0, 0, 0, 0, 0}, // 5 classes -> 50%
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, // all -> 100%
	}}
	wants := []float64{10, 50, 100}
	for d, want := range wants {
		if got := p.DeviceClassFraction(d); got != want {
			t.Errorf("device %d class fraction = %v, want %v", d, got, want)
		}
	}
}

func TestNonIIDDegreeExtremes(t *testing.T) {
	p := Partition{NumClasses: 10, Counts: [][]int{
		{100, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}}
	if got := p.NonIIDDegree(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("single-class degree = %v, want 1", got)
	}
	if got := p.NonIIDDegree(1); got > 1e-9 {
		t.Errorf("uniform degree = %v, want 0", got)
	}
	if got := p.NonIIDDegree(2); got != 0 {
		t.Errorf("empty device degree = %v, want 0", got)
	}
}

func TestParticipantSkewWeighted(t *testing.T) {
	p := Partition{NumClasses: 2, Counts: [][]int{
		{100, 0}, // fully skewed, many samples
		{1, 1},   // uniform, few samples
	}}
	skew := p.ParticipantSkew([]int{0, 1})
	if skew < 0.9 {
		t.Errorf("weighted skew = %v, want dominated by device 0 (>0.9)", skew)
	}
	if got := p.ParticipantSkew(nil); got != 0 {
		t.Errorf("empty participant skew = %v", got)
	}
}

func TestParticipantCoverage(t *testing.T) {
	p := Partition{NumClasses: 4, Counts: [][]int{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 1},
	}}
	if got := p.ParticipantCoverage([]int{0}); got != 0.25 {
		t.Errorf("coverage 1 device = %v", got)
	}
	if got := p.ParticipantCoverage([]int{0, 1, 2}); got != 1 {
		t.Errorf("coverage all = %v", got)
	}
}

func TestTotalSamples(t *testing.T) {
	p := IID(5, 10, 100)
	total := 0
	for d := 0; d < p.NumDevices(); d++ {
		total += p.DeviceSamples(d)
	}
	if total != 500 {
		t.Errorf("total = %d, want 500", total)
	}
}

func TestPropertyDirichletTotalsExact(t *testing.T) {
	f := func(seed int64, devRaw, classRaw uint8, perRaw uint16) bool {
		devices := int(devRaw%20) + 1
		classes := int(classRaw%15) + 2
		per := int(perRaw%500) + 1
		p := Dirichlet(devices, classes, per, 0.1, stats.NewRNG(seed))
		for d := 0; d < devices; d++ {
			if p.DeviceSamples(d) != per {
				return false
			}
			deg := p.NonIIDDegree(d)
			if deg < -1e-9 || deg > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// oldIID is the devices×classes-matrix IID builder IID replaced, kept
// as the oracle its ring must reproduce value for value.
func oldIID(devices, classes, samplesPerDevice int) Partition {
	counts := make([][]int, devices)
	base := samplesPerDevice / classes
	rem := samplesPerDevice % classes
	for d := range counts {
		counts[d] = make([]int, classes)
		for c := 0; c < classes; c++ {
			counts[d][c] = base
		}
		for r := 0; r < rem; r++ {
			counts[d][(r+d)%classes]++
		}
	}
	return Partition{NumClasses: classes, Counts: counts}
}

func TestIIDMatchesMatrixBuilder(t *testing.T) {
	// The grid covers rem == 0, samples < classes (base 0) and
	// classes > devices, plus the registry's workload shapes.
	for _, devices := range []int{1, 3, 7, 20, 200} {
		for _, classes := range []int{1, 2, 10, 62, 80, 1000} {
			for _, samples := range []int{0, 1, 5, 60, 300, 603, 2000} {
				got, want := IID(devices, classes, samples), oldIID(devices, classes, samples)
				if got.NumClasses != want.NumClasses || len(got.Counts) != len(want.Counts) {
					t.Fatalf("IID(%d,%d,%d): shape differs", devices, classes, samples)
				}
				for d := range want.Counts {
					row := got.Counts[d]
					if len(row) != classes || cap(row) != classes {
						t.Fatalf("IID(%d,%d,%d): row %d has len %d cap %d, want %d",
							devices, classes, samples, d, len(row), cap(row), classes)
					}
					for c := range want.Counts[d] {
						if row[c] != want.Counts[d][c] {
							t.Fatalf("IID(%d,%d,%d): Counts[%d][%d] = %d, want %d",
								devices, classes, samples, d, c, row[c], want.Counts[d][c])
						}
					}
				}
			}
		}
	}
}

func TestIIDAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { IID(200, 1000, 250) }); n > 2 {
		t.Errorf("IID(200, 1000, 250) makes %v allocations, want <= 2", n)
	}
}

// meanSkew is the mean non-IID degree over a partition's devices.
func meanSkew(p Partition) float64 {
	s := 0.0
	for d := range p.Counts {
		s += p.NonIIDDegree(d)
	}
	return s / float64(len(p.Counts))
}
