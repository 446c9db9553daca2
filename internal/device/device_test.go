package device

import (
	"math"
	"testing"
	"testing/quick"
)

// cnnShape approximates CNN-MNIST: compute-heavy, small model.
var cnnShape = WorkloadShape{
	FLOPsPerSample:  30e6,
	BytesPerSample:  2e6,
	ModelBytes:      8e6,
	MemoryIntensity: 0.15,
}

// lstmShape approximates LSTM-Shakespeare: memory-bound recurrent mix.
var lstmShape = WorkloadShape{
	FLOPsPerSample:  20e6,
	BytesPerSample:  40e6,
	ModelBytes:      16e6,
	MemoryIntensity: 0.75,
}

func TestProfilesMatchPaperTables(t *testing.T) {
	p := Profiles()
	if got := p[High].GFLOPS; got != 153.6 {
		t.Errorf("H GFLOPS = %v, want 153.6 (Table 3)", got)
	}
	if got := p[Mid].GFLOPS; got != 80.0 {
		t.Errorf("M GFLOPS = %v, want 80.0", got)
	}
	if got := p[Low].GFLOPS; got != 52.8 {
		t.Errorf("L GFLOPS = %v, want 52.8", got)
	}
	if got := p[High].RAMBytes; got != 8*gb {
		t.Errorf("H RAM = %v, want 8GB", got)
	}
	if got := p[Low].CPU.PeakWatts; got != 3.6 {
		t.Errorf("L CPU peak = %v, want 3.6W (Table 4)", got)
	}
	if got := p[High].CPU.Steps; got != 23 {
		t.Errorf("H CPU steps = %v, want 23 (Table 4)", got)
	}
	if got := p[Mid].GPU.Steps; got != 9 {
		t.Errorf("M GPU steps = %v, want 9", got)
	}
}

func TestCategoryString(t *testing.T) {
	if High.String() != "H" || Mid.String() != "M" || Low.String() != "L" {
		t.Error("category labels changed")
	}
	if Category(9).String() == "" {
		t.Error("unknown category should still stringify")
	}
}

func TestPowerCurveMonotone(t *testing.T) {
	c := Profiles()[High].CPU
	prev := 0.0
	for s := 1; s <= c.Steps; s++ {
		p := c.PowerAt(s)
		if p < prev {
			t.Fatalf("power not monotone at step %d: %v < %v", s, p, prev)
		}
		prev = p
	}
	if got := c.PowerAt(c.Steps); got != c.PeakWatts {
		t.Errorf("top-step power = %v, want peak %v", got, c.PeakWatts)
	}
	if got := c.PowerAt(0); got != c.PowerAt(1) {
		t.Error("below-range step should clamp to 1")
	}
	if got := c.PowerAt(99); got != c.PeakWatts {
		t.Error("above-range step should clamp to top")
	}
}

func TestFleetComposition(t *testing.T) {
	comp := PaperComposition()
	if comp.Total() != 200 {
		t.Fatalf("paper fleet = %d, want 200", comp.Total())
	}
	fleet := NewFleet(comp)
	counts := map[Category]int{}
	for _, d := range fleet {
		counts[d.Profile.Category]++
	}
	if counts[High] != 30 || counts[Mid] != 70 || counts[Low] != 100 {
		t.Errorf("composition = %v, want 30/70/100", counts)
	}
	// IDs dense and unique.
	seen := map[int]bool{}
	for _, d := range fleet {
		if d.ID < 0 || d.ID >= 200 || seen[d.ID] {
			t.Fatalf("bad or duplicate ID %d", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestFleetScalePreservesTotalAndMix(t *testing.T) {
	comp := PaperComposition().Scale(20)
	if comp.Total() != 20 {
		t.Fatalf("scaled total = %d, want 20", comp.Total())
	}
	if comp.High != 3 || comp.Mid != 7 || comp.Low != 10 {
		t.Errorf("scaled mix = %+v, want 3/7/10", comp)
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	PaperComposition().Scale(0)
}

func TestComputeSecondsFasterOnHighEnd(t *testing.T) {
	p := Profiles()
	for _, b := range []int{1, 8, 32} {
		h := ComputeSeconds(p[High], cnnShape, b, 10, 600, Interference{})
		m := ComputeSeconds(p[Mid], cnnShape, b, 10, 600, Interference{})
		l := ComputeSeconds(p[Low], cnnShape, b, 10, 600, Interference{})
		if !(h < m && m < l) {
			t.Errorf("B=%d: expected H < M < L, got %v %v %v", b, h, m, l)
		}
	}
}

func TestComputeSecondsLinearInE(t *testing.T) {
	p := Profiles()[Mid]
	t1 := ComputeSeconds(p, cnnShape, 8, 5, 600, Interference{})
	t2 := ComputeSeconds(p, cnnShape, 8, 10, 600, Interference{})
	if math.Abs(t2/t1-2) > 1e-9 {
		t.Errorf("doubling E should double time: %v vs %v", t1, t2)
	}
}

func TestComputeSecondsOverheadAmortizesWithB(t *testing.T) {
	// Fig. 3(a): per-round time falls as B rises (until memory pressure).
	p := Profiles()[High]
	prev := math.Inf(1)
	for _, b := range []int{1, 2, 4, 8, 16} {
		cur := ComputeSeconds(p, cnnShape, b, 10, 600, Interference{})
		if cur >= prev {
			t.Errorf("B=%d: time %v did not decrease from %v", b, cur, prev)
		}
		prev = cur
	}
}

func TestMemoryPressureHurtsLowEndAtLargeB(t *testing.T) {
	// The low-end device (2GB) should suffer disproportionately from a
	// memory-hungry workload at large B — paper Fig. 3 shows training
	// time "significantly depends on computation- and memory-
	// capabilities".
	p := Profiles()
	gapSmallB := ComputeSeconds(p[Low], lstmShape, 1, 10, 600, Interference{}) /
		ComputeSeconds(p[High], lstmShape, 1, 10, 600, Interference{})
	gapLargeB := ComputeSeconds(p[Low], lstmShape, 32, 10, 600, Interference{}) /
		ComputeSeconds(p[High], lstmShape, 32, 10, 600, Interference{})
	if gapLargeB <= gapSmallB {
		t.Errorf("L/H gap should widen with B under memory pressure: small=%v large=%v",
			gapSmallB, gapLargeB)
	}
}

func TestInterferenceSlowsCompute(t *testing.T) {
	p := Profiles()[Mid]
	clean := ComputeSeconds(p, cnnShape, 8, 10, 600, Interference{})
	loaded := ComputeSeconds(p, cnnShape, 8, 10, 600, Interference{CPUUsage: 0.5, MemUsage: 0.3})
	if loaded <= clean {
		t.Errorf("interference should slow training: %v <= %v", loaded, clean)
	}
	if s := slowdownVsBaseline(p, cnnShape, 8, 10, 600, Interference{CPUUsage: 0.5}); s <= 1 {
		t.Errorf("slowdown = %v, want > 1", s)
	}
}

func TestComputeSecondsZeroWork(t *testing.T) {
	p := Profiles()[High]
	if ComputeSeconds(p, cnnShape, 8, 0, 600, Interference{}) != 0 {
		t.Error("zero epochs should cost zero time")
	}
	if ComputeSeconds(p, cnnShape, 8, 5, 0, Interference{}) != 0 {
		t.Error("zero samples should cost zero time")
	}
}

func TestBatchesPerEpoch(t *testing.T) {
	if got := BatchesPerEpoch(10, 3); got != 4 {
		t.Errorf("ceil(10/3) = %d, want 4", got)
	}
	if got := BatchesPerEpoch(0, 3); got != 0 {
		t.Errorf("zero samples = %d batches, want 0", got)
	}
}

func TestBatchesPerEpochPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for B=0")
		}
	}()
	BatchesPerEpoch(10, 0)
}

func TestParticipantJoulesEq2(t *testing.T) {
	p := Profiles()[High]
	busyPower := p.CPU.PeakWatts + p.GPU.PeakWatts
	got := ParticipantJoules(&p, 10, 5)
	want := busyPower*10 + p.WaitWatts*5
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ParticipantJoules = %v, want %v", got, want)
	}
	if ParticipantJoules(&p, -1, -1) != 0 {
		t.Error("negative durations should clamp to zero energy")
	}
}

func TestIdleJoulesEq4(t *testing.T) {
	p := Profiles()[Low]
	if got := IdleJoules(p.IdleWatts, 100); math.Abs(got-p.IdleWatts*100) > 1e-12 {
		t.Errorf("IdleJoules = %v", got)
	}
	if IdleJoules(p.IdleWatts, -5) != 0 {
		t.Error("negative round time should clamp")
	}
}

func TestFitsInMemory(t *testing.T) {
	p := Profiles()[Low]
	if !FitsInMemory(p, cnnShape, 32) {
		t.Error("CNN B=32 should fit on 2GB")
	}
	huge := WorkloadShape{BytesPerSample: 1e9, ModelBytes: 1e9}
	if FitsInMemory(p, huge, 32) {
		t.Error("32GB working set should not fit on 2GB")
	}
}

func TestRoundTimeGapRatio(t *testing.T) {
	gap := roundTimeGapRatio(cnnShape, 8, 10, 600, map[Category]Interference{})
	if gap <= 1 {
		t.Errorf("H/L gap = %v, want > 1", gap)
	}
	// Interference on the low-end device widens the gap (Fig. 4).
	gapIntf := roundTimeGapRatio(cnnShape, 8, 10, 600, map[Category]Interference{
		Low: {CPUUsage: 0.6},
	})
	if gapIntf <= gap {
		t.Errorf("interference should widen the gap: %v <= %v", gapIntf, gap)
	}
}

func TestPropertyComputeTimeNonNegativeAndMonotoneInSamples(t *testing.T) {
	p := Profiles()[Mid]
	f := func(bRaw, eRaw uint8, sRaw uint16) bool {
		b := int(bRaw%32) + 1
		e := int(eRaw%20) + 1
		s := int(sRaw % 2000)
		t1 := ComputeSeconds(p, cnnShape, b, e, s, Interference{})
		t2 := ComputeSeconds(p, cnnShape, b, e, s+100, Interference{})
		return t1 >= 0 && t2 >= t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyInterferenceNeverSpeedsUp(t *testing.T) {
	p := Profiles()[Low]
	f := func(cpu, mem uint8) bool {
		intf := Interference{CPUUsage: float64(cpu%101) / 100, MemUsage: float64(mem%101) / 100}
		return slowdownVsBaseline(p, lstmShape, 8, 10, 500, intf) >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// slowdownVsBaseline is the ratio of a device's compute time under
// interference to its clean time.
func slowdownVsBaseline(p Profile, w WorkloadShape, b, e, samples int, intf Interference) float64 {
	clean := ComputeSeconds(p, w, b, e, samples, Interference{})
	if clean == 0 {
		return 1
	}
	return ComputeSeconds(p, w, b, e, samples, intf) / clean
}

// roundTimeGapRatio is max/min compute time across the category
// profiles for a configuration — the straggler gap the paper's Fig. 3
// and Fig. 4 characterize.
func roundTimeGapRatio(w WorkloadShape, b, e, samples int, intf map[Category]Interference) float64 {
	minT, maxT := math.Inf(1), 0.0
	for c, p := range Profiles() {
		t := ComputeSeconds(p, w, b, e, samples, intf[c])
		minT = math.Min(minT, t)
		maxT = math.Max(maxT, t)
	}
	if minT == 0 {
		return 1
	}
	return maxT / minT
}
