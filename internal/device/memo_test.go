package device

import (
	"math"
	"testing"
)

// memoTestShapes span the workload space without importing the
// workload package (which imports device): a compute-bound CNN-like
// shape, a memory-bound LSTM-like shape, and a heavyweight
// MobileNet-like shape whose working set stresses low-end RAM.
var memoTestShapes = map[string]WorkloadShape{
	"cnn":  {FLOPsPerSample: 2e7, BytesPerSample: 3e5, ModelBytes: 6e6, MemoryIntensity: 0.2},
	"lstm": {FLOPsPerSample: 6e7, BytesPerSample: 5e6, ModelBytes: 3.2e6, MemoryIntensity: 0.8},
	"mob":  {FLOPsPerSample: 1.1e9, BytesPerSample: 2e7, ModelBytes: 1.7e7, MemoryIntensity: 0.45},
}

// TestCostModelMatchesComputeSeconds is the memo's contract: on a
// batch size's first use (which warms it) and on every later use,
// Seconds must be bit-identical to the direct computation for every
// profile, workload shape, batch size and interference level, and
// sizes above maxWarmBatch must stay on the direct path.
func TestCostModelMatchesComputeSeconds(t *testing.T) {
	intfs := []Interference{
		{},
		{CPUUsage: 0.3},
		{MemUsage: 0.5},
		{CPUUsage: 0.9, MemUsage: 0.9},
		{CPUUsage: 1.5, MemUsage: 2.0}, // beyond-range values exercise the clamps
	}
	for name, w := range memoTestShapes {
		for cat, p := range Profiles() {
			for _, b := range []int{1, 2, 8, 32, 256, 700, maxWarmBatch, maxWarmBatch + 100} {
				// Pass 0 takes b on a fresh model, so its first call with
				// work to do runs on a size never warmed; pass 1 reads
				// the memo that call filled.
				m := NewCostModel(p, w)
				for pass := 0; pass < 2; pass++ {
					for _, e := range []int{0, 1, 5, 20} {
						for _, samples := range []int{0, 1, 300, 5000} {
							for _, intf := range intfs {
								want := ComputeSeconds(p, w, b, e, samples, intf)
								got := m.Seconds(b, e, samples, intf)
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s/%v b=%d e=%d samples=%d intf=%+v pass=%d: memo %v != direct %v",
										name, cat, b, e, samples, intf, pass, got, want)
								}
							}
						}
					}
				}
				warmed := b < len(m.perB) && m.perB[b].warmed
				if warmed != (b <= maxWarmBatch) {
					t.Fatalf("%s/%v b=%d: warmed = %v, table %d entries", name, cat, b, warmed, len(m.perB))
				}
			}
		}
	}
}

func TestCostModelWarmBounds(t *testing.T) {
	p := Profiles()[High]
	m := NewCostModel(p, memoTestShapes["cnn"])
	m.Seconds(0, 0, 100, Interference{})
	m.Seconds(-5, 1, 0, Interference{})
	m.Seconds(maxWarmBatch+1, 1, 100, Interference{})
	if len(m.perB) != 0 {
		t.Fatalf("an out-of-range or zero-work call grew the table to %d entries", len(m.perB))
	}
	m.Seconds(16, 1, 100, Interference{})
	if len(m.perB) != 17 || !m.perB[16].warmed {
		t.Fatalf("Seconds(16, ...) did not warm the table (len=%d)", len(m.perB))
	}
}
