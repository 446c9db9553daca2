package device

// CostModel memoizes the pure per-(profile, workload, batch) terms of
// ComputeSeconds so the simulation's round loop stops re-deriving
// identical math for every participant of every round. The memoized
// expressions replicate ComputeSeconds' floating-point operation order
// exactly, so a memoized call is bit-identical to the direct one — the
// equivalence is enforced by TestCostModelMatchesComputeSeconds.
//
// A CostModel is built once per (Profile, WorkloadShape) pair and
// queried many times. Seconds fills the per-batch-size terms on first
// use, so a CostModel is not safe for concurrent use: it belongs to
// one simulation arena.
type CostModel struct {
	prof  Profile
	shape WorkloadShape

	// effFLOPS, ramBase and memSlope are the profile/workload constants
	// hoisted out of ComputeSeconds:
	//   effFLOPS = p.GFLOPS * 1e9 * flopEfficiency
	//   ramBase  = p.RAMBytes * trainRAMFraction
	//   memSlope = w.MemoryIntensity * thrashSlope
	// Each is the left-associated prefix of the original expression, so
	// completing it per call preserves the original rounding.
	effFLOPS float64
	ramBase  float64
	memSlope float64

	// perB[b] caches the per-batch-size terms; index 0 is unused.
	perB []batchCost
}

// batchCost holds the batch-size-dependent terms of ComputeSeconds.
type batchCost struct {
	warmed      bool
	perBatchSec float64 // (b*FLOPsPerSample + overheadFLOPs) / (effFLOPS * batchEff)
	workingSet  float64 // ModelBytes*modelStateCopies + b*BytesPerSample
}

// maxWarmBatch bounds the dense perB table so an absurd controller
// batch size cannot balloon the memo; larger batches fall back to the
// direct computation (still bit-identical, just unmemoized).
const maxWarmBatch = 4096

// NewCostModel builds the memo for one profile/workload pair. No batch
// sizes are warmed yet; Seconds warms each size it is asked for.
func NewCostModel(p Profile, w WorkloadShape) *CostModel {
	return &CostModel{
		prof:     p,
		shape:    w,
		effFLOPS: p.GFLOPS * 1e9 * flopEfficiency,
		ramBase:  p.RAMBytes * trainRAMFraction,
		memSlope: w.MemoryIntensity * thrashSlope,
	}
}

// warm precomputes the batch-dependent terms for batch size b,
// 1 <= b <= maxWarmBatch, growing the table to cover it.
func (m *CostModel) warm(b int) {
	if b >= len(m.perB) {
		grown := make([]batchCost, b+1)
		copy(grown, m.perB)
		m.perB = grown
	}
	batchEff := float64(b) / (float64(b) + batchHalfSize)
	m.perB[b] = batchCost{
		warmed:      true,
		perBatchSec: (float64(b)*m.shape.FLOPsPerSample + overheadFLOPs) / (m.effFLOPS * batchEff),
		workingSet:  m.shape.ModelBytes*modelStateCopies + float64(b)*m.shape.BytesPerSample,
	}
}

// Seconds returns ComputeSeconds(profile, shape, b, e, samples, intf),
// bit-for-bit. For 1 <= b <= maxWarmBatch it uses the memoized terms,
// warming b on its first use; other batch sizes take the direct
// computation.
func (m *CostModel) Seconds(b, e, samples int, intf Interference) float64 {
	if e <= 0 || samples <= 0 {
		return 0
	}
	if b < 1 || b > maxWarmBatch {
		return ComputeSeconds(m.prof, m.shape, b, e, samples, intf)
	}
	if b >= len(m.perB) || !m.perB[b].warmed {
		m.warm(b)
	}
	ent := &m.perB[b]
	iters := e * BatchesPerEpoch(samples, b)

	ramBudget := m.ramBase * (1 - Clamp01(intf.MemUsage))
	memSlow := 1.0
	if ramBudget > 0 && ent.workingSet > ramBudget {
		over := ent.workingSet/ramBudget - 1
		memSlow = 1 + m.memSlope*over
	} else if ramBudget <= 0 {
		memSlow = 1 + m.memSlope
	}

	cpuSlow := 1 / (1 - cpuContention*Clamp01(intf.CPUUsage)*0.99)

	return float64(iters) * ent.perBatchSec * memSlow * cpuSlow
}
