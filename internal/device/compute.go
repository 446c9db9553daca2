package device

// WorkloadShape is the hardware-relevant fingerprint of a neural
// network workload: how much arithmetic and memory one training sample
// costs, how big the model transfer is, and how memory-bound the layer
// mix is. The workload package produces these values for CNN-MNIST,
// LSTM-Shakespeare and MobileNet-ImageNet; the device model consumes
// them without knowing anything about datasets or layers.
type WorkloadShape struct {
	// FLOPsPerSample is the arithmetic cost of one forward+backward
	// pass on one sample.
	FLOPsPerSample float64
	// BytesPerSample is the activation working-set per in-flight
	// sample; multiplied by batch size it drives memory pressure.
	BytesPerSample float64
	// ModelBytes is the parameter payload uploaded/downloaded each
	// round and triplicated in memory during training (weights,
	// gradients, optimizer state).
	ModelBytes float64
	// MemoryIntensity in [0,1] is the fraction of execution bound by
	// memory bandwidth rather than compute. Recurrent layers
	// (LSTM-Shakespeare) sit high; conv/FC mixes sit low. Paper §2.1
	// attributes LSTM's preference for small batches to this pressure.
	MemoryIntensity float64
}

// Interference is the co-running application load on a device for one
// round, produced by the interfere package: fractions in [0,1] of CPU
// and memory consumed by other apps (paper states S_Co_CPU / S_Co_MEM).
type Interference struct {
	CPUUsage float64
	MemUsage float64
}

// Compute-model constants. These are calibration knobs, not paper
// numbers; they are chosen so that the *relative* timing behaviour the
// paper characterizes (Fig. 3) holds: per-round time falls with B as
// per-batch overhead amortizes, rises again when the working set
// outgrows RAM (earliest on low-end devices), and scales linearly in E.
const (
	// flopEfficiency is the fraction of theoretical peak GFLOPS real
	// on-device training achieves. Mobile DL frameworks (the paper
	// trains with DL4j) run far below peak — a few percent — which is
	// why local training takes minutes per round on phones and why the
	// straggler problem dominates FL round time.
	flopEfficiency = 0.03
	// batchHalfSize is the batch size at which SIMD/pipeline
	// utilization reaches half of its asymptote.
	batchHalfSize = 2.0
	// overheadFLOPs is the fixed per-batch cost (launch, data
	// movement) expressed in equivalent FLOPs so it shrinks on faster
	// devices.
	overheadFLOPs = 6e7
	// trainRAMFraction is the share of device RAM available to
	// training once OS and resident apps are accounted for.
	trainRAMFraction = 0.45
	// modelStateCopies is weights + gradients + optimizer state.
	modelStateCopies = 3.0
	// thrashSlope scales the slowdown once the working set exceeds
	// the RAM budget.
	thrashSlope = 2.0
	// cpuContention is how strongly co-runner CPU usage steals
	// training throughput (multi-core devices absorb some of it).
	cpuContention = 0.75
)

// BatchesPerEpoch returns ceil(samples/batch). It panics on a
// non-positive batch size.
func BatchesPerEpoch(samples, batch int) int {
	if batch <= 0 {
		panic("device: batch size must be positive")
	}
	if samples <= 0 {
		return 0
	}
	return (samples + batch - 1) / batch
}

// ComputeSeconds returns the local-training wall time for one round on
// a device: E epochs over `samples` examples with minibatch size B,
// under the given co-runner interference.
func ComputeSeconds(p *Profile, w WorkloadShape, b, e, samples int, intf Interference) float64 {
	if e <= 0 || samples <= 0 {
		return 0
	}
	iters := e * BatchesPerEpoch(samples, b)

	effFLOPS := p.GFLOPS * 1e9 * flopEfficiency
	// Small batches underutilize the processing units.
	batchEff := float64(b) / (float64(b) + batchHalfSize)
	perBatchSec := (float64(b)*w.FLOPsPerSample + overheadFLOPs) / (effFLOPS * batchEff)

	// Memory pressure: working set vs. the RAM left for training.
	workingSet := w.ModelBytes*modelStateCopies + float64(b)*w.BytesPerSample
	ramBudget := p.RAMBytes * trainRAMFraction * (1 - Clamp01(intf.MemUsage))
	memSlow := 1.0
	if ramBudget > 0 && workingSet > ramBudget {
		over := workingSet/ramBudget - 1
		memSlow = 1 + w.MemoryIntensity*thrashSlope*over
	} else if ramBudget <= 0 {
		memSlow = 1 + w.MemoryIntensity*thrashSlope
	}

	// Shared-core contention from co-running applications.
	cpuSlow := 1 / (1 - cpuContention*Clamp01(intf.CPUUsage)*0.99)

	return float64(iters) * perBatchSec * memSlow * cpuSlow
}

// Clamp01 limits v to [0, 1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ParticipantJoules is the round energy of a selected device, paper
// Eq. (2): local training at full busy power plus the wait for the global
// aggregation at WaitWatts — the straggler-induced "redundant energy"
// of paper Fig. 5. Communication energy is accounted separately by the
// channel model (Eq. 3). Training runs CPU and GPU at their top steps
// (performance governor), which is how on-device DL frameworks execute.
func ParticipantJoules(p *Profile, busySec, waitSec float64) float64 {
	if busySec < 0 {
		busySec = 0
	}
	if waitSec < 0 {
		waitSec = 0
	}
	busyPower := p.CPU.PowerAt(p.CPU.Steps) + p.GPU.PowerAt(p.GPU.Steps)
	return busyPower*busySec + p.WaitWatts*waitSec
}

// IdleJoules implements paper Eq. (4): the energy a non-participating
// device with idle draw idleWatts (its Profile.IdleWatts) burns for
// the duration of the round.
func IdleJoules(idleWatts, roundSec float64) float64 {
	if roundSec < 0 {
		roundSec = 0
	}
	return idleWatts * roundSec
}

// MemoryFootprintBytes returns the training working set for a batch
// size, used for feasibility checks (a configuration whose working set
// exceeds device RAM entirely is rejected by the simulator).
func MemoryFootprintBytes(w WorkloadShape, b int) float64 {
	return w.ModelBytes*modelStateCopies + float64(b)*w.BytesPerSample
}

// FitsInMemory reports whether a batch size is runnable at all on the
// profile (working set within physical RAM).
func FitsInMemory(p Profile, w WorkloadShape, b int) bool {
	return MemoryFootprintBytes(w, b) <= p.RAMBytes
}
