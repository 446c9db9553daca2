// Package workload describes the three FL training workloads the paper
// evaluates (§4.2): CNN-MNIST (image classification), LSTM-Shakespeare
// (next-character prediction) and MobileNet-ImageNet (image
// classification). A workload bundles:
//
//   - the architecture fingerprint FedGPO's state machine reads
//     (numbers of convolutional / fully-connected / recurrent layers,
//     paper Table 1's S_CONV, S_FC, S_RC);
//   - the hardware cost shape the device model consumes (FLOPs and
//     bytes per sample, model size, memory intensity);
//   - the learning-dynamics parameters the convergence model consumes
//     (accuracy asymptote, convergence gain, and the (B, E, K) response
//     surface — where the generalization sweet spots sit).
//
// The learning parameters are calibrated so the qualitative
// characterization in the paper's §2 holds: CNN-MNIST is most
// energy-efficient near (B,E,K) = (8,10,20); LSTM-Shakespeare, being
// memory-bound, shifts to (4,20,20); non-IID data shifts the optimum
// toward smaller E and K (Fig. 7).
package workload

import (
	"fmt"
	"math"

	"fedgpo/internal/device"
)

// Learning captures a workload's response to the FL global parameters.
// The convergence model turns these into per-round accuracy gains.
type Learning struct {
	// InitialAccuracy is the model accuracy at round 0 (random guess).
	InitialAccuracy float64
	// MaxAccuracy is the asymptote under ideal IID training.
	MaxAccuracy float64
	// TargetAccuracy defines convergence: the run has converged when
	// accuracy settles within the convergence window of this value.
	TargetAccuracy float64
	// BaseGain is the per-round fraction of the remaining accuracy gap
	// closed at the ideal parameter setting.
	BaseGain float64
	// OptimalB is the generalization sweet spot for the local batch
	// size; effectiveness falls off Gaussianly in log2(B) around it
	// with width BTolerance (paper §2.1: "using larger batch sizes
	// usually yields poor generalizability").
	OptimalB   float64
	BTolerance float64
	// OptimalE balances under- and over-fitting of local data
	// (paper §2.1); effectiveness rises toward it and decays past it
	// with slope EOverfit.
	OptimalE float64
	EOverfit float64
	// OptimalK is the global-batch sweet spot; effectiveness grows
	// with diminishing returns toward it.
	OptimalK float64
	// NonIIDSensitivity scales how strongly participant skew hurts
	// per-round progress; the damage is amplified by E and K (paper
	// §2.2: E and K control "the amount of non-IID data reflected").
	NonIIDSensitivity float64
	// NoiseStd is the round-to-round stochastic accuracy jitter at the
	// start of training (it anneals as accuracy approaches the cap).
	NoiseStd float64
}

// Workload is one complete FL training task.
type Workload struct {
	Name string
	// Layer counts: the architecture states of paper Table 1.
	ConvLayers, FCLayers, RCLayers int
	// NumClasses in the classification task.
	NumClasses int
	// SamplesPerDevice is the mean local dataset size.
	SamplesPerDevice int
	// Shape is the hardware cost fingerprint.
	Shape device.WorkloadShape
	// Learn is the learning-dynamics parameterization.
	Learn Learning
}

// String returns the workload's display name.
func (w Workload) String() string { return w.Name }

// Validate checks internal consistency; experiment constructors call it
// so a miscalibrated hand-edited workload fails fast. Every float field
// must be finite: NaN and ±Inf pass the range checks below, and no
// cache key can encode them.
func (w Workload) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Shape.FLOPsPerSample", w.Shape.FLOPsPerSample},
		{"Shape.BytesPerSample", w.Shape.BytesPerSample},
		{"Shape.ModelBytes", w.Shape.ModelBytes},
		{"Shape.MemoryIntensity", w.Shape.MemoryIntensity},
		{"Learn.InitialAccuracy", w.Learn.InitialAccuracy},
		{"Learn.MaxAccuracy", w.Learn.MaxAccuracy},
		{"Learn.TargetAccuracy", w.Learn.TargetAccuracy},
		{"Learn.BaseGain", w.Learn.BaseGain},
		{"Learn.OptimalB", w.Learn.OptimalB},
		{"Learn.BTolerance", w.Learn.BTolerance},
		{"Learn.OptimalE", w.Learn.OptimalE},
		{"Learn.EOverfit", w.Learn.EOverfit},
		{"Learn.OptimalK", w.Learn.OptimalK},
		{"Learn.NonIIDSensitivity", w.Learn.NonIIDSensitivity},
		{"Learn.NoiseStd", w.Learn.NoiseStd},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %s: %s must be finite, got %v", w.Name, f.name, f.v)
		}
	}
	switch {
	case w.Name == "":
		return fmt.Errorf("workload: empty name")
	case w.NumClasses <= 1:
		return fmt.Errorf("workload %s: need >= 2 classes", w.Name)
	case w.SamplesPerDevice <= 0:
		return fmt.Errorf("workload %s: need positive samples per device", w.Name)
	case w.Shape.FLOPsPerSample <= 0 || w.Shape.ModelBytes <= 0:
		return fmt.Errorf("workload %s: non-positive cost shape", w.Name)
	case w.Learn.MaxAccuracy <= w.Learn.InitialAccuracy:
		return fmt.Errorf("workload %s: max accuracy must exceed initial", w.Name)
	case w.Learn.TargetAccuracy > w.Learn.MaxAccuracy:
		return fmt.Errorf("workload %s: target above asymptote", w.Name)
	case w.Learn.BaseGain <= 0 || w.Learn.BaseGain >= 1:
		return fmt.Errorf("workload %s: BaseGain must be in (0,1)", w.Name)
	case w.Learn.OptimalB < 1 || w.Learn.OptimalE < 1 || w.Learn.OptimalK < 1:
		return fmt.Errorf("workload %s: optima must be >= 1", w.Name)
	}
	return nil
}

// CNNMNIST returns the CNN-MNIST workload: a small convolutional
// network (compute-bound, tiny model) on a 10-class image task.
// MNIST's 60k training samples over the 200-device fleet give 300
// samples per device.
func CNNMNIST() Workload {
	return Workload{
		Name:             "CNN-MNIST",
		ConvLayers:       3,
		FCLayers:         2,
		RCLayers:         0,
		NumClasses:       10,
		SamplesPerDevice: 300,
		Shape: device.WorkloadShape{
			FLOPsPerSample:  36e6, // fwd+bwd of a small CNN on 28x28
			BytesPerSample:  2.5e6,
			ModelBytes:      6e6,
			MemoryIntensity: 0.15,
		},
		Learn: Learning{
			InitialAccuracy:   0.10,
			MaxAccuracy:       0.99,
			TargetAccuracy:    0.97,
			BaseGain:          0.040,
			OptimalB:          8,
			BTolerance:        1.6,
			OptimalE:          10,
			EOverfit:          0.35,
			OptimalK:          20,
			NonIIDSensitivity: 0.55,
			NoiseStd:          0.0008,
		},
	}
}

// LSTMShakespeare returns the LSTM-Shakespeare workload: a recurrent
// next-character model (80-way classification over the Shakespeare
// corpus alphabet). Recurrent layers make it memory-bound, which is why
// its energy-efficiency optimum sits at smaller batches and more local
// iterations (paper Fig. 2: best at (4, 20, 20)).
func LSTMShakespeare() Workload {
	return Workload{
		Name:             "LSTM-Shakespeare",
		ConvLayers:       0,
		FCLayers:         1,
		RCLayers:         2,
		NumClasses:       80,
		SamplesPerDevice: 400,
		Shape: device.WorkloadShape{
			FLOPsPerSample:  24e6,
			BytesPerSample:  30e6, // long unrolled activations
			ModelBytes:      13e6,
			MemoryIntensity: 0.75,
		},
		Learn: Learning{
			InitialAccuracy:   0.0125, // 1/80
			MaxAccuracy:       0.60,
			TargetAccuracy:    0.55,
			BaseGain:          0.032,
			OptimalB:          4,
			BTolerance:        1.8,
			OptimalE:          20,
			EOverfit:          0.30,
			OptimalK:          20,
			NonIIDSensitivity: 0.50,
			NoiseStd:          0.0006,
		},
	}
}

// MobileNetImageNet returns the MobileNet-ImageNet workload: a
// depthwise-separable CNN (27 convolutional layers + classifier) on a
// 1000-class image task. It is by far the heaviest per-sample compute
// and the largest model transfer of the three.
func MobileNetImageNet() Workload {
	return Workload{
		Name:             "MobileNet-ImageNet",
		ConvLayers:       27,
		FCLayers:         1,
		RCLayers:         0,
		NumClasses:       1000,
		SamplesPerDevice: 250,
		Shape: device.WorkloadShape{
			FLOPsPerSample:  1.7e9, // ~569 MFLOPs fwd x3 for training
			BytesPerSample:  22e6,
			ModelBytes:      17e6, // 4.2M params + buffers
			MemoryIntensity: 0.35,
		},
		Learn: Learning{
			InitialAccuracy:   0.001,
			MaxAccuracy:       0.70,
			TargetAccuracy:    0.62,
			BaseGain:          0.028,
			OptimalB:          8,
			BTolerance:        2.0,
			OptimalE:          10,
			EOverfit:          0.40,
			OptimalK:          20,
			NonIIDSensitivity: 0.60,
			NoiseStd:          0.0006,
		},
	}
}

// All returns the paper's three workloads in evaluation order.
func All() []Workload {
	return []Workload{CNNMNIST(), LSTMShakespeare(), MobileNetImageNet()}
}

// ByName returns a workload by its display name (case-sensitive) or an
// error listing the valid names.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown %q (valid: CNN-MNIST, LSTM-Shakespeare, MobileNet-ImageNet)", name)
}
