package fl

import (
	"fedgpo/internal/device"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

// DeviceState is what the server can observe about one device at the
// start of a round: the local execution state of paper §3.1 (resource
// usage of co-running applications, network stability, number of data
// classes) plus the static data-shard facts.
type DeviceState struct {
	// Interference is the co-running application load (S_Co_CPU,
	// S_Co_MEM).
	Interference device.Interference
	// Network is the sampled link condition (S_Network).
	Network netsim.Condition
	// ClassCount and ClassFraction describe the device's label
	// diversity (S_Data); ClassFraction is in percent (0..100).
	ClassCount    int
	ClassFraction float64
	// Samples is the local dataset size.
	Samples int
}

// Observation is the controller's view of the federation at the start
// of an aggregation round.
//
// Per-device state is read on demand: State(id) reads one device from
// the round's environment trace record, so building an Observation
// costs nothing per device. A round's kernel work is O(K + n/64) for K
// participants in an n-device fleet, plus the idle-energy sum: a loop
// of n−K adds over per-run counts that reads no per-device state.
//
// Ownership: PrevParticipants points into the run's scratch arena and
// is only valid until the next round begins (it is always valid for
// the duration of the Plan call and the round it plans); a controller
// that keeps it across rounds must copy it. State reads immutable
// trace rounds and the run's static per-device table, so it stays
// valid until the arena starts its next run. Every value field is
// retention-safe.
//
// Interfered, BadLinks and MeanClassFraction summarize the fleet's
// states for controllers that condition on the fleet as a whole, so
// none has to read every device each round. The simulator owns them:
// the round counts come from the environment trace, Interfered counted
// once when a round is first recorded, BadLinks once per channel when
// a run under that channel first reaches the round; later runs replay
// both. The mean is taken once per run. Each equals a scan over
// State(0..n-1), bit for bit.
type Observation struct {
	// Round is the 1-based aggregation round about to execute.
	Round int
	// Workload describes the NN being trained (S_CONV, S_FC, S_RC come
	// from here).
	Workload workload.Workload
	// Fleet is the full device list, indexed by device ID
	// (Fleet[i].ID == i; see Config.Validate): the id State takes. It
	// is the run's Config.Fleet, possibly shared with concurrent runs,
	// so controllers must treat it as read-only.
	Fleet []device.Device
	// PrevAccuracy is the test accuracy after the previous round
	// (R_accuracy_prev in the paper's reward).
	PrevAccuracy float64
	// PrevParticipants are the device IDs selected in the previous
	// round (the paper's K' composition).
	PrevParticipants []int
	// DeadlineSec is the server's round deadline (0 = none) — server
	// configuration, visible to any server-side controller.
	DeadlineSec float64
	// Interfered counts the fleet's devices running a co-runner (CPU
	// or memory usage above zero); BadLinks counts those whose link,
	// under the run's channel, is not Regular.
	Interfered, BadLinks int
	// MeanClassFraction is the mean of the devices' ClassFraction
	// (percent), summed in device order.
	MeanClassFraction float64

	devices deviceView
}

// State returns device id's observed state this round (0 <= id <
// len(Fleet)).
func (o *Observation) State(id int) (st DeviceState) {
	o.devices.read(id, &st)
	return st
}

// Plan is a controller's decision for one round: how many devices to
// select and what local parameters each selected device runs with.
type Plan struct {
	// K is the number of participants to select this round (clamped
	// by the simulator to the fleet size, minimum 1).
	K int
	// Local returns the (B, E) assignment for a selected device, given
	// its observed state. dev points into the read-only fleet; st
	// points into the run's arena and is valid only during the call
	// (the next participant's state overwrites it), so a Local that
	// keeps the state must copy *st. Controllers that use a single
	// global setting return a constant.
	Local func(dev *device.Device, st *DeviceState) LocalParams
}

// DeviceRound records one participant's execution within a round.
type DeviceRound struct {
	DeviceID   int
	Category   device.Category
	Local      LocalParams
	ComputeSec float64
	CommSec    float64
	TotalSec   float64
	EnergyJ    float64 // participant energy per Eq. 5 (+ wait idle)
	Dropped    bool    // exceeded the round deadline; update discarded
	Samples    int
	SkewDegree float64
	Interfered bool
	NetworkBad bool
}

// RoundResult is the controller feedback after a round completes: the
// measurements FedGPO's reward (paper Eq. 1) is computed from.
//
// Ownership: the Participants slice points into the run's scratch
// arena and is only valid during the Observe call it is passed to —
// the next round overwrites it in place. A controller that retains it
// must copy. State reads what the round's Observation read, with the
// same lifetime; scalar fields and the EnergyByCategory array are
// value-copied and retention-safe.
type RoundResult struct {
	Round int
	// Plan echoes the K the controller requested.
	PlannedK int
	// Participants are the executed device-rounds (selected devices).
	Participants []DeviceRound
	// AggregatedK counts the participants whose updates made the
	// deadline and were averaged.
	AggregatedK int
	// RoundSeconds is the wall time of the round (slowest surviving
	// participant, or the deadline if drops occurred).
	RoundSeconds float64
	// EnergyGlobalJ is Eq. 6: the sum of all N devices' energy for the
	// round, participants and idlers alike.
	EnergyGlobalJ float64
	// EnergyByCategory splits EnergyGlobalJ by device category,
	// indexed by device.Category. A fixed array rather than a map: the
	// round loop fills it allocation-free, and controllers copy it by
	// value (Result's summarize step converts to the map form reports
	// expect).
	EnergyByCategory [device.NumCategories]float64
	// Accuracy and PrevAccuracy are the test accuracies after and
	// before the round.
	Accuracy     float64
	PrevAccuracy float64
	// MeanB and MeanE are the sample-weighted aggregated parameter
	// means (what the convergence model saw).
	MeanB, MeanE float64

	devices deviceView
}

// State returns device id's state as the round's Observation saw it.
func (r *RoundResult) State(id int) (st DeviceState) {
	r.devices.read(id, &st)
	return st
}

// Controller is a round-by-round global-parameter policy: FedGPO, the
// Fixed/BO/GA baselines, FedEX and ABS all implement it.
type Controller interface {
	// Name identifies the policy in reports.
	Name() string
	// Plan is called at the start of each round with the observation.
	Plan(obs Observation) Plan
	// Observe is called after the round executes.
	Observe(res RoundResult)
}

// Static is the simplest Controller: a fixed (B, E, K) for every round
// and device — the paper's "Fixed" baseline shape, and the building
// block of grid search.
type Static struct {
	P Params
	// local caches the constant assignment closure so Plan stops
	// allocating one per round (grid sweeps call Plan millions of
	// times). Built lazily from P on first use; P must not change
	// after the first Plan call.
	local func(*device.Device, *DeviceState) LocalParams
}

// NewStatic returns a Static controller for p.
func NewStatic(p Params) *Static { return &Static{P: p} }

// Name returns "Fixed" followed by the parameters.
func (s *Static) Name() string { return "Fixed" + s.P.String() }

// Plan returns the fixed parameters.
func (s *Static) Plan(Observation) Plan {
	if s.local == nil {
		lp := LocalParams{B: s.P.B, E: s.P.E}
		s.local = func(*device.Device, *DeviceState) LocalParams { return lp }
	}
	return Plan{K: s.P.K, Local: s.local}
}

// Observe is a no-op: a static policy does not learn.
func (s *Static) Observe(RoundResult) {}
