// Package exp is the experiment harness: it defines the deployment
// scenarios of the paper's evaluation (§4) and one constructor per
// figure and table of §2 and §5. Each returns a Table whose rows are
// rendered from typed measurements through one row path. The bench
// harness (bench_test.go) and the CLI tools (cmd/fedgpo-report,
// cmd/fedgpo-sweep) are thin wrappers over this package.
//
// Scenarios are declarative data: a ScenarioSpec composes explicit
// sub-specs for fleet composition, data partition, network model,
// interference model and deadline policy, each with a JSON codec,
// validation and a canonical-key contribution. The paper's presets
// (Ideal, Realistic, ...) are thin constructors over the spec, and
// arbitrary off-paper deployments are just different spec values —
// see ScenarioMatrix and the fedgpo-sweep -matrix/-scenario-file
// flags.
package exp

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// Paper environment constants.
const (
	// paperFleet is the paper's 200-device deployment.
	paperFleet = 200
	// aggregationOverheadSec is the fixed server-side round cost.
	aggregationOverheadSec = 30
	// defaultMaxRounds bounds runs; generously above the ideal
	// convergence points so "unconverged" means genuinely stuck.
	defaultMaxRounds = 400
)

// Resource bounds every spec must respect, checked before anything is
// allocated. They sit far above every registry, matrix and CLI spec
// (the largest is the paper's 200 devices for 400 rounds) and exist so
// that a hostile or mistyped wire spec is an error, not a fleet, a
// partition or a run arena of unbounded size.
const (
	// maxSpecDevices bounds the fleet size and each category count.
	maxSpecDevices = 50_000
	// maxSpecRounds bounds every round budget: MaxRounds, a warm-up's
	// rounds and an oracle probe's rounds.
	maxSpecRounds = 100_000
	// maxSpecPartitionCells bounds devices × classes, the size of a
	// Dirichlet partition and of the class scans every partition costs.
	maxSpecPartitionCells = 1 << 24
)

// FleetSpec describes the device population as a device-class mix:
// explicit per-category counts, optionally rescaled to a total size.
// The zero value is the paper's 30/70/100 mix at 200 devices.
type FleetSpec struct {
	// Mix is the per-category device count before scaling; the zero
	// value selects the paper's 30/70/100 composition.
	Mix device.FleetComposition `json:"mix,omitempty"`
	// Size, when positive, proportionally rescales Mix to this total
	// (device.FleetComposition.Scale); zero keeps Mix's own total.
	Size int `json:"size,omitempty"`
}

// Composition resolves the spec into the concrete per-category counts.
func (f FleetSpec) Composition() device.FleetComposition {
	mix := f.Mix
	if mix == (device.FleetComposition{}) {
		mix = device.PaperComposition()
		if f.Size == 0 {
			return mix.Scale(paperFleet)
		}
	}
	if f.Size > 0 {
		return mix.Scale(f.Size)
	}
	return mix
}

// Validate reports malformed fleet specs.
func (f FleetSpec) Validate() error {
	if f.Mix.High < 0 || f.Mix.Mid < 0 || f.Mix.Low < 0 {
		return fmt.Errorf("exp: fleet mix counts must be non-negative, got %+v", f.Mix)
	}
	if f.Size < 0 {
		return fmt.Errorf("exp: fleet size must be non-negative, got %d", f.Size)
	}
	// Bounding every count first keeps the mix's sum from overflowing.
	if max(f.Mix.High, f.Mix.Mid, f.Mix.Low, f.Size) > maxSpecDevices {
		return fmt.Errorf("exp: fleet counts must be at most %d devices, got mix %+v size %d",
			maxSpecDevices, f.Mix, f.Size)
	}
	total := f.Composition().Total()
	if total <= 0 {
		return fmt.Errorf("exp: fleet resolves to zero devices")
	}
	if total > maxSpecDevices {
		return fmt.Errorf("exp: fleet resolves to %d devices, at most %d allowed", total, maxSpecDevices)
	}
	return nil
}

// key is the sub-spec's canonical cache-key contribution: the resolved
// per-category counts, so equivalent specs (zero value vs explicit
// paper mix) share cache entries.
func (f FleetSpec) key() string { return f.Composition().Key() }

// Partition kinds.
const (
	PartitionIID       = "iid"
	PartitionDirichlet = "dirichlet"
)

// PartitionSpec describes the training-data distribution across the
// fleet. The zero value is the paper's Ideal-IID partition.
type PartitionSpec struct {
	// Kind selects the distribution: "iid" (default) or "dirichlet".
	Kind string `json:"kind,omitempty"`
	// Alpha is the Dirichlet concentration (0 selects the paper's 0.1).
	// It has no effect on IID partitions.
	Alpha float64 `json:"alpha,omitempty"`
	// Seed fixes the Dirichlet draw (the same data layout is shared by
	// all controllers within an experiment).
	Seed int64 `json:"seed,omitempty"`
}

// alpha resolves the Dirichlet concentration default.
func (p PartitionSpec) alpha() float64 {
	if p.Alpha == 0 {
		return data.PaperAlpha
	}
	return p.Alpha
}

// NonIID reports whether the partition is heterogeneous.
func (p PartitionSpec) NonIID() bool { return p.Kind == PartitionDirichlet }

// Materialize builds the partition for a fleet of n devices.
func (p PartitionSpec) Materialize(n int, w workload.Workload) data.Partition {
	if p.NonIID() {
		return data.Dirichlet(n, w.NumClasses, w.SamplesPerDevice, p.alpha(),
			stats.NewRNG(p.Seed))
	}
	return data.IID(n, w.NumClasses, w.SamplesPerDevice)
}

// Validate reports malformed partition specs.
func (p PartitionSpec) Validate() error {
	switch p.Kind {
	case "", PartitionIID, PartitionDirichlet:
	default:
		return fmt.Errorf("exp: unknown partition kind %q (valid: %s, %s)",
			p.Kind, PartitionIID, PartitionDirichlet)
	}
	if !finiteNonNegative(p.Alpha) {
		return fmt.Errorf("exp: Dirichlet alpha must be finite and non-negative, got %g", p.Alpha)
	}
	return nil
}

// key is the sub-spec's canonical cache-key contribution. IID ignores
// alpha and seed, so every IID spec shares one key.
func (p PartitionSpec) key() string {
	if !p.NonIID() {
		return PartitionIID
	}
	return fmt.Sprintf("%s(alpha=%g,seed=%d)", PartitionDirichlet, p.alpha(), p.Seed)
}

// NetworkSpec describes the wireless channel: a named base model plus
// optional Gaussian-parameter overrides. The zero value is the paper's
// stable channel.
type NetworkSpec struct {
	// Kind selects the base channel: "stable" (default) or "unstable".
	Kind string `json:"kind,omitempty"`
	// MeanMbps/StdMbps/FloorMbps, when positive, override the base
	// channel's Gaussian bandwidth parameters.
	MeanMbps  float64 `json:"meanMbps,omitempty"`
	StdMbps   float64 `json:"stdMbps,omitempty"`
	FloorMbps float64 `json:"floorMbps,omitempty"`
}

// resolve returns the channel model the spec names, or an error for
// an unknown kind or an override that is negative, NaN or infinite. It
// is the spec's one check: Validate, keys and Config all resolve.
func (n NetworkSpec) resolve() (netsim.Channel, error) {
	kind := cmp.Or(n.Kind, netsim.KindStable)
	ch, ok := netsim.ChannelByName(kind)
	if !ok {
		return ch, fmt.Errorf("exp: unknown network kind %q (valid: %s, %s)",
			n.Kind, netsim.KindStable, netsim.KindUnstable)
	}
	if !finiteNonNegative(n.MeanMbps) || !finiteNonNegative(n.StdMbps) || !finiteNonNegative(n.FloorMbps) {
		return ch, fmt.Errorf("exp: network overrides must be finite and non-negative, got mean %g, std %g, floor %g",
			n.MeanMbps, n.StdMbps, n.FloorMbps)
	}
	if n.MeanMbps > 0 {
		ch.MeanMbps = n.MeanMbps
	}
	if n.StdMbps > 0 {
		ch.StdMbps = n.StdMbps
	}
	if n.FloorMbps > 0 {
		ch.FloorMbps = n.FloorMbps
	}
	return ch, nil
}

// finiteNonNegative reports whether v is a finite number at least 0:
// false for NaN and ±Inf, which pass every plain comparison with 0.
func finiteNonNegative(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// IntfNone names the interference-free spec kind.
const IntfNone = "none"

// InterferenceSpec describes the co-running-application model: a named
// co-runner profile plus the fraction of the fleet it is active on each
// round. The zero value disables interference.
type InterferenceSpec struct {
	// Kind selects the co-runner: "none" (default), "web-browsing"
	// (the paper's synthetic co-runner) or "heavy-game".
	Kind string `json:"kind,omitempty"`
	// ActiveFraction is the per-round fraction of devices running the
	// co-runner (0 selects the paper's 0.5).
	ActiveFraction float64 `json:"activeFraction,omitempty"`
}

// resolve returns the interference model the spec names, or an error
// for an unknown kind or an active fraction outside [0, 1] (NaN
// included). It is the spec's one check, like NetworkSpec.resolve.
func (i InterferenceSpec) resolve() (interfere.Model, error) {
	if !(i.ActiveFraction >= 0 && i.ActiveFraction <= 1) {
		return interfere.Model{}, fmt.Errorf("exp: interference active fraction must be in [0, 1], got %g",
			i.ActiveFraction)
	}
	if i.Kind == "" || i.Kind == IntfNone {
		return interfere.None(), nil
	}
	prof, ok := interfere.ProfileByName(i.Kind)
	if !ok {
		return interfere.Model{}, fmt.Errorf("exp: unknown interference kind %q (valid: %s, %s, %s)",
			i.Kind, IntfNone, interfere.WebBrowsing().Name, interfere.HeavyGame().Name)
	}
	frac := i.ActiveFraction
	if frac == 0 {
		frac = interfere.Paper().ActiveFraction
	}
	return interfere.Model{Profile: prof, ActiveFraction: frac}, nil
}

// Deadline policy kinds.
const (
	DeadlineNone  = "none"
	DeadlineFixed = "fixed"
	DeadlineAuto  = "auto"
)

// Auto deadline policy defaults: the absolute straggler deadline is
// margin × (clean slowest-category round time) + slack. The margin is
// deliberately tight enough that a fixed configuration's interfered
// low-end devices regularly miss it — the prior-work drop behaviour
// whose accuracy cost the paper's Fig. 10 documents — while leaving
// ample headroom for per-device adaptation.
const (
	autoDeadlineMargin   = 1.35
	autoDeadlineSlackSec = 15.0
)

// DeadlineSpec describes the server's straggler-drop policy. The zero
// value waits for every participant (no deadline).
type DeadlineSpec struct {
	// Kind selects the policy: "none" (default, wait for everyone),
	// "fixed" (an absolute deadline of Seconds) or "auto" (derive the
	// deadline from the workload's clean slowest-category round time).
	Kind string `json:"kind,omitempty"`
	// Seconds is the fixed policy's absolute deadline.
	Seconds float64 `json:"seconds,omitempty"`
	// Margin and SlackSec tune the auto policy (0 selects the paper
	// margins, 1.35 and 15s).
	Margin   float64 `json:"margin,omitempty"`
	SlackSec float64 `json:"slackSec,omitempty"`
}

// resolve returns the absolute round deadline the spec sets for a
// workload (0 = no deadline), or an error for an unknown kind, a
// parameter that is negative, NaN or infinite, or a deadline that
// resolves to no finite number. It is the spec's one check, like
// NetworkSpec.resolve.
func (d DeadlineSpec) resolve(w workload.Workload) (float64, error) {
	if !finiteNonNegative(d.Seconds) || !finiteNonNegative(d.Margin) || !finiteNonNegative(d.SlackSec) {
		return 0, fmt.Errorf("exp: deadline parameters must be finite and non-negative, got seconds %g, margin %g, slack %g",
			d.Seconds, d.Margin, d.SlackSec)
	}
	var sec float64
	switch d.Kind {
	case "", DeadlineNone:
	case DeadlineFixed:
		sec = d.Seconds
	case DeadlineAuto:
		margin, slack := d.Margin, d.SlackSec
		if margin == 0 {
			margin = autoDeadlineMargin
		}
		if slack == 0 {
			slack = autoDeadlineSlackSec
		}
		sec = margin*cleanLowRoundSec(w) + slack
	default:
		return 0, fmt.Errorf("exp: unknown deadline kind %q (valid: %s, %s, %s)",
			d.Kind, DeadlineNone, DeadlineFixed, DeadlineAuto)
	}
	if !finiteNonNegative(sec) {
		return 0, fmt.Errorf("exp: deadline resolves to %g seconds", sec)
	}
	return sec, nil
}

// cleanLowRoundSec is the auto deadline policy's reference: the
// low-end category's interference-free local training time at the
// workload's provisioning parameters. Recurrent workloads are
// provisioned for their longer local training (more iterations at
// small batches, paper §2.1).
func cleanLowRoundSec(w workload.Workload) float64 {
	refE := 10
	if w.RCLayers > 0 {
		refE = 20
	}
	return device.ComputeSeconds(&lowProfile, w.Shape, 8, refE, w.SamplesPerDevice, device.Interference{})
}

// lowProfile is the low-end device profile, built once: device.Profiles
// builds a map on every call, and every spec check reads this one.
var lowProfile = device.Profiles()[device.Low]

// ScenarioSpec is the declarative, serializable description of one
// deployment: the workload plus composable sub-specs for fleet
// composition, data partition, network model, interference model and
// deadline policy. A scenario is fully described by its spec — Name is
// a display label and never participates in cache identity, so two
// differently-named scenarios with the same resolved spec share cache
// entries, and two same-named scenarios differing in any sub-spec
// field never do.
type ScenarioSpec struct {
	// Name is the display label reports and sweep rows print.
	Name string `json:"name,omitempty"`
	// Workload is the NN training task.
	Workload workload.Workload `json:"workload"`
	// Fleet is the device-class mix.
	Fleet FleetSpec `json:"fleet,omitempty"`
	// Partition is the data distribution.
	Partition PartitionSpec `json:"partition,omitempty"`
	// Network is the wireless channel model.
	Network NetworkSpec `json:"network,omitempty"`
	// Interference is the co-running-application model.
	Interference InterferenceSpec `json:"interference,omitempty"`
	// Deadline is the straggler-drop policy.
	Deadline DeadlineSpec `json:"deadline,omitempty"`
	// MaxRounds bounds each run (0 = default 400).
	MaxRounds int `json:"maxRounds,omitempty"`
}

// Validate reports malformed scenario specs, checking the workload and
// every sub-spec so a bad spec fails at decode time, or as its job
// compiles (Runtime.Job), rather than mid-job.
func (s ScenarioSpec) Validate() error {
	if s.MaxRounds < 0 || s.MaxRounds > maxSpecRounds {
		return fmt.Errorf("exp: MaxRounds must be in [0, %d], got %d", maxSpecRounds, s.MaxRounds)
	}
	_, netErr := s.Network.resolve()
	_, intfErr := s.Interference.resolve()
	_, deadlineErr := s.Deadline.resolve(s.Workload)
	for _, err := range []error{
		s.Workload.Validate(), s.Fleet.Validate(), s.Partition.Validate(), netErr, intfErr, deadlineErr,
	} {
		if err != nil {
			return err
		}
	}
	if n := s.Fleet.Composition().Total(); s.Workload.NumClasses > maxSpecPartitionCells/n {
		return fmt.Errorf("exp: %d devices × %d classes exceeds the %d-cell partition bound",
			n, s.Workload.NumClasses, maxSpecPartitionCells)
	}
	return nil
}

// rounds returns the effective round budget (default applied).
func (s ScenarioSpec) rounds() int {
	if s.MaxRounds == 0 {
		return defaultMaxRounds
	}
	return s.MaxRounds
}

// cacheKey canonically serializes every spec field that influences a
// run's outcome; it names the scenario half of a runtime job key. Each
// sub-spec contributes its resolved parameters, so equivalent specs
// (zero values vs explicit paper defaults) share cache entries, and
// two specs differing in any sub-spec field never do. Name is display
// only and deliberately absent.
//
// A report asks for the same few keys hundreds of times, so keys are
// memoized by the spec with Name cleared. The workload digest keeps
// its own memo underneath (workloadKey): a sweep matrix has more
// distinct scenarios than this memo holds but only a few workloads,
// and its digest is the costly part of a key.
//
// A key is built from the spec with every -0 float read as +0
// (positiveZeros): Go's == cannot tell the two apart, so neither may a
// key, or a memo entry and a spec comparison would disagree with a
// fresh build.
func (s ScenarioSpec) cacheKey() string {
	s.Name = ""
	return scenarioKeys.get(s, ScenarioSpec.buildCacheKey)
}

// buildCacheKey is cacheKey without the memo. The channel and the
// interference model contribute their resolved parameters, so a
// "stable" spec and an explicit spec with the same numbers share cache
// entries.
func (s ScenarioSpec) buildCacheKey() string {
	s = positiveZeros(s)
	ch, intf, deadline := s.models()
	return fmt.Sprintf("%s/fleet=%s/rounds=%d/part=%s/net=%s/intf=%s/deadline=%g/agg=%d",
		workloadKey(s.Workload), s.Fleet.key(), s.rounds(), s.Partition.key(),
		ch.Key(), intf.Key(), deadline, aggregationOverheadSec)
}

// models resolves the network, interference and deadline sub-specs of
// a spec that passed Validate, so none of them fails.
func (s ScenarioSpec) models() (netsim.Channel, interfere.Model, float64) {
	ch, _ := s.Network.resolve()
	intf, _ := s.Interference.resolve()
	deadline, _ := s.Deadline.resolve(s.Workload)
	return ch, intf, deadline
}

// workloadKey names a workload by its name and a digest of its
// parameters, so a spec that changes a registry workload's parameters
// but keeps its name never shares that workload's cells. Keys are
// memoized, apart from cacheKey's memo: see there.
func workloadKey(w workload.Workload) string {
	return workloadKeys.get(w, func(w workload.Workload) string {
		sum := sha256.Sum256([]byte(canonJSON(w)))
		return w.Name + "@" + hex.EncodeToString(sum[:8])
	})
}

// positiveZeros returns v with every float that holds -0, in v or in
// any struct or array nested in it, set to +0. Specs are plain values
// of exported fields, so the walk reaches every float they hold.
func positiveZeros[T any](v T) T {
	foldNegativeZeros(reflect.ValueOf(&v).Elem())
	return v
}

func foldNegativeZeros(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if v.Float() == 0 && v.CanSet() {
			v.SetFloat(0)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			foldNegativeZeros(v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			foldNegativeZeros(v.Index(i))
		}
	}
}

var (
	scenarioKeys keyMemo[ScenarioSpec]
	workloadKeys keyMemo[workload.Workload]
)

// maxMemoKeys bounds a keyMemo: past it the memo restarts, so a fuzzer
// or a long matrix pins at most this many keys.
const maxMemoKeys = 64

// keyMemo memoizes key strings by the comparable value they name. It
// is safe for concurrent use; two callers that miss together both
// build the key, and the strings they build are equal.
type keyMemo[K comparable] struct {
	mu sync.Mutex
	m  map[K]string
}

// get returns k's memoized key, building and storing it on a miss.
func (m *keyMemo[K]) get(k K, build func(K) string) string {
	m.mu.Lock()
	key, ok := m.m[k]
	m.mu.Unlock()
	if ok {
		return key
	}
	key = build(k)
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]string)
	} else if len(m.m) >= maxMemoKeys {
		clear(m.m)
	}
	m.m[k] = key
	m.mu.Unlock()
	return key
}

// Config materializes the scenario for a run seed. The fleet and the
// partition are the process's shared, read-only ones (fl.SharedFleet,
// fl.SharedPartition): every cell of a scenario, and every scenario
// with the same composition or partition, runs on the same values.
//
// Like a key, the config reads every -0 float of the spec as +0, so two
// specs that share a key run the same deployment.
func (s ScenarioSpec) Config(seed int64) fl.Config {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	s = positiveZeros(s)
	fleet := fl.SharedFleet(s.Fleet.Composition())
	n, w := len(fleet), s.Workload
	part := fl.SharedPartition(fl.PartitionKey{
		Spec: s.Partition.key(), Devices: n, Classes: w.NumClasses, SamplesPerDevice: w.SamplesPerDevice,
	}, func() data.Partition { return s.Partition.Materialize(n, w) })
	ch, intf, deadline := s.models()
	return fl.Config{
		Workload:               s.Workload,
		Fleet:                  fleet,
		Partition:              part,
		Channel:                ch,
		Interference:           intf,
		MaxRounds:              s.rounds(),
		DeadlineSec:            deadline,
		AggregationOverheadSec: aggregationOverheadSec,
		Seed:                   seed,
		StopAtConvergence:      true,
	}
}

// EncodeScenario serializes a scenario spec as indented JSON (the
// -scenario-file format).
func EncodeScenario(s ScenarioSpec) []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("exp: unmarshalable scenario spec: " + err.Error())
	}
	return b
}

// DecodeScenarios parses and validates scenario specs from JSON: a
// single spec object or an array of them (the -scenario-file format).
func DecodeScenarios(b []byte) ([]ScenarioSpec, error) {
	// Decode the form the input actually has, so a malformed object is
	// reported with its own field error instead of the array
	// type-mismatch error.
	var many []ScenarioSpec
	strict := func(v any) error {
		// Scenario files are hand-authored: an unknown (misspelled)
		// field must fail loudly, not silently resolve to a default
		// and simulate a deployment the user never wrote.
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	if trimmed := bytes.TrimLeft(b, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		var one ScenarioSpec
		if err := strict(&one); err != nil {
			return nil, fmt.Errorf("exp: scenario spec decode: %w", err)
		}
		many = []ScenarioSpec{one}
	} else if err := strict(&many); err != nil {
		return nil, fmt.Errorf("exp: scenario spec decode: %w", err)
	}
	if len(many) == 0 {
		return nil, fmt.Errorf("exp: scenario file holds no specs")
	}
	for i, s := range many {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("exp: scenario %d (%q): %w", i, s.Name, err)
		}
	}
	return many, nil
}

// Ideal returns the no-variance, IID deployment for a workload.
func Ideal(w workload.Workload) ScenarioSpec {
	return ScenarioSpec{Name: "ideal", Workload: w}
}

// Realistic returns the paper's default evaluation environment (§4.2):
// the co-running application on a random device subset and the
// Gaussian-varying Wi-Fi channel, with the prior-work straggler-drop
// deadline active.
func Realistic(w workload.Workload) ScenarioSpec {
	s := Ideal(w)
	s.Name = "realistic"
	s.Interference = InterferenceSpec{Kind: interfere.WebBrowsing().Name}
	s.Network = NetworkSpec{Kind: netsim.KindUnstable}
	s.Deadline = DeadlineSpec{Kind: DeadlineAuto}
	return s
}

// InterferenceOnly isolates on-device interference (Fig. 10b).
func InterferenceOnly(w workload.Workload) ScenarioSpec {
	s := Ideal(w)
	s.Name = "interference"
	s.Interference = InterferenceSpec{Kind: interfere.WebBrowsing().Name}
	s.Deadline = DeadlineSpec{Kind: DeadlineAuto}
	return s
}

// UnstableNetworkOnly isolates network variance (Fig. 10c).
func UnstableNetworkOnly(w workload.Workload) ScenarioSpec {
	s := Ideal(w)
	s.Name = "unstable-network"
	s.Network = NetworkSpec{Kind: netsim.KindUnstable}
	s.Deadline = DeadlineSpec{Kind: DeadlineAuto}
	return s
}

// NonIIDScenario returns the data-heterogeneity deployment (Fig. 11b).
func NonIIDScenario(w workload.Workload) ScenarioSpec {
	s := Ideal(w)
	s.Name = "non-iid"
	s.Partition = PartitionSpec{Kind: PartitionDirichlet, Seed: nonIIDPartitionSeed}
	return s
}

// RealisticNonIID combines runtime variance and data heterogeneity
// (Table 5's last row).
func RealisticNonIID(w workload.Workload) ScenarioSpec {
	s := Realistic(w)
	s.Name = "realistic-non-iid"
	s.Partition = PartitionSpec{Kind: PartitionDirichlet, Seed: nonIIDPartitionSeed}
	return s
}

// nonIIDPartitionSeed fixes the paper presets' Dirichlet draw.
const nonIIDPartitionSeed = 42

// Preset is one named scenario constructor, parameterized by workload.
type Preset struct {
	Name        string
	Description string
	Build       func(workload.Workload) ScenarioSpec
}

// Presets lists the paper's deployment presets by name — the scenarios
// the -list-scenarios flag prints and the evaluation figures compose.
func Presets() []Preset {
	return []Preset{
		{"ideal", "no variance, IID data (§4.2 baseline)", Ideal},
		{"realistic", "co-running interference + unstable network + straggler deadline", Realistic},
		{"interference", "on-device interference only (Fig. 10b)", InterferenceOnly},
		{"unstable-network", "network variance only (Fig. 10c)", UnstableNetworkOnly},
		{"non-iid", "Dirichlet(0.1) data heterogeneity (Fig. 11b)", NonIIDScenario},
		{"realistic-non-iid", "runtime variance + data heterogeneity (Table 5)", RealisticNonIID},
	}
}

// Seeds returns the default evaluation seed set.
func Seeds() []int64 { return []int64{1, 2} }

// warmupSeed is the seed FedGPO's Q-table warm-up runs on (distinct
// from every evaluation seed).
const warmupSeed = 997
