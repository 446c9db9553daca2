package fl

import (
	"sync"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
)

// Arena owns every buffer the simulation round loop touches, so that a
// run — and every run after it that reuses the arena — executes its
// steady-state rounds without allocating. Run draws arenas from a
// package-level sync.Pool, which in practice gives each outer worker a
// long-lived arena carried across the simulation cells it executes;
// RunWithArena accepts an explicit arena for benchmarks and tests.
//
// A run's environment — each round's interference and bandwidth draws
// and its selection permutation — does not depend on the controller,
// so it is not drawn per run: beginRun joins the process's run memo
// and takes the environment trace for the run's (seed, fleet size,
// interference model, channel), and each round replays the trace,
// recording the round first if no run has reached it yet (see
// envTrace). The arena holds the memo strongly; nothing else does, so
// the memo lives exactly as long as some arena, pooled or running,
// uses it.
//
// Reuse is safe because RunWithArena rewrites every slot it later
// reads. Per-run slots are refilled by beginRun: the static DeviceState
// fields (ClassCount, ClassFraction, Samples, which cannot change
// within a run) and their mean ClassFraction, the per-category
// idle-energy runs, the trace view and the convergence-model stream,
// which is reseeded rather than reallocated. Per-round slots are fully
// overwritten each round: the selection bitmap is cleared and refilled,
// and every field of each participant's DeviceRound is written in
// place, so stale Dropped/energy fields cannot leak (checked by
// TestParticipantLedgerMatchesKernel). Apart from the run memo it
// joins, no arena state carries over from one run to the next, so a
// dirty arena yields byte-identical output to a fresh one (enforced by
// TestRunWithDirtyArenaByteIdentical).
//
// No replayed round walks the fleet device by device except the
// idle-energy sum: device state is read on demand from the trace (see
// Observation.State), the selection is a bitmap of n/64 words, and the
// rest scales with the K participants. A round costs O(K + n/64) plus
// one add per non-participant in its category's idle-energy chain;
// the first run to reach a round also draws it into the trace.
//
// An Arena belongs to one goroutine at a time. The slices handed to
// controllers through Observation/RoundResult point into it — see the
// ownership contract on those types.
type Arena struct {
	// static holds each device's static DeviceState fields, refilled by
	// beginRun; its Interference and Network stay zero (see
	// deviceView).
	static []DeviceState
	// meanClass is the mean of static's ClassFraction.
	meanClass float64
	// idle lists, per category, the category's devices in ascending id
	// order with their idle draw (Profile.IdleWatts), refilled by
	// beginRun.
	idle [device.NumCategories]idleRun

	// sel double-buffers participant selection: the previous round's
	// buffer stays intact while the current one is written, so
	// Observation.PrevParticipants remains valid through the round it
	// describes.
	sel [2][]int
	// selBits marks the round's participants, one bit per device.
	selBits []uint64

	// state is the participant state executeRound reads from the trace
	// and hands to Plan.Local by pointer, one participant at a time.
	state DeviceState

	// Per-round participant buffers (sized to the fleet once).
	parts      []DeviceRound
	commJoules []float64
	aggIDs     []int

	// history is the run's History, copied out at its exact length
	// when the run ends.
	history []RoundRecord

	// memo is the run memo this arena joined; env is the run's view of
	// its environment trace.
	memo *runMemo
	env  traceView
	// accRNG is the run's convergence-model noise stream, reseeded by
	// beginRun from the trace's accSeed.
	accRNG *stats.RNG

	part data.Memo
	comm netsim.CommModel
}

// idleRun is one category's devices, ascending by id, and their idle
// draws: the order a round adds their idle energy in.
type idleRun struct {
	ids   []int
	watts []float64
}

// NewArena returns an empty arena. Buffers grow on first use and are
// reused afterwards.
func NewArena() *Arena {
	return &Arena{accRNG: stats.NewRNG(0)}
}

// arenaPool recycles arenas across Run calls. sync.Pool is per-P under
// the hood, so an outer worker goroutine keeps getting its own arena
// back while it walks its shard of simulation cells.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// beginRun sizes the arena for cfg's fleet, joins the current run memo
// and its environment trace, reseeds the convergence-model stream,
// points the partition memo at the partition's signals (computing them
// only for a partition that carries none; see SharedPartition) and
// fills the per-run tables (static device states, per-category idle
// runs).
func (a *Arena) beginRun(cfg *Config) {
	n := len(cfg.Fleet)
	if cap(a.static) < n {
		a.static = make([]DeviceState, n)
		a.sel[0] = make([]int, n)
		a.sel[1] = make([]int, n)
		a.parts = make([]DeviceRound, n)
		a.commJoules = make([]float64, n)
		a.aggIDs = make([]int, 0, n)
		a.selBits = make([]uint64, (n+63)/64)
	}
	a.static = a.static[:n]
	a.parts = a.parts[:n]
	a.commJoules = a.commJoules[:n]
	a.selBits = a.selBits[:(n+63)/64]

	a.memo = currentMemo(memoCapBytes)
	t := a.memo.trace(envKey{seed: cfg.Seed, n: n, intf: cfg.Interference, ch: cfg.Channel})
	a.env.reset(t)
	a.accRNG.Reseed(t.accSeed)

	a.part.Reset(cfg.Partition)
	for cat := range a.idle {
		a.idle[cat].ids = a.idle[cat].ids[:0]
		a.idle[cat].watts = a.idle[cat].watts[:0]
	}
	classPct := 0.0
	for i := range cfg.Fleet {
		d := &cfg.Fleet[i]
		a.static[i] = DeviceState{
			ClassCount:    a.part.DeviceClassCount(i),
			ClassFraction: a.part.DeviceClassFraction(i),
			Samples:       a.part.DeviceSamples(i),
		}
		classPct += a.static[i].ClassFraction
		run := &a.idle[d.Profile.Category]
		run.ids = append(run.ids, i)
		run.watts = append(run.watts, d.Profile.IdleWatts)
	}
	a.meanClass = classPct / float64(n)
	a.comm = cfg.Channel.Model()

	if cap(a.history) < cfg.MaxRounds {
		a.history = make([]RoundRecord, 0, cfg.MaxRounds)
	}
	a.history = a.history[:0]
}
