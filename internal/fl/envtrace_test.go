package fl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// liveEnv is the environment as runs drew it before traces: the seed's
// root stream split into selection, environment and convergence-model
// streams, in that order, with each round drawing every device's
// interference and bandwidth on the environment stream and a full
// permutation on the selection stream.
type liveEnv struct {
	key      envKey
	sel, env *stats.RNG
	acc      *stats.RNG
	perm     []int
}

func newLiveEnv(key envKey) *liveEnv {
	root := stats.NewRNG(key.seed)
	l := &liveEnv{key: key, perm: make([]int, key.n)}
	l.sel = root.Split()
	l.env = root.Split()
	l.acc = root.Split()
	return l
}

// observeStates is the live draw of one round's stochastic state.
func (l *liveEnv) observeStates(states []DeviceState) {
	for i := range states {
		st := &states[i]
		st.Interference = l.key.intf.Sample(l.env)
		st.Network = l.key.ch.Sample(l.env)
	}
}

// next draws one round live.
func (l *liveEnv) next(states []DeviceState) []int {
	l.observeStates(states)
	l.sel.PermInto(l.perm)
	return l.perm
}

// liveRound is one round of the oracle, kept for comparison.
type liveRound struct {
	states []DeviceState
	perm   []int
}

func liveRounds(key envKey, rounds int) []liveRound {
	l := newLiveEnv(key)
	out := make([]liveRound, rounds)
	for r := range out {
		states := make([]DeviceState, key.n)
		out[r] = liveRound{states: states, perm: append([]int(nil), l.next(states)...)}
	}
	return out
}

// sameRound compares a replayed round with the live one bit for bit.
func sameRound(states []DeviceState, perm []uint16, want liveRound) error {
	bits := math.Float64bits
	for i, st := range states {
		w := want.states[i]
		if bits(st.Interference.CPUUsage) != bits(w.Interference.CPUUsage) ||
			bits(st.Interference.MemUsage) != bits(w.Interference.MemUsage) {
			return fmt.Errorf("device %d interference %+v, live %+v", i, st.Interference, w.Interference)
		}
		if bits(st.Network.BandwidthMbps) != bits(w.Network.BandwidthMbps) || st.Network.Signal != w.Network.Signal {
			return fmt.Errorf("device %d network %+v, live %+v", i, st.Network, w.Network)
		}
	}
	for i, id := range perm {
		if int(id) != want.perm[i] {
			return fmt.Errorf("permutation[%d] = %d, live %d", i, id, want.perm[i])
		}
	}
	return nil
}

// replay walks a view over rounds [0, rounds), reads every device's
// state from each round's device view, and checks each round against
// the live draws.
func replay(v *traceView, n, rounds int, want []liveRound) error {
	static, states := make([]DeviceState, n), make([]DeviceState, n)
	for r := 0; r < rounds; r++ {
		devices, perm, interfered, badLinks := v.observe(r, static)
		for id := range states {
			devices.read(id, &states[id])
		}
		if err := sameRound(states, perm, want[r]); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if i, b, _ := scanStates(states); i != interfered || b != badLinks {
			return fmt.Errorf("round %d: trace counts %d interfered / %d bad links, states %d / %d", r, interfered, badLinks, i, b)
		}
	}
	return nil
}

// TestEnvTraceMatchesLiveDraws checks every recorded and replayed
// round against the live draw, bit for bit: recording a fresh trace,
// replaying it, and extending a partial trace (mid-chunk) to a longer
// run, across interference models, channels and fleet sizes.
func TestEnvTraceMatchesLiveDraws(t *testing.T) {
	intfs := map[string]interfere.Model{
		"none":             interfere.None(),
		"web-browsing@0.5": interfere.Paper(),
		"heavy-game@0.3":   {Profile: interfere.HeavyGame(), ActiveFraction: 0.3},
	}
	chans := map[string]netsim.Channel{"stable": netsim.StableChannel(), "unstable": netsim.UnstableChannel()}
	const partial, full = 13, 37
	for in, intf := range intfs {
		for cn, ch := range chans {
			for _, n := range []int{1, 20, 200} {
				key := envKey{seed: 11, n: n, intf: intf, ch: ch}
				want := liveRounds(key, full)
				tr := newEnvTrace(key, new(atomic.Int64))
				var v traceView
				for _, step := range []struct {
					name   string
					rounds int
				}{{"record", partial}, {"replay", partial}, {"extend", full}, {"replay extended", full}} {
					v.reset(tr)
					if err := replay(&v, n, step.rounds, want); err != nil {
						t.Errorf("%s/%s/n=%d %s: %v", in, cn, n, step.name, err)
					}
				}
				if tr.rounds != full {
					t.Errorf("%s/%s/n=%d: trace recorded %d rounds, want %d", in, cn, n, tr.rounds, full)
				}
				if acc := stats.NewRNG(tr.accSeed); acc.Int63() != newLiveEnv(key).acc.Int63() {
					t.Errorf("%s/%s/n=%d: convergence-model stream differs from the root's third split", in, cn, n)
				}
			}
		}
	}
}

// TestEnvTraceConcurrentRunsRaceClean runs four views of one trace at
// once, each to a different length, so runs extend and replay the
// same trace concurrently. Under -race this is the trace's data-race
// check.
func TestEnvTraceConcurrentRunsRaceClean(t *testing.T) {
	key := envKey{seed: 5, n: 70, intf: interfere.Paper(), ch: netsim.UnstableChannel()}
	lengths := []int{10, 41, 25, 33}
	want := liveRounds(key, 41)
	tr := newEnvTrace(key, new(atomic.Int64))
	errs := make([]error, len(lengths))
	var wg sync.WaitGroup
	for g, rounds := range lengths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v traceView
			v.reset(tr)
			errs[g] = replay(&v, key.n, rounds, want)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d (%d rounds): %v", g, lengths[g], err)
		}
	}
}

// TestReplayedRunAllocatesNothingPerRound: once a trace holds every
// round, a run's rounds allocate nothing — a 200-round replayed run
// allocates exactly as many objects as a 100-round one.
func TestReplayedRunAllocatesNothingPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := testConfig()
	cfg.Channel = netsim.UnstableChannel()
	cfg.Interference = interfere.Paper()
	cfg.StopAtConvergence = false
	cfg.MaxRounds = 200
	p := Params{B: 8, E: 10, K: 10}
	a := NewArena()
	RunWithArena(cfg, NewStatic(p), a) // records all 200 rounds, warms the arena
	allocs := func(rounds int) int64 {
		c := cfg
		c.MaxRounds = rounds
		best := int64(-1)
		for pass := 0; pass < 5; pass++ {
			ctrl := NewStatic(p)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			RunWithArena(c, ctrl, a)
			runtime.ReadMemStats(&m1)
			if d := int64(m1.Mallocs - m0.Mallocs); best < 0 || d < best {
				best = d
			}
		}
		return best
	}
	short, long := allocs(100), allocs(200)
	if long != short {
		t.Errorf("replayed run allocates %d objects over 200 rounds and %d over 100; want equal", long, short)
	}
}

// pausing is a Static controller that stops at one round until
// released, so a test can act while a run is mid-way.
type pausing struct {
	*Static
	at      int
	reached chan struct{}
	release chan struct{}
}

func (p *pausing) Plan(obs Observation) Plan {
	if obs.Round == p.at {
		close(p.reached)
		<-p.release
	}
	return p.Static.Plan(obs)
}

// TestMemoCapStartsFreshMemo: once the current memo holds
// memoCapBytes, the next run joins a fresh memo, while a run already
// in progress keeps recording into its old memo's trace and finishes
// with the same result as a run recorded from scratch in the fresh
// memo.
func TestMemoCapStartsFreshMemo(t *testing.T) {
	cfg := dirtyConfig()
	cfg.Seed = 4242 // a key no other test records
	p := Params{B: 8, E: 10, K: 10}

	ctrl := &pausing{Static: NewStatic(p), at: 20, reached: make(chan struct{}), release: make(chan struct{})}
	running := NewArena()
	done := make(chan Result)
	go func() { done <- RunWithArena(cfg, ctrl, running) }()
	<-ctrl.reached
	old, oldTrace := running.memo, running.env.t
	old.bytes.Add(memoCapBytes) // the memo is now at its cap

	other := NewArena()
	RunWithArena(testConfig(), NewStatic(p), other)
	if other.memo == old {
		t.Fatal("a run started after the memo reached its cap joined the full memo")
	}
	if got := currentMemo(memoCapBytes); got != other.memo {
		t.Error("the fresh memo is not the one later runs join")
	}
	if _, ok := other.memo.traces[oldTrace.key]; ok {
		t.Error("the fresh memo already holds the running cell's trace")
	}

	close(ctrl.release)
	res := <-done
	want := marshalStable(t, RunWithArena(cfg, NewStatic(p), other))
	if other.memo.traces[oldTrace.key] == oldTrace {
		t.Error("a run in the fresh memo reused the old memo's trace")
	}
	if running.memo != old || running.env.t != oldTrace {
		t.Error("the running cell lost its memo or trace when the cap was crossed")
	}
	if oldTrace.rounds != cfg.MaxRounds {
		t.Errorf("the running cell's trace holds %d rounds, want %d", oldTrace.rounds, cfg.MaxRounds)
	}
	if marshalStable(t, res) != want {
		t.Error("the running cell's result changed when the cap was crossed")
	}
}

// TestSharedFleetAndPartitionAreShared: while a memo is held, equal
// requests get the same backing arrays, and the values are what
// device.NewFleet and the builder produce.
func TestSharedFleetAndPartitionAreShared(t *testing.T) {
	hold := NewArena()
	RunWithArena(testConfig(), NewStatic(Params{B: 8, E: 10, K: 10}), hold) // pins the current memo
	comp := device.PaperComposition().Scale(37)
	a, b := SharedFleet(comp), SharedFleet(comp)
	if &a[0] != &b[0] {
		t.Error("SharedFleet built the same composition twice")
	}
	if fmt.Sprint(a) != fmt.Sprint(device.NewFleet(comp)) {
		t.Error("SharedFleet differs from device.NewFleet")
	}
	w := workload.CNNMNIST()
	key := PartitionKey{Spec: "test-dirichlet", Devices: 37, Classes: w.NumClasses, SamplesPerDevice: w.SamplesPerDevice}
	builds := 0
	build := func() data.Partition {
		builds++
		return data.Dirichlet(37, w.NumClasses, w.SamplesPerDevice, data.PaperAlpha, stats.NewRNG(3))
	}
	before := hold.memo.bytes.Load()
	pa, pb := SharedPartition(key, build), SharedPartition(key, build)
	if builds != 1 || &pa.Counts[0] != &pb.Counts[0] {
		t.Errorf("SharedPartition built %d times, want once and shared", builds)
	}
	// The partition carries its per-device signals, built with it, and
	// the memo's size estimate counts them.
	sig := pa.SignalBytes()
	if sig <= 0 || pb.SignalBytes() != sig {
		t.Errorf("shared partitions carry %d and %d signal bytes, want the same positive count", sig, pb.SignalBytes())
	}
	if got, want := hold.memo.bytes.Load()-before, int64(37*(24+8*w.NumClasses))+sig; got != want {
		t.Errorf("SharedPartition grew the memo estimate by %d bytes, want %d (rows plus signals)", got, want)
	}
	if hold.memo != currentMemo(memoCapBytes) {
		t.Error("the held memo was replaced")
	}
	runtime.KeepAlive(hold)
}

// TestRunMemoUnreachableOnceArenasAre: the memo is reached only
// through arenas. Once every arena that joined it is gone — pooled
// arenas included, which two collections drop — it is collected.
func TestRunMemoUnreachableOnceArenasAre(t *testing.T) {
	cfg := testConfig()
	Run(cfg, NewStatic(Params{B: 8, E: 10, K: 10}))
	RunWithArena(cfg, NewStatic(Params{B: 8, E: 10, K: 10}), NewArena())
	SharedFleet(device.PaperComposition())
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	current.mu.Lock()
	m := current.p.Value()
	current.mu.Unlock()
	if m != nil {
		t.Error("the run memo is still reachable after every arena was dropped")
	}
}

// A fleet whose device indices do not fit a uint16 is a config error.
func TestValidateRejectsOversizedFleet(t *testing.T) {
	cfg := testConfig()
	cfg.Fleet = make([]device.Device, maxFleet+1)
	for i := range cfg.Fleet {
		cfg.Fleet[i].ID = i
	}
	cfg.Partition = data.IID(maxFleet+1, 2, 2)
	if err := cfg.Validate(); err == nil {
		t.Errorf("a %d-device fleet validated", maxFleet+1)
	}
	cfg.Fleet = cfg.Fleet[:maxFleet]
	cfg.Partition = data.IID(maxFleet, 2, 2)
	if err := cfg.Validate(); err != nil {
		t.Errorf("a %d-device fleet was rejected: %v", maxFleet, err)
	}
}
