package fl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// marshalStable serializes a Result, so byte comparison covers every
// simulated quantity.
func marshalStable(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dirtyConfig is a deliberately different deployment from testConfig —
// different workload, fleet size, partition skew, channel, deadline —
// used to soil an arena between runs of the config under test.
func dirtyConfig() Config {
	w := workload.LSTMShakespeare()
	fleet := device.NewFleet(device.PaperComposition().Scale(33))
	rng := stats.NewRNG(5)
	return Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.Dirichlet(len(fleet), w.NumClasses, w.SamplesPerDevice, data.PaperAlpha, rng),
		Channel:                netsim.UnstableChannel(),
		Interference:           interfere.Paper(),
		MaxRounds:              40,
		DeadlineSec:            200,
		AggregationOverheadSec: 5,
		Seed:                   77,
		StopAtConvergence:      false,
	}
}

// bigConfig is a third deployment, larger than both others, so an
// arena reused across it and them both grows and shrinks: MobileNet's
// 1,000-class IID partition over 50 devices under interference.
func bigConfig() Config {
	w := workload.MobileNetImageNet()
	fleet := device.NewFleet(device.PaperComposition().Scale(50))
	return Config{
		Workload:               w,
		Fleet:                  fleet,
		Partition:              data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:                netsim.StableChannel(),
		Interference:           interfere.Paper(),
		MaxRounds:              30,
		AggregationOverheadSec: 30,
		Seed:                   3,
	}
}

// stateDigest is a Static controller that folds every observed
// DeviceState, static fields included, into a hash. Static itself
// reads no state, so without it a stale ClassFraction or Samples left
// in a reused arena would go unseen.
type stateDigest struct {
	*Static
	h hash.Hash64
}

func newStateDigest(p Params) *stateDigest {
	return &stateDigest{Static: NewStatic(p), h: fnv.New64a()}
}

func (s *stateDigest) Plan(obs Observation) Plan {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		s.h.Write(buf[:])
	}
	for id := range obs.Fleet {
		st := obs.State(id)
		put(math.Float64bits(st.Interference.CPUUsage))
		put(math.Float64bits(st.Interference.MemUsage))
		put(math.Float64bits(st.Network.BandwidthMbps))
		put(uint64(st.Network.Signal))
		put(uint64(st.ClassCount))
		put(math.Float64bits(st.ClassFraction))
		put(uint64(st.Samples))
	}
	return s.Static.Plan(obs)
}

// digestRun runs cfg on a under a stateDigest controller and returns
// the result bytes followed by the digest of every observed state.
func digestRun(t *testing.T, cfg Config, p Params, a *Arena) string {
	t.Helper()
	ctrl := newStateDigest(p)
	res := marshalStable(t, RunWithArena(cfg, ctrl, a))
	return fmt.Sprintf("%s|states=%x", res, ctrl.h.Sum64())
}

// TestRunWithDirtyArenaByteIdentical is the arena-reuse contract: a run
// on an arena dirtied by unrelated runs (different fleet size,
// workload, partition, channel) is byte-identical to the same run on a
// fresh arena, and to the pooled-arena Run path. Every run here also
// digests the states its controller observed, so a static DeviceState
// field or RNG stream left over from an earlier run would show.
func TestRunWithDirtyArenaByteIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Channel = netsim.UnstableChannel()
	cfg.Interference = interfere.Paper()
	cfg.DeadlineSec = 90
	cfg.MaxRounds = 60
	cfg.StopAtConvergence = false
	p := Params{B: 8, E: 10, K: 10}
	ctrl := func() Controller { return NewStatic(p) }

	want := marshalStable(t, RunWithArena(cfg, ctrl(), NewArena()))
	wantDigest := digestRun(t, cfg, p, NewArena())

	dirty := NewArena()
	RunWithArena(dirtyConfig(), ctrl(), dirty)
	RunWithArena(cfg, ctrl(), dirty) // same config: dirties every buffer in the exact shapes reused below
	RunWithArena(dirtyConfig(), NewStatic(Params{B: 2, E: 20, K: 33}), dirty)
	if got := marshalStable(t, RunWithArena(cfg, ctrl(), dirty)); got != want {
		t.Error("run on a dirty arena differs from a fresh-arena run")
	}

	if got := marshalStable(t, Run(cfg, ctrl())); got != want {
		t.Error("pooled-arena Run differs from a fresh-arena run")
	}

	// One arena carried across workloads whose fleets grow (20 → 50)
	// and shrink (50 → 33 → 20): each run must equal its fresh-arena
	// run, observed states included.
	bigP := Params{B: 16, E: 5, K: 20}
	wantBig := digestRun(t, bigConfig(), bigP, NewArena())
	wantDirty := digestRun(t, dirtyConfig(), p, NewArena())
	shared := NewArena()
	for i, step := range []struct {
		name string
		cfg  Config
		p    Params
		want string
	}{
		{"paper-mix 20", cfg, p, wantDigest},
		{"mobilenet 50", bigConfig(), bigP, wantBig},
		{"lstm 33", dirtyConfig(), p, wantDirty},
		{"paper-mix 20 again", cfg, p, wantDigest},
		{"mobilenet 50 again", bigConfig(), bigP, wantBig},
	} {
		if got := digestRun(t, step.cfg, step.p, shared); got != step.want {
			t.Errorf("step %d (%s): run on a shared arena differs from a fresh-arena run", i, step.name)
		}
	}
}

// TestRunWithArenaAllocsPerRound is the kernel's allocation ceiling: on
// a warmed arena a cell's round loop is allocation-free in steady
// state (~0.1 allocs/round, per-run fixed costs amortized over 200
// rounds). The 2.0 ceiling fails a change that adds two or more heap
// allocations per round while leaving room for per-run noise. Mallocs
// is a process-wide counter, so the measurement is the minimum over a
// few passes.
func TestRunWithArenaAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := testConfig()
	cfg.MaxRounds = 200
	cfg.StopAtConvergence = false
	p := Params{B: 8, E: 10, K: 10}
	a := NewArena()
	RunWithArena(cfg, NewStatic(p), a) // warm the arena and memo tables
	best := -1.0
	for pass := 0; pass < 5; pass++ {
		ctrl := NewStatic(p)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := RunWithArena(cfg, ctrl, a)
		runtime.ReadMemStats(&m1)
		perRound := float64(m1.Mallocs-m0.Mallocs) / float64(res.RoundsExecuted)
		if best < 0 || perRound < best {
			best = perRound
		}
	}
	if best > 2.0 {
		t.Errorf("warmed-arena run allocates %.2f objects per round, want <= 2.0", best)
	}
}

// TestArenaCrossCellReuseRaceClean exercises the deployment shape the
// arena pool serves — many outer workers executing cells concurrently,
// each reusing arenas across its cells — and checks results stay byte-identical to a serial reference. Run
// under -race this is also the cross-cell data-race check.
func TestArenaCrossCellReuseRaceClean(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 25
	cfg.StopAtConvergence = false
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}

	ref := make([]string, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		ref[i] = marshalStable(t, RunWithArena(c, NewStatic(Params{B: 8, E: 10, K: 10}), NewArena()))
	}

	var wg sync.WaitGroup
	got := make([]string, len(seeds))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker reuses one arena across its share of cells,
			// like an outer pool worker walking its shard.
			a := NewArena()
			for i := w; i < len(seeds); i += 4 {
				c := cfg
				c.Seed = seeds[i]
				got[i] = marshalStable(t, RunWithArena(c, NewStatic(Params{B: 8, E: 10, K: 10}), a))
			}
		}(w)
	}
	wg.Wait()
	for i := range seeds {
		if got[i] != ref[i] {
			t.Errorf("seed %d: concurrent reused-arena run differs from serial reference", seeds[i])
		}
	}
}

// TestRunOnSharedSignalsByteIdentical: a run on a partition carrying
// its signals (data.WithSignals, as SharedPartition hands out) equals
// the run on the bare partition, observed states included, and one
// arena alternating between the two forms stays byte-identical.
func TestRunOnSharedSignalsByteIdentical(t *testing.T) {
	p := Params{B: 8, E: 10, K: 10}
	for name, cfg := range map[string]Config{"dirichlet": dirtyConfig(), "iid": bigConfig()} {
		want := digestRun(t, cfg, p, NewArena())
		withSig := cfg
		withSig.Partition = data.WithSignals(cfg.Partition)
		a := NewArena()
		for i, c := range []Config{withSig, cfg, withSig, withSig} {
			if got := digestRun(t, c, p, a); got != want {
				t.Errorf("%s step %d: run differs from the bare-partition run", name, i)
			}
		}
	}
}
