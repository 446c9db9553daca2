package fl

import (
	"encoding/json"
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

// marshalStable serializes a Result with its wall-clock-measured field
// zeroed, so byte comparison covers every simulated quantity.
func marshalStable(t *testing.T, r Result) string {
	t.Helper()
	r.ControllerOverheadSec = 0
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

// TestRunWithDirtyArenaByteIdentical is the arena-reuse contract: a run
// on an arena dirtied by unrelated runs (different fleet size,
// workload, partition, channel) is byte-identical to the same run on a
// fresh arena, and to the pooled-arena Run path.
func TestRunWithDirtyArenaByteIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Channel = netsim.UnstableChannel()
	cfg.Interference = interfere.Paper()
	cfg.DeadlineSec = 90
	cfg.MaxRounds = 60
	cfg.StopAtConvergence = false
	ctrl := func() Controller { return NewStatic(Params{B: 8, E: 10, K: 10}) }

	want := marshalStable(t, RunWithArena(cfg, ctrl(), NewArena()))

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
