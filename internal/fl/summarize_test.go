package fl

import (
	"reflect"
	"testing"
)

// runSeeds is the serial reference for Summarize: it runs the config
// once per seed, each under a fresh controller so learned state never
// leaks across seeds, and aggregates the results in seed order.
func runSeeds(cfg Config, factory func() Controller, seeds []int64) Summary {
	results := make([]Result, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		results[i] = Run(c, factory())
	}
	return Summarize(cfg.MaxRounds, results)
}

// Summarize must reproduce a serial run of the seeds exactly: the
// parallel experiment runtime relies on the two paths being
// byte-identical.
func TestSummarizeMatchesRunSeeds(t *testing.T) {
	cfg := testConfig()
	seeds := []int64{1, 2, 3}
	factory := func() Controller { return NewStatic(Params{B: 8, E: 10, K: 10}) }

	want := runSeeds(cfg, factory, seeds)

	results := make([]Result, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		results[i] = Run(c, factory())
	}
	got := Summarize(cfg.MaxRounds, results)
	// Controller overhead is wall-clock measured, so it differs between
	// the two sets of runs; every simulated quantity must match exactly.
	want.MeanOverheadSec, got.MeanOverheadSec = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Summarize diverges from the serial run:\nserial:    %+v\nSummarize: %+v", want, got)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty result slice")
		}
	}()
	Summarize(100, nil)
}
