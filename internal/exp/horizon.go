package exp

import (
	"slices"
	"sync"
	"sync/atomic"

	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/runtime"
)

// horizonGroup is a set of one batch's plain simulation cells that
// differ only in their round budget: the same scenario otherwise, the
// same controller key and the same seed. A run's first h rounds do not
// depend on its budget (see fl.RunHorizons), so every member's result
// is a prefix of the longest member's run. The group runs once: the
// first member whose job body runs, whichever member that is, runs the
// longest member's spec over every member's budget, and every other
// member waits for that run and takes its own budget's result. Each
// member computes the bytes of its own run, counts as an executed cell
// and is cached under its own key; only the first member to take the
// run's result carries its telemetry. A member served from the cache
// runs no body, so the group runs if any member misses, even a short
// one whose longest twin hits. A group lives only as long as its
// batch's jobs.
//
// A shorter member's History is a view of the longest member's History
// array (see fl.Result for the sharing contract), so a group's results
// hold its longest run's rounds once.
type horizonGroup struct {
	batch []JobSpec
	// longest is the batch index of the member with the longest
	// budget.
	longest int
	// horizons are the members' distinct budgets, ascending; the last
	// is longest's own.
	horizons []int
	// sims runs the group (sync.OnceValues) and returns the run's
	// Result and its results, one per horizon. A failed run panics
	// again in every member, as a failed warm-up does in every cell
	// reading its snapshot, so no member reads a result that was never
	// made.
	sims func() (runtime.Result, []fl.Result)
	// taken is set by the first member to take the run's Result, and
	// with it the run's Telemetry and Snaps.
	taken atomic.Bool
}

// run is the job body of the member at batch index i.
func (g *horizonGroup) run(i int) runtime.Result {
	res, sims := g.sims()
	if g.taken.Swap(true) {
		res = runtime.Result{}
	}
	k, _ := slices.BinarySearch(g.horizons, g.batch[i].Scenario.rounds())
	res.Sim = sims[k]
	return res
}

// groupKey is what a horizon group's members share: the scenario with
// its round budget and display name cleared, the controller key and
// the seed.
type groupKey struct {
	s    ScenarioSpec
	ctrl string
	seed int64
}

// horizonGroups finds a batch's horizon groups among its compiled
// jobs (Runtime.Job, by batch index), points each member's job at its
// group's run, and returns each spec's group by batch index (nil for a
// spec in none). Only a batch whose plain simulation cells use more
// than one round budget (a sweep with a rounds axis; never a report
// batch) has groups, so any other returns nil after one pass over the
// specs. Invalid specs are never grouped: their jobs are of kind
// kindInvalid, not plain simulation cells, so each fails alone with
// its own error.
func (r *Runtime) horizonGroups(specs []JobSpec, jobs []runtime.Job) []*horizonGroup {
	if !mixedBudgets(specs) {
		return nil
	}
	byKey := make(map[groupKey]*horizonGroup)
	of := make([]*horizonGroup, len(specs))
	for i, sp := range specs {
		if jobs[i].Kind != KindSim {
			continue
		}
		s := sp.Scenario
		s.Name, s.MaxRounds = "", 0
		k := groupKey{s, jobs[i].Controller, sp.Seed}
		g := byKey[k]
		if g == nil {
			g = &horizonGroup{batch: specs, longest: i}
			byKey[k] = g
		}
		h := sp.Scenario.rounds()
		if h > specs[g.longest].Scenario.rounds() {
			g.longest = i
		}
		if !slices.Contains(g.horizons, h) {
			g.horizons = append(g.horizons, h)
		}
		of[i] = g
	}
	grouped := false
	for i, g := range of {
		if g == nil || len(g.horizons) < 2 {
			of[i] = nil
			continue
		}
		if g.sims == nil {
			slices.Sort(g.horizons)
			g.sims = sync.OnceValues(func() (runtime.Result, []fl.Result) {
				return r.execute(g.batch[g.longest], g.horizons)
			})
			grouped = true
		}
		jobs[i].Run = func() runtime.Result { return g.run(i) }
	}
	if !grouped {
		return nil
	}
	return of
}

// environment is what a run's environment trace is drawn from (see
// fl.Arena): the seed, the fleet size and the interference model. The
// channel is not part of it: runs under different channels read one
// trace, each mapping its draws through its own channel.
type environment struct {
	seed int64
	n    int
	intf interfere.Model
}

// spreadEnvironments reorders the batch indexes in order, stably, so
// that each environment's first cell comes before any environment's
// second, and so on. The first run to reach a round of an environment
// draws it while every other run that needs that round waits, so two
// runs that start one environment together wait on each other round
// by round. A matrix varies its last axes fastest, so cells next to
// each other in a batch often share their environment; spread apart,
// the runs a pool starts together draw different ones.
func spreadEnvironments(specs []JobSpec, order []int) {
	nth := make(map[environment]int)
	rank := make([]int, len(specs))
	for _, i := range order {
		s := specs[i].Scenario
		intf, _ := s.Interference.resolve()
		e := environment{specs[i].Seed, s.Fleet.Composition().Total(), intf}
		rank[i] = nth[e]
		nth[e]++
	}
	slices.SortStableFunc(order, func(a, b int) int { return rank[a] - rank[b] })
}

// mixedBudgets reports whether the batch's plain simulation cells use
// more than one round budget.
func mixedBudgets(specs []JobSpec) bool {
	first := 0
	for _, sp := range specs {
		if sp.Kind != KindSim {
			continue
		}
		if h := sp.Scenario.rounds(); first == 0 {
			first = h
		} else if h != first {
			return true
		}
	}
	return false
}
