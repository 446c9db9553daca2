package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/rl"
)

// Snapshot is the serializable learned state of a FedGPO controller:
// every Q-table, the energy normalizers' references, the feasibility
// context (observed deadline plus the profile behind each table, so
// masks can be recomputed if the deadline changes), and the freeze
// state. It is what the experiment runtime's pretrained-controller
// cache stores — building the snapshot once per scenario and restoring
// it for every figure/table cell replaces re-running the Q-table
// warm-up per cell.
//
// A snapshot crosses every boundary — the cache entry, the artifact a
// worker ships to the coordinator and the one the coordinator pushes
// to other workers — in its binary form (AppendBinary), which keeps
// every float's bits and tells nil from empty, so UnmarshalBinary
// returns a value equal to the one encoded. A controller restored from
// a disk-cached or shipped snapshot therefore behaves identically to
// one restored from the in-memory snapshot that produced it.
//
// Deliberately not captured: the controller RNG (restored controllers
// get a fresh deterministic stream — after FinishLearning exploration
// is off, so the stream only seeds Q rows for states the warm-up never
// visited), wall-clock overhead counters, and the reward history
// (which belongs to the warm-up run, not the evaluation run).
type Snapshot struct {
	LocalTables   map[string]rl.TableSnapshot
	KTable        *rl.TableSnapshot
	TableProfiles map[string]device.Profile
	GlobalNorm    NormalizerSnapshot
	KLocalNorm    NormalizerSnapshot
	LocalNorm     map[device.Category]NormalizerSnapshot
	Deadline      float64
	Frozen        bool
	FrozenRound   int
}

// Validate reports a snapshot FromSnapshot could not restore into a
// working controller: a Q row or a non-empty mask whose length is not
// its table's action count (len(fl.AllLocalParams()) for a local
// table, len(fl.KValues()) for the K table), a mask that allows no
// action, an exploration rate outside [0, 1], or a float that is not
// finite.
func (s Snapshot) Validate() error {
	floats := []float64{s.GlobalNorm.Value, s.KLocalNorm.Value, s.Deadline}
	table := func(name string, t rl.TableSnapshot, n int) error {
		for state, row := range t.Q {
			if len(row) != n {
				return fmt.Errorf("core: snapshot %s: state %q has %d Q values, want %d", name, state, len(row), n)
			}
			floats = append(floats, row...)
		}
		if len(t.Mask) > 0 && (len(t.Mask) != n || !slices.Contains(t.Mask, true)) {
			return fmt.Errorf("core: snapshot %s: mask %v does not fit %d actions", name, t.Mask, n)
		}
		if !(t.Epsilon >= 0 && t.Epsilon <= 1) {
			return fmt.Errorf("core: snapshot %s: epsilon %v outside [0, 1]", name, t.Epsilon)
		}
		floats = append(floats, t.Epsilon, t.Delta)
		return nil
	}
	for key, t := range s.LocalTables {
		if err := table("local table "+key, t, len(fl.AllLocalParams())); err != nil {
			return err
		}
	}
	if s.KTable != nil {
		if err := table("K table", *s.KTable, len(fl.KValues())); err != nil {
			return err
		}
	}
	for _, n := range s.LocalNorm {
		floats = append(floats, n.Value)
	}
	for _, p := range s.TableProfiles {
		floats = append(floats, p.GFLOPS, p.RAMBytes, p.IdleWatts, p.WaitWatts, p.CPU.MaxFreqGHz,
			p.CPU.PeakWatts, p.CPU.FloorWatts, p.GPU.MaxFreqGHz, p.GPU.PeakWatts, p.GPU.FloorWatts)
	}
	for _, v := range floats {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: snapshot holds a non-finite value %v", v)
		}
	}
	return nil
}

// Snapshot captures the controller's learned state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		LocalTables:   make(map[string]rl.TableSnapshot, len(c.localTables)),
		TableProfiles: make(map[string]device.Profile, len(c.tableProfiles)),
		GlobalNorm:    c.globalNorm.Snapshot(),
		KLocalNorm:    c.kLocalNorm.Snapshot(),
		LocalNorm:     make(map[device.Category]NormalizerSnapshot, len(c.localNorm)),
		Deadline:      c.deadline,
		Frozen:        c.frozen,
		FrozenRound:   c.frozenRound,
	}
	for key, t := range c.localTables {
		s.LocalTables[key] = t.q.Snapshot()
	}
	for key, p := range c.tableProfiles {
		s.TableProfiles[key] = p
	}
	if c.kTable != nil {
		kt := c.kTable.Snapshot()
		s.KTable = &kt
	}
	for cat, n := range c.localNorm {
		s.LocalNorm[cat] = n.Snapshot()
	}
	return s
}

// FromSnapshot rebuilds a controller under the given configuration
// from a captured snapshot. Tables are restored in sorted key order so
// each receives its RNG stream deterministically regardless of map
// iteration; restoring the same snapshot therefore always yields the
// same controller behavior.
func FromSnapshot(cfg Config, snap Snapshot) *Controller {
	c := New(cfg)
	keys := make([]string, 0, len(snap.LocalTables))
	for key := range snap.LocalTables {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		q := rl.Restore(len(c.localActions), c.cfg.RL, c.rng.Split(), c.deviceStates, snap.LocalTables[key])
		c.localTables[key] = &localTable{key: key, index: -1, q: q}
		if p, ok := snap.TableProfiles[key]; ok {
			c.tableProfiles[key] = p
		}
	}
	if snap.KTable != nil {
		c.kTable = rl.Restore(len(c.kActions), c.cfg.RL, c.rng.Split(), c.globalStates, *snap.KTable)
	}
	c.globalNorm = RestoreNormalizer(snap.GlobalNorm)
	c.kLocalNorm = RestoreNormalizer(snap.KLocalNorm)
	for cat, n := range snap.LocalNorm {
		c.localNorm[cat] = RestoreNormalizer(n)
	}
	c.deadline = snap.Deadline
	c.frozen = snap.Frozen
	c.frozenRound = snap.FrozenRound
	return c
}

// PretrainSnapshot runs the Pretrained warm-up and captures the
// resulting controller state — the producer side of the experiment
// runtime's pretrained-controller cache.
func PretrainSnapshot(cfg Config, warmup fl.Config) Snapshot {
	return Pretrained(cfg, warmup).Snapshot()
}
