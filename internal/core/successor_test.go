package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/netsim"
	"fedgpo/internal/rl"
	"fedgpo/internal/workload"
)

// fullScanSuccessors is the reference for flushPending's successor
// states: walk the whole fleet, give every table key the state key of
// the first device under it, then keep the keys that have a table.
func fullScanSuccessors(c *Controller, obs fl.Observation) map[string]string {
	ref := make(map[string]string)
	for _, d := range obs.Fleet {
		key := c.tableKey(c.tableIndex(d))
		if _, ok := ref[key]; !ok {
			k := deviceStateBytes(archBands(obs.Workload), obs.States[d.ID])
			ref[key] = string(k[:])
		}
	}
	maps.DeleteFunc(ref, func(key, _ string) bool { return c.localTables[key] == nil })
	return ref
}

// flushPending takes each table's successor from the per-run
// first-device table. Devices whose table key has no table yet must
// not take a successor, even when they come first in the fleet, and a
// table no fleet device maps to keeps its own state: the successors
// must equal a full scan's.
func TestSuccessorScanMatchesFullScan(t *testing.T) {
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(40))
	// The last category in fleet order gets no table; move its devices
	// to the front so the scan meets them first.
	untabled := fleet[len(fleet)-1].Profile.Category
	slices.SortStableFunc(fleet, func(a, b device.Device) int {
		return boolRank(a.Profile.Category != untabled) - boolRank(b.Profile.Category != untabled)
	})
	states := make([]fl.DeviceState, len(fleet))
	for i := range states {
		states[i] = fl.DeviceState{
			Interference:  device.Interference{CPUUsage: float64(i%4) / 4, MemUsage: float64(i%3) / 3},
			Network:       netsim.Condition{BandwidthMbps: float64(10 + 17*(i%5))},
			ClassFraction: float64(10 * (i % 10)),
		}
	}
	obs := fl.Observation{Workload: w, Fleet: fleet, States: states}

	for _, perDevice := range []bool{false, true} {
		t.Run(fmt.Sprintf("perDevice=%v", perDevice), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PerDeviceTables = perDevice
			// A restored table under a key no device maps to.
			c := FromSnapshot(cfg, Snapshot{LocalTables: map[string]rl.TableSnapshot{"foreign": {}}})
			c.planFor(w)
			for i, d := range fleet {
				// Shared tables: every category but the first one in the
				// fleet. Per-device tables: every device after the first
				// eight.
				if perDevice && i < 8 || !perDevice && d.Profile.Category == untabled {
					continue
				}
				c.tableFor(d, w)
			}
			if c.localTables[c.tableKey(c.tableIndex(fleet[0]))] != nil {
				t.Fatal("the fleet's first device must have no table")
			}
			want := fullScanSuccessors(c, obs)
			if len(want) != len(c.localTables)-1 {
				t.Fatalf("reference gives %d successors for %d device tables", len(want), len(c.localTables)-1)
			}
			want["foreign"] = "own"
			own := c.deviceStates.Index("own")
			for _, tab := range c.localTables {
				c.pendingLocal = append(c.pendingLocal, pending{table: tab, state: own, reward: 1})
			}
			c.EnableTrace()
			c.trace = append(c.trace, RoundTrace{})
			c.flushPending(obs, 0)
			got := make(map[string]string)
			for _, u := range c.trace[0].Updates {
				got[u.Table] = u.Next
			}
			if !maps.Equal(got, want) {
				t.Errorf("successors %v, full scan %v", got, want)
			}
		})
	}
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}
