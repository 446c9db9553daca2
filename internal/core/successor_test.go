package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

// fullScanSuccessors is the reference for flushPending's successor
// scan: walk the whole fleet, give every table key the state of the
// first device under it, then keep the keys that have a table.
func fullScanSuccessors(c *Controller, obs fl.Observation) map[string]string {
	ref := make(map[string]string)
	for _, d := range obs.Fleet {
		key := c.tableKeyFor(d)
		if _, ok := ref[key]; !ok {
			ref[key] = c.deviceStateKey(obs.States[d.ID])
		}
	}
	maps.DeleteFunc(ref, func(key, _ string) bool { return c.table(key) == nil })
	return ref
}

// flushPending stops walking the fleet once every existing Q-table has
// its successor state. Devices whose table key has no table yet must
// neither stop the walk early nor take a successor, even when they
// come first in the fleet: the successors must equal a full scan's.
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
			c := New(cfg)
			c.planWorkload = w
			for i, d := range fleet {
				// Shared tables: every category but the first one in the
				// fleet. Per-device tables: every device after the first
				// eight.
				if perDevice && i < 8 || !perDevice && d.Profile.Category == untabled {
					continue
				}
				c.tableFor(d, w)
			}
			if c.table(c.tableKeyFor(fleet[0])) != nil {
				t.Fatal("the fleet's first device must have no table")
			}
			want := fullScanSuccessors(c, obs)
			if len(want) != len(c.localTables) {
				t.Fatalf("reference gives %d successors for %d tables", len(want), len(c.localTables))
			}
			for key := range c.localTables {
				c.pendingLocal = append(c.pendingLocal, pending{tableKey: key, state: "s", reward: 1})
			}
			c.flushPending(obs, "g")
			if !maps.Equal(c.succ, want) {
				t.Errorf("successors %v, full scan %v", c.succ, want)
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
