package core

import (
	"bytes"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/netsim"
	"fedgpo/internal/workload"
)

func TestConvBandTable1(t *testing.T) {
	cases := []struct {
		n    int
		want byte
	}{{0, 'n'}, {1, 's'}, {9, 's'}, {10, 'm'}, {19, 'm'}, {20, 'l'}, {29, 'l'}, {30, 'x'}, {50, 'x'}}
	for _, c := range cases {
		if got := ConvBand(c.n); got != c.want {
			t.Errorf("ConvBand(%d) = %c, want %c", c.n, got, c.want)
		}
	}
}

func TestFCAndRCBands(t *testing.T) {
	if FCBand(9) != 's' || FCBand(10) != 'l' {
		t.Error("FC band thresholds wrong")
	}
	if RCBand(0) != 'n' || RCBand(4) != 's' || RCBand(5) != 'm' || RCBand(9) != 'm' || RCBand(10) != 'l' {
		t.Error("RC band thresholds wrong")
	}
}

func TestUsageBandTable1(t *testing.T) {
	cases := []struct {
		frac float64
		want byte
	}{{0, 'n'}, {0.01, 's'}, {0.24, 's'}, {0.25, 'm'}, {0.74, 'm'}, {0.75, 'l'}, {1.0, 'l'}}
	for _, c := range cases {
		if got := UsageBand(c.frac); got != c.want {
			t.Errorf("UsageBand(%v) = %c, want %c", c.frac, got, c.want)
		}
	}
}

func TestNetworkAndDataBands(t *testing.T) {
	if NetworkBand(true) != 'r' || NetworkBand(false) != 'b' {
		t.Error("network band wrong")
	}
	if DataBand(10) != 's' || DataBand(24.9) != 's' || DataBand(25) != 'm' ||
		DataBand(99.9) != 'm' || DataBand(100) != 'l' {
		t.Error("data band thresholds wrong")
	}
}

func TestArchKeysDistinguishWorkloads(t *testing.T) {
	keys := map[[3]byte]string{}
	for _, w := range workload.All() {
		k := archBands(&w)
		if prev, dup := keys[k]; dup {
			t.Errorf("workloads %s and %s share arch key %q", prev, w.Name, k)
		}
		keys[k] = w.Name
	}
}

func TestDeviceStateKeyReflectsAllSignals(t *testing.T) {
	w := workload.CNNMNIST()
	base := fl.DeviceState{
		Network:       netsim.Condition{BandwidthMbps: 80},
		ClassFraction: 100,
	}
	k0 := deviceStateBytes(archBands(&w), base)

	st := base
	st.Interference = device.Interference{CPUUsage: 0.5}
	if deviceStateBytes(archBands(&w), st) == k0 {
		t.Error("CPU interference should change the state key")
	}
	st = base
	st.Interference = device.Interference{MemUsage: 0.5}
	if deviceStateBytes(archBands(&w), st) == k0 {
		t.Error("memory interference should change the state key")
	}
	st = base
	st.Network = netsim.Condition{BandwidthMbps: 10}
	if deviceStateBytes(archBands(&w), st) == k0 {
		t.Error("bad network should change the state key")
	}
	st = base
	st.ClassFraction = 10
	if deviceStateBytes(archBands(&w), st) == k0 {
		t.Error("data composition should change the state key")
	}
	// Bands, not raw values: two conditions in the same band collide.
	a, b := base, base
	a.Interference = device.Interference{CPUUsage: 0.30}
	b.Interference = device.Interference{CPUUsage: 0.60}
	if deviceStateBytes(archBands(&w), a) != deviceStateBytes(archBands(&w), b) {
		t.Error("same-band conditions should share a key (discretization)")
	}
}

// globalKeyOf is the global state key of a round with the given
// states, its Observation counts taken by a scan over them.
func globalKeyOf(w workload.Workload, states []fl.DeviceState) globalKey {
	obs := fl.Observation{Fleet: make([]device.Device, len(states))}
	classPct := 0.0
	for _, st := range states {
		if st.Interference.CPUUsage > 0 || st.Interference.MemUsage > 0 {
			obs.Interfered++
		}
		if !st.Network.Regular() {
			obs.BadLinks++
		}
		classPct += st.ClassFraction
	}
	if len(states) > 0 {
		obs.MeanClassFraction = classPct / float64(len(states))
	}
	intf, bad, class := globalSignals(&obs)
	return globalStateBytes(archBands(&w), intf, bad, class)
}

func TestGlobalStateKeyAggregates(t *testing.T) {
	w := workload.CNNMNIST()
	clean := make([]fl.DeviceState, 10)
	for i := range clean {
		clean[i] = fl.DeviceState{
			Network:       netsim.Condition{BandwidthMbps: 80},
			ClassFraction: 100,
		}
	}
	k0 := globalKeyOf(w, clean)

	half := append([]fl.DeviceState(nil), clean...)
	for i := 0; i < 5; i++ {
		half[i].Interference = device.Interference{CPUUsage: 0.5}
	}
	if globalKeyOf(w, half) == k0 {
		t.Error("fleet-wide interference should change the global key")
	}

	badNet := append([]fl.DeviceState(nil), clean...)
	for i := 0; i < 5; i++ {
		badNet[i].Network = netsim.Condition{BandwidthMbps: 10}
	}
	if globalKeyOf(w, badNet) == k0 {
		t.Error("fleet-wide bad network should change the global key")
	}

	if k := globalKeyOf(w, nil); bytes.IndexByte(k[:], 0) >= 0 {
		t.Errorf("empty fleet should still produce a full key, got %q", k[:])
	}
}

// The band-code caches are only sound if two states share a code
// exactly when they share a key: codes and keys must partition every
// combination of band levels the same way.
func TestBandCodesMatchKeys(t *testing.T) {
	w := workload.CNNMNIST()
	arch := archBands(&w)
	usage := []float64{0, 0.1, 0.5, 0.9}
	codeKey := map[int]deviceKey{}
	keyCode := map[deviceKey]int{}
	for _, cpu := range usage {
		for _, mem := range usage {
			for _, bw := range []float64{10, 80} {
				for _, class := range []float64{10, 50, 100} {
					st := fl.DeviceState{
						Interference:  device.Interference{CPUUsage: cpu, MemUsage: mem},
						Network:       netsim.Condition{BandwidthMbps: bw},
						ClassFraction: class,
					}
					code, key := deviceCode(&st), deviceStateBytes(arch, st)
					if code < 0 || code >= deviceCodes {
						t.Fatalf("device code %d outside [0, %d)", code, deviceCodes)
					}
					codeKey[code], keyCode[key] = key, code
				}
			}
		}
	}
	if len(codeKey) != deviceCodes || len(keyCode) != deviceCodes {
		t.Errorf("%d device codes and %d keys for %d band combinations", len(codeKey), len(keyCode), deviceCodes)
	}
	globalKeys, globalSeen := map[globalKey]int{}, map[int]bool{}
	for _, intf := range usage {
		for _, bad := range usage {
			for _, class := range []float64{10, 50, 100} {
				code := globalCode(intf, bad, class)
				if code < 0 || code >= globalCodes {
					t.Fatalf("global code %d outside [0, %d)", code, globalCodes)
				}
				key := globalStateBytes(arch, intf, bad, class)
				if c, ok := globalKeys[key]; ok && c != code {
					t.Fatalf("global key %q has codes %d and %d", key[:], c, code)
				}
				globalKeys[key], globalSeen[code] = code, true
			}
		}
	}
	if len(globalKeys) != globalCodes || len(globalSeen) != globalCodes {
		t.Errorf("%d global codes and %d keys for %d band combinations", len(globalSeen), len(globalKeys), globalCodes)
	}
}
