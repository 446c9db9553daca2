package fl

import (
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
)

// memoCapBytes bounds one run memo. Once a memo holds this much, the
// next run starts a fresh one, so a long-lived worker that simulates
// an endless stream of distinct scenarios cannot grow without bound.
// Runs still holding the old memo keep it (and their traces) until
// they finish.
const memoCapBytes = 64 << 20

// runMemo is the process's store of run-invariant state: environment
// traces, fleets and partitions, each built once and then shared
// read-only by every run that needs it. Nothing holds a memo strongly
// except the arenas that use it (and the pool that parks them), so
// it becomes unreachable when they do; the package reaches the
// current memo only through a weak pointer.
type runMemo struct {
	// bytes approximates the memo's heap footprint; whatever grows the
	// memo adds to it, and currentMemo compares it with the cap.
	bytes atomic.Int64

	mu     sync.Mutex
	traces map[envKey]*envTrace
	fleets map[device.FleetComposition][]device.Device
	parts  map[PartitionKey]*sharedPartition
}

// sharedPartition builds its partition once, outside the memo lock.
type sharedPartition struct {
	once sync.Once
	p    data.Partition
}

// current is the weak handle to the memo new runs join.
var current struct {
	mu sync.Mutex
	p  weak.Pointer[runMemo]
}

// currentMemo returns the memo new runs join, starting a fresh one
// when the last has been collected or holds capBytes or more.
func currentMemo(capBytes int64) *runMemo {
	current.mu.Lock()
	defer current.mu.Unlock()
	m := current.p.Value()
	if m == nil || m.bytes.Load() >= capBytes {
		m = &runMemo{
			traces: make(map[envKey]*envTrace),
			fleets: make(map[device.FleetComposition][]device.Device),
			parts:  make(map[PartitionKey]*sharedPartition),
		}
		current.p = weak.Make(m)
	}
	return m
}

// trace returns the memo's environment trace for key, creating it.
func (m *runMemo) trace(key envKey) *envTrace {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.traces[key]
	if t == nil {
		t = newEnvTrace(key, &m.bytes)
		m.traces[key] = t
	}
	return t
}

// SharedFleet returns the process's fleet for comp: device.NewFleet's
// devices, built once and shared by every caller until the run memo
// is collected or renewed. The slice is read-only.
func SharedFleet(comp device.FleetComposition) []device.Device {
	m := currentMemo(memoCapBytes)
	m.mu.Lock()
	defer m.mu.Unlock()
	fleet, ok := m.fleets[comp]
	if !ok {
		fleet = device.NewFleet(comp)
		m.fleets[comp] = fleet
		m.bytes.Add(int64(len(fleet)) * int64(unsafe.Sizeof(device.Device{})))
	}
	return fleet
}

// PartitionKey identifies one shared partition: the caller's canonical
// description of the distribution plus the dimensions it is built at.
type PartitionKey struct {
	Spec                               string
	Devices, Classes, SamplesPerDevice int
}

// SharedPartition returns the process's partition for key, calling
// build the first time key is asked for; later callers (concurrent
// ones included) share its result until the run memo is collected or
// renewed. build must be a pure function of key. The partition is
// read-only and carries its per-device signals (data.WithSignals),
// computed once here, so no run on it recomputes them.
func SharedPartition(key PartitionKey, build func() data.Partition) data.Partition {
	m := currentMemo(memoCapBytes)
	m.mu.Lock()
	sp := m.parts[key]
	if sp == nil {
		sp = &sharedPartition{}
		m.parts[key] = sp
	}
	m.mu.Unlock()
	sp.once.Do(func() {
		sp.p = data.WithSignals(build())
		// An upper bound for the rows: IID rows alias one ring.
		m.bytes.Add(int64(key.Devices)*int64(24+8*key.Classes) + sp.p.SignalBytes())
	})
	return sp.p
}
