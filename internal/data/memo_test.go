package data

import (
	"math"
	"sync"
	"testing"

	"fedgpo/internal/stats"
)

// TestMemoMatchesPartition is the memo's contract: every query must be
// bit-identical to the Partition method it shadows, for IID and
// Dirichlet partitions, across Reset reuse, and whether the memo
// computes the signals itself or reads ones the partition carries
// (WithSignals).
func TestMemoMatchesPartition(t *testing.T) {
	for _, shared := range []bool{false, true} {
		t.Run(map[bool]string{false: "unshared", true: "shared"}[shared], func(t *testing.T) {
			testMemoMatchesPartition(t, shared)
		})
	}
}

func testMemoMatchesPartition(t *testing.T, shared bool) {
	rng := stats.NewRNG(11)
	parts := map[string]Partition{
		"iid":       IID(40, 10, 300),
		"dirichlet": Dirichlet(40, 10, 300, PaperAlpha, rng),
		"smaller":   Dirichlet(15, 4, 60, 0.5, rng),
		// Class counts past one and several 64-bit words, with sparse
		// Dirichlet draws leaving most classes absent per device, for the
		// coverage bitsets (MobileNet-ImageNet has 1000 classes).
		"wide":     Dirichlet(30, 130, 200, PaperAlpha, rng),
		"imagenet": Dirichlet(12, 1000, 400, PaperAlpha, rng),
	}
	var m Memo
	// Reset the same memo across partitions of different sizes: reuse
	// must not leak one partition's signals into the next.
	for _, name := range []string{"iid", "dirichlet", "imagenet", "smaller", "wide", "iid"} {
		p := parts[name]
		if shared {
			p = WithSignals(p)
		}
		m.Reset(p)
		n := p.NumDevices()
		for d := 0; d < n; d++ {
			if got, want := m.DeviceSamples(d), p.DeviceSamples(d); got != want {
				t.Fatalf("%s: DeviceSamples(%d) = %d, want %d", name, d, got, want)
			}
			if got, want := m.NonIIDDegree(d), p.NonIIDDegree(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: NonIIDDegree(%d) = %v, want %v", name, d, got, want)
			}
			if got, want := m.DeviceClassCount(d), p.DeviceClassCount(d); got != want {
				t.Fatalf("%s: DeviceClassCount(%d) = %d, want %d", name, d, got, want)
			}
			if got, want := m.DeviceClassFraction(d), p.DeviceClassFraction(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: DeviceClassFraction(%d) = %v, want %v", name, d, got, want)
			}
		}
		all := make([]int, n)
		for d := range all {
			all[d] = d
		}
		sets := [][]int{
			nil,
			{0},
			{0, 1, 2},
			{n - 1, n - 2, 0},
			{3, 3, n - 1},
			all,
		}
		for _, devs := range sets {
			if got, want := m.ParticipantSkew(devs), p.ParticipantSkew(devs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ParticipantSkew(%v) = %v, want %v", name, devs, got, want)
			}
			if got, want := m.ParticipantCoverage(devs), p.ParticipantCoverage(devs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ParticipantCoverage(%v) = %v, want %v", name, devs, got, want)
			}
		}
	}
}

// TestMemoSharesPartitionSignals: memos reset to copies of one
// partition from WithSignals all read its signals: none computes them
// again or, once its coverage scratch is sized, allocates. The same
// memo moved to an unshared partition computes that one's signals.
func TestMemoSharesPartitionSignals(t *testing.T) {
	p := WithSignals(Dirichlet(25, 130, 200, PaperAlpha, stats.NewRNG(4)))
	if p.SignalBytes() <= 0 {
		t.Fatal("a partition from WithSignals reports no signal bytes")
	}
	if got := Dirichlet(25, 130, 200, PaperAlpha, stats.NewRNG(4)).SignalBytes(); got != 0 {
		t.Errorf("a partition without signals reports %d signal bytes", got)
	}
	copies := []Partition{p, p, p}
	var memos [3]Memo
	for i := range memos {
		memos[i].Reset(copies[i])
		if memos[i].sig != p.signals {
			t.Fatalf("memo %d computed its own signals for a shared partition", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { memos[1].Reset(p) }); allocs != 0 {
		t.Errorf("Reset on a shared partition allocates %.1f objects, want 0", allocs)
	}
	// The same memo then moves to an unshared partition and back.
	q := IID(25, 130, 200)
	memos[0].Reset(q)
	if memos[0].sig == p.signals || memos[0].DeviceSamples(3) != q.DeviceSamples(3) {
		t.Fatal("an unshared partition must get signals of its own")
	}
	memos[0].Reset(p)
	if memos[0].sig != p.signals {
		t.Fatal("Reset back to the shared partition kept the unshared signals")
	}
}

// TestSharedSignalsConcurrentMemos: memos on several goroutines read
// one partition's shared signals at once (the race detector checks
// they are only read), each answering as the Partition does.
func TestSharedSignalsConcurrentMemos(t *testing.T) {
	p := WithSignals(Dirichlet(40, 10, 300, PaperAlpha, stats.NewRNG(8)))
	all := make([]int, p.NumDevices())
	for d := range all {
		all[d] = d
	}
	wantSkew, wantCov := p.ParticipantSkew(all), p.ParticipantCoverage(all)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m Memo
			for i := 0; i < 50; i++ {
				m.Reset(p)
				if math.Float64bits(m.ParticipantSkew(all)) != math.Float64bits(wantSkew) ||
					math.Float64bits(m.ParticipantCoverage(all)) != math.Float64bits(wantCov) {
					errs <- "a memo on the shared signals disagrees with the partition"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
