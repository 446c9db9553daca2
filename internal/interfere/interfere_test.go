package interfere

import (
	"testing"

	"fedgpo/internal/stats"
)

func TestNoneNeverInterferes(t *testing.T) {
	m := None()
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if got := m.Sample(rng); got.CPUUsage != 0 || got.MemUsage != 0 {
			t.Fatalf("None produced interference %+v", got)
		}
	}
	if m.Active() {
		t.Error("None should not be active")
	}
}

func TestPaperModelActivatesRoughlyHalf(t *testing.T) {
	m := Paper()
	if !m.Active() {
		t.Fatal("paper model should be active")
	}
	rng := stats.NewRNG(2)
	active := 0
	n := 10000
	for i := 0; i < n; i++ {
		if s := m.Sample(rng); s.CPUUsage > 0 || s.MemUsage > 0 {
			active++
		}
	}
	frac := float64(active) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("active fraction = %v, want ~0.5", frac)
	}
}

func TestSampleBoundsUsage(t *testing.T) {
	m := Model{Profile: HeavyGame(), ActiveFraction: 1}
	rng := stats.NewRNG(3)
	for i := 0; i < 5000; i++ {
		s := m.Sample(rng)
		if s.CPUUsage < 0 || s.CPUUsage > 1 || s.MemUsage < 0 || s.MemUsage > 1 {
			t.Fatalf("usage out of [0,1]: %+v", s)
		}
	}
}

func TestWebBrowsingLighterThanHeavyGame(t *testing.T) {
	wb, hg := WebBrowsing(), HeavyGame()
	if wb.MeanCPU >= hg.MeanCPU || wb.MeanMem >= hg.MeanMem {
		t.Error("web browsing should be a lighter co-runner than a heavy game")
	}
}
