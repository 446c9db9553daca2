package exp

import (
	"math"
	"strings"
	"sync"
	"testing"

	"fedgpo/internal/workload"
)

// benchSweepMatrix is the 216-scenario matrix the benchmark's
// sweep-matrix workload runs (bench/workloads.go).
const benchSweepMatrix = "fleet=50,100,200;alpha=iid,0.1,0.5;net=stable,unstable;intf=none,web-browsing,heavy-game@0.3;deadline=none,auto;rounds=100,300"

// keyMemoSpecs returns every preset for every workload at paper,
// Quick and Tiny scale, and the benchmark's sweep matrix.
func keyMemoSpecs(t *testing.T) []ScenarioSpec {
	t.Helper()
	var specs []ScenarioSpec
	for _, w := range workload.All() {
		for _, p := range Presets() {
			for _, o := range []Options{Default(), Quick(), Tiny()} {
				specs = append(specs, o.apply(p.Build(w)))
			}
		}
	}
	matrix, err := ScenarioMatrix(workload.CNNMNIST(), benchSweepMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != 216 {
		t.Fatalf("sweep matrix has %d scenarios, want 216", len(matrix))
	}
	return append(specs, matrix...)
}

func scenarioMemoLen() int {
	scenarioKeys.mu.Lock()
	defer scenarioKeys.mu.Unlock()
	return len(scenarioKeys.m)
}

// A memoized scenario key is byte-identical to the one built from
// scratch, on its first (miss) and second (hit) lookup, for every spec
// a report or the benchmark's sweep builds.
func TestScenarioKeyMemoMatchesUnmemoizedKeys(t *testing.T) {
	for _, s := range keyMemoSpecs(t) {
		want := s.buildCacheKey()
		for i := 0; i < 2; i++ {
			if got := s.cacheKey(); got != want {
				t.Fatalf("%s lookup %d:\n got %q\nwant %q", s.Name, i, got, want)
			}
		}
	}
}

// Name is display only: two specs that differ only in Name share one
// key and one memo entry.
func TestScenarioKeyMemoIgnoresName(t *testing.T) {
	a := Realistic(workload.CNNMNIST())
	a.MaxRounds = 123 // a spec no other test memoizes
	b := a
	a.Name, b.Name = "first", "second"
	before := scenarioMemoLen()
	if ka, kb := a.cacheKey(), b.cacheKey(); ka != kb {
		t.Errorf("Name changed the key:\n%q\n%q", ka, kb)
	}
	if after := scenarioMemoLen(); after != before+1 && after != 1 {
		t.Errorf("memo grew from %d to %d entries for one spec under two names", before, after)
	}
}

// The memo restarts past maxMemoKeys, so 1,000 distinct specs leave at
// most that many entries, and every key stays right across restarts.
func TestScenarioKeyMemoIsBounded(t *testing.T) {
	s := Ideal(workload.CNNMNIST())
	for r := 1; r <= 1000; r++ {
		s.MaxRounds = r
		if got, want := s.cacheKey(), s.buildCacheKey(); got != want {
			t.Fatalf("rounds=%d: got %q, want %q", r, got, want)
		}
	}
	if n := scenarioMemoLen(); n > maxMemoKeys {
		t.Errorf("memo holds %d entries after 1000 specs, want at most %d", n, maxMemoKeys)
	}
}

// A map key cannot tell -0 from 0, but a fixed deadline prints its
// sign: whichever of the two is asked for first, each keeps its own
// key.
func TestScenarioKeyMemoKeepsDeadlineSign(t *testing.T) {
	pos := Ideal(workload.CNNMNIST())
	pos.Deadline = DeadlineSpec{Kind: DeadlineFixed}
	neg := pos
	neg.Deadline.Seconds = math.Copysign(0, -1)
	for _, order := range [][]ScenarioSpec{{pos, neg}, {neg, pos}} {
		for _, s := range order {
			if got, want := s.cacheKey(), s.buildCacheKey(); got != want {
				t.Errorf("deadline %g: got %q, want %q", s.Deadline.Seconds, got, want)
			}
		}
	}
	if !strings.Contains(neg.cacheKey(), "/deadline=-0/") {
		t.Errorf("negative-zero deadline key lost its sign: %q", neg.cacheKey())
	}
}

// Concurrent callers, across memo restarts, all get the unmemoized
// keys. The race test step runs this under the race detector.
func TestScenarioKeyMemoConcurrent(t *testing.T) {
	specs := keyMemoSpecs(t)
	want := make([]string, len(specs))
	for i, s := range specs {
		want[i] = s.buildCacheKey()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range specs {
				j := (i + g*len(specs)/4) % len(specs)
				if got := specs[j].cacheKey(); got != want[j] {
					t.Errorf("%s: got %q, want %q", specs[j].Name, got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}
