package exp

import (
	"fmt"
	"math"
	"reflect"
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

// A spec's -0 floats key as +0, whichever twin is keyed first, so key
// equality agrees with Go's ==, which cannot tell them apart: a fixed
// deadline of -0 (printed in the key) and a CNN-MNIST workload whose
// InitialAccuracy is -0 (hashed into the workload digest) each key as
// their +0 twin, fresh or memoized. No registry or benchmark spec holds
// a -0, so folding it moves none of their keys.
func TestScenarioKeyFoldsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	deadline := Ideal(workload.CNNMNIST())
	deadline.Deadline = DeadlineSpec{Kind: DeadlineFixed}
	deadline.MaxRounds = 321 // specs no other test memoizes
	negDeadline := deadline
	negDeadline.Deadline.Seconds = negZero

	accuracy := Ideal(workload.CNNMNIST())
	accuracy.Workload.Learn.InitialAccuracy = 0
	accuracy.MaxRounds = 322
	negAccuracy := accuracy
	negAccuracy.Workload.Learn.InitialAccuracy = negZero

	for _, twins := range [][2]ScenarioSpec{{deadline, negDeadline}, {accuracy, negAccuracy}} {
		pos, neg := twins[0], twins[1]
		want := pos.buildCacheKey()
		if got := neg.buildCacheKey(); got != want {
			t.Errorf("fresh -0 key %q, +0 key %q", got, want)
		}
		for _, order := range [][]ScenarioSpec{{neg, pos}, {pos, neg}} {
			resetKeyMemos()
			for _, s := range order {
				if got := s.cacheKey(); got != want {
					t.Errorf("memoized key %q, want the +0 twin's %q", got, want)
				}
			}
		}
	}
	if strings.Contains(negDeadline.cacheKey(), "-0") {
		t.Errorf("a -0 deadline prints its sign: %q", negDeadline.cacheKey())
	}
	for _, s := range keyMemoSpecs(t) {
		if path, ok := negativeZeroAt(reflect.ValueOf(s), "spec"); ok {
			t.Errorf("%s holds -0 at %s", s.Name, path)
		}
	}
}

// resetKeyMemos empties the scenario and workload key memos.
func resetKeyMemos() {
	for _, m := range []*sync.Mutex{&scenarioKeys.mu, &workloadKeys.mu} {
		m.Lock()
		defer m.Unlock()
	}
	clear(scenarioKeys.m)
	clear(workloadKeys.m)
}

// negativeZeroAt finds a -0 float in v and names its field path.
func negativeZeroAt(v reflect.Value, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return path, v.Float() == 0 && math.Signbit(v.Float())
	case reflect.Struct:
		for i := range v.NumField() {
			if p, ok := negativeZeroAt(v.Field(i), path+"."+v.Type().Field(i).Name); ok {
				return p, true
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			if p, ok := negativeZeroAt(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); ok {
				return p, true
			}
		}
	}
	return "", false
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
