package runtime

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fedgpo/internal/fl"
)

func simJob(i int) Job {
	return Job{
		Kind:       "sim",
		Scenario:   fmt.Sprintf("scenario-%d", i),
		Controller: "static/(8,10,20)",
		Seed:       int64(i),
		Run: func() Result {
			return Result{Sim: fl.Result{ControllerOverheadSec: float64(i)}}
		},
	}
}

func TestJobKeyStableAndHashed(t *testing.T) {
	j := simJob(3)
	key := j.Key()
	if key != "v4|sim|scenario-3|static/(8,10,20)|seed=3" {
		t.Errorf("unexpected canonical key %q", key)
	}
	if j.Key() != key {
		t.Error("key not stable across calls")
	}
	j2 := simJob(4)
	if j2.Key() == key || sha256.Sum256([]byte(j2.Key())) == sha256.Sum256([]byte(key)) {
		t.Error("distinct cells must have distinct keys and hashes")
	}
}

func TestRunAllDeterministicOrdering(t *testing.T) {
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = simJob(i)
	}
	serial := NewExecutorBackend(NewPoolBackend(1), nil).RunAll(jobs)
	parallel := NewExecutorBackend(NewPoolBackend(8), nil).RunAll(jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result lengths: %d, %d", len(serial), len(parallel))
	}
	for i := range jobs {
		if serial[i].Sim.ControllerOverheadSec != float64(i) {
			t.Fatalf("serial result %d out of order: value=%v", i, serial[i].Sim.ControllerOverheadSec)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel results differ from serial results")
	}
}

func TestRunAllPanicIsolation(t *testing.T) {
	jobs := []Job{
		simJob(0),
		{Kind: "sim", Scenario: "boom", Seed: 1, Run: func() Result { panic("kaboom") }},
		simJob(2),
	}
	e := NewExecutorBackend(NewPoolBackend(4), nil)
	rs := e.RunAll(jobs)
	if rs[0].Err != "" || rs[2].Err != "" {
		t.Error("healthy jobs should not report errors")
	}
	if !strings.Contains(rs[1].Err, "kaboom") {
		t.Errorf("panic not captured: %q", rs[1].Err)
	}
	if rs[0].Sim.ControllerOverheadSec != 0 || rs[2].Sim.ControllerOverheadSec != 2 {
		t.Error("other jobs' results corrupted by the panic")
	}
	if st := e.Stats(); st.Runs != 3 {
		t.Errorf("stats = %+v, want 3 runs", st)
	}
}

func TestExecutorCacheHitsAndCounts(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 10)
	var executed atomic.Int64
	for i := range jobs {
		j := simJob(i % 5) // 5 distinct cells, each named twice
		inner := j.Run
		j.Run = func() Result { executed.Add(1); return inner() }
		jobs[i] = j
	}
	e := NewExecutorBackend(NewPoolBackend(4), cache)
	first := e.RunAll(jobs)
	// Within one batch a duplicated cell may race its twin, so only the
	// second batch has guaranteed counts.
	e2 := NewExecutorBackend(NewPoolBackend(4), cache)
	second := e2.RunAll(jobs)
	if got := e2.Stats(); got.Runs != 0 || got.Hits != int64(len(jobs)) {
		t.Errorf("warm stats = %+v, want 0 runs / %d hits", got, len(jobs))
	}
	if executed.Load() > 10 {
		t.Errorf("cell bodies executed %d times, want <= 10", executed.Load())
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("result %d not served from cache", i)
		}
		if second[i].Sim.ControllerOverheadSec != first[i].Sim.ControllerOverheadSec || second[i].Key != first[i].Key {
			t.Errorf("cached result %d differs from original", i)
		}
	}
}

func TestCacheDiskRoundTripAndVerification(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Key: "k", Sim: fl.Result{Controller: "c", ControllerOverheadSec: 3.5}}
	if err := c1.Put("some|canonical|key", want); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory must serve the entry.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if !c2.Get("some|canonical|key", &got) {
		t.Fatal("disk entry not found by fresh cache")
	}
	if got.Sim.ControllerOverheadSec != want.Sim.ControllerOverheadSec || got.Sim.Controller != "c" {
		t.Errorf("round trip mutated the payload: %+v", got)
	}
	if c2.Get("some|other|key", &got) {
		t.Error("unknown key should miss")
	}
	// Corrupt the pack: the entry must degrade to a miss, not an error.
	path := ownPack(t, c1)
	if err := os.WriteFile(path, []byte("{not a pack record"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, _ := NewCache(dir)
	if c3.Get("some|canonical|key", &got) {
		t.Error("corrupted entry should miss")
	}
	// An envelope whose key does not match the requested key (a
	// collision or foreign record) must also miss.
	foreign, err := appendBinaryEnvelope(nil, "evil", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, rawRecord(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	c4, _ := NewCache(dir)
	if c4.Get("some|canonical|key", &got) {
		t.Error("key-mismatched envelope should miss")
	}
}

// A corrupt record — a flipped byte on disk, or external tampering —
// must degrade to a cache miss: the executor recomputes the cell,
// appends a new record the index then points at, and later reads get
// clean hits. The run itself must never fail.
func TestCorruptDiskEntryIsDiscardedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	job := Job{
		Kind:     "sim",
		Scenario: "corrupt-test",
		Seed:     7,
		Run: func() Result {
			runs++
			return Result{Sim: fl.Result{ControllerOverheadSec: 42}}
		},
	}
	e := NewExecutorBackend(NewPoolBackend(1), cache)
	if res := e.RunAll([]Job{job})[0]; res.Err != "" || res.Sim.ControllerOverheadSec != 42 {
		t.Fatalf("first run failed: %+v", res)
	}
	if runs != 1 {
		t.Fatalf("job ran %d times, want 1", runs)
	}

	// Flip one payload byte inside the pack record: the key header
	// survives, so the index still points at the record, but its CRC
	// no longer matches.
	path := ownPack(t, cache)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache pack not on disk: %v", err)
	}
	whole[len(whole)-crcLen-1] ^= 0xFF
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}

	res := e.RunAll([]Job{job})[0]
	if res.Err != "" {
		t.Fatalf("corrupt entry must not fail the run: %s", res.Err)
	}
	if res.Cached {
		t.Error("corrupt entry must be a miss, not a hit")
	}
	if runs != 2 {
		t.Fatalf("job should have been recomputed once, ran %d times", runs)
	}
	if res.Sim.ControllerOverheadSec != 42 {
		t.Errorf("recomputed result wrong: %+v", res.Sim)
	}

	// The recompute must have appended a fresh record: a third pass is
	// a hit.
	if res := e.RunAll([]Job{job})[0]; !res.Cached || runs != 2 {
		t.Errorf("repaired entry should serve a hit (cached=%v, runs=%d)", res.Cached, runs)
	}
}

func TestErroredResultsNotCached(t *testing.T) {
	cache, _ := NewCache("")
	job := Job{Kind: "sim", Scenario: "s", Seed: 1, Run: func() Result { panic("once") }}
	e := NewExecutorBackend(NewPoolBackend(1), cache)
	if rs := e.RunAll([]Job{job}); rs[0].Err == "" {
		t.Fatal("expected an error result")
	}
	var dummy Result
	if cache.Get(job.Key(), &dummy) {
		t.Error("errored result must not be cached")
	}
}

func TestProgressCallback(t *testing.T) {
	jobs := make([]Job, 7)
	for i := range jobs {
		jobs[i] = simJob(i)
	}
	e := NewExecutorBackend(NewPoolBackend(4), nil)
	var events []Progress
	e.SetProgress(func(p Progress) { events = append(events, p) })
	e.RunAll(jobs)
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	last := events[len(events)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Errorf("final event = %+v", last)
	}
}

func TestStoreOrderAndFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := NewStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(Result{Key: "b", Sim: fl.Result{ControllerOverheadSec: 2}})
	s.Add(Result{Key: "a", Sim: fl.Result{ControllerOverheadSec: 1}}, Result{Key: "c", Sim: fl.Result{ControllerOverheadSec: 3}})
	s.Add(Result{Key: "b", Sim: fl.Result{ControllerOverheadSec: 9}}) // overwrite keeps position
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs := readLog(t, path)
	if len(rs) != 3 || rs[0].Key != "b" || rs[0].Sim.ControllerOverheadSec != 9 || rs[1].Key != "a" || rs[2].Key != "c" {
		t.Errorf("insertion order broken: %+v", rs)
	}
}

func TestResultExtraRoundTrip(t *testing.T) {
	type payload struct {
		RewardHistory []float64
		MemBytes      int
	}
	var r Result
	r.SetExtra(payload{RewardHistory: []float64{1, -2, 3}, MemBytes: 4096})
	var got payload
	if err := r.GetExtra(&got); err != nil {
		t.Fatal(err)
	}
	if got.MemBytes != 4096 || len(got.RewardHistory) != 3 || got.RewardHistory[1] != -2 {
		t.Errorf("extra round trip mutated payload: %+v", got)
	}
}
