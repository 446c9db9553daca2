package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fedgpo/internal/fl"
)

// Prune must evict whole packs oldest-mtime-first until the directory
// fits the budget, and a hit must touch its pack so recently used cells
// survive over merely recently written ones (LRU, not FIFO). Each
// entry is written through its own Cache, so it lands in its own pack.
func TestCachePruneEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	keys := make([]string, 4)
	var packSize int64
	for i := range keys {
		keys[i] = fmt.Sprintf("prune|cell-%d", i)
		w, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Put(keys[i], Result{Key: keys[i], Sim: fl.Result{ControllerOverheadSec: float64(i)}}); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes well beyond filesystem timestamp granularity,
		// oldest first.
		packSize = agePack(t, ownPack(t, w), time.Duration(i-len(keys))*time.Hour)
	}
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the oldest pack through Get: a hit must refresh its mtime
	// and save it from eviction.
	var got Result
	if !cache.Get(keys[0], &got) {
		t.Fatal("entry 0 should hit before pruning")
	}
	// A temp file of the old one-file-per-entry layout is foreign:
	// neither counted against the budget nor removed.
	orphan := filepath.Join(dir, "put-1234567")
	if err := os.WriteFile(orphan, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Budget for exactly two packs: the just-used keys[0] and the
	// newest-written keys[3] must survive; keys[1] and keys[2] go.
	removed, err := cache.Prune(2 * packSize)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("pruned %d packs, want 2", removed)
	}
	for i, wantAlive := range []bool{true, false, false, true} {
		if alive := cache.Get(keys[i], &got); alive != wantAlive {
			t.Errorf("entry %d alive=%v, want %v", i, alive, wantAlive)
		}
	}
	// Survivors must still round-trip intact.
	if !cache.Get(keys[3], &got) || got.Sim.ControllerOverheadSec != 3 {
		t.Errorf("surviving entry corrupted: %+v", got)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Errorf("Prune touched a foreign put-* file: %v", err)
	}
	if n := len(packFiles(t, dir)); n != 2 {
		t.Errorf("%d packs left, want 2", n)
	}
}

// Prune is a no-op for memory caches and non-positive budgets.
func TestCachePruneNoOps(t *testing.T) {
	mem, _ := NewCache("")
	if n, err := mem.Prune(1); n != 0 || err != nil {
		t.Errorf("memory cache prune = %d, %v", n, err)
	}
	disk, _ := NewCache(t.TempDir())
	disk.Put("k", Result{Key: "k"})
	if n, err := disk.Prune(0); n != 0 || err != nil {
		t.Errorf("zero-budget prune = %d, %v", n, err)
	}
	var got Result
	if !disk.Get("k", &got) {
		t.Error("zero-budget prune must not evict")
	}
}

// Stats must come back as one consistent snapshot — a hammered
// executor's counters always sum to the number of completed jobs.
func TestStatsConsistentSnapshot(t *testing.T) {
	cache, _ := NewCache("")
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = simJob(i % 10)
	}
	e := NewExecutorBackend(NewPoolBackend(8), cache)
	stop := make(chan struct{})
	bad := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			if st.Hits < 0 || st.Runs < 0 || st.Hits+st.Runs > int64(len(jobs)*2) {
				select {
				case bad <- fmt.Sprintf("impossible stats snapshot: %+v", st):
				default:
				}
				return
			}
		}
	}()
	e.RunAll(jobs)
	e.RunAll(jobs)
	close(stop)
	select {
	case msg := <-bad:
		t.Error(msg)
	default:
	}
	st := e.Stats()
	if st.Hits+st.Runs != int64(len(jobs)*2) {
		t.Errorf("final stats %+v do not account for %d jobs", st, len(jobs)*2)
	}
}

// Secondary artifacts — pretrain snapshots, decision traces — live in
// the same packs as job results, addressed by the digest of their
// KeyFor-style keys. A hit on one must touch its pack exactly like a
// job result's, so a recently reused snapshot survives
// -cache-max-bytes eviction over a merely recently written one.
func TestCachePruneTouchesHashedSecondaryArtifacts(t *testing.T) {
	dir := t.TempDir()
	type snap struct {
		Q []float64 `json:"q"`
	}
	keys := make([]string, 4)
	var packSize int64
	for i := range keys {
		keys[i] = KeyFor("pretrain", fmt.Sprintf("scenario-%d", i), "cfg={}", "seed=99")
		w, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Put(keys[i], snap{Q: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
		packSize = agePack(t, ownPack(t, w), time.Duration(i-len(keys))*time.Hour)
	}
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the oldest snapshot: the hit must refresh its pack's mtime.
	var got snap
	if !cache.Get(keys[0], &got) || len(got.Q) != 1 || got.Q[0] != 0 {
		t.Fatalf("oldest artifact should hit intact before pruning, got %+v", got)
	}
	removed, err := cache.Prune(2 * packSize)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("pruned %d packs, want 2", removed)
	}
	for i, wantAlive := range []bool{true, false, false, true} {
		if alive := cache.Get(keys[i], &got); alive != wantAlive {
			t.Errorf("artifact %d alive=%v, want %v", i, alive, wantAlive)
		}
	}
	if got = (snap{}); !cache.Get(keys[0], &got) || got.Q[0] != 0 {
		t.Errorf("touched artifact corrupted: %+v", got)
	}
}
