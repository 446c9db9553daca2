package runtime

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedgpo/internal/fl"
)

func streamResult(key string, ppw float64) Result {
	return Result{Key: key, Sim: fl.Result{PPW: ppw}}
}

// A store switched to streaming mode must flush already-held results,
// append every later Add as one JSONL line, retain nothing in memory,
// and read back exactly what an in-memory store would have produced:
// ReadStore compacts the log, the last occurrence of a repeated key
// shadowing the earlier lines in the key's original position.
func TestStoreStreamingRoundTripAndCompact(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "results.jsonl")

	st := NewStore()
	st.Add(streamResult("a", 1), streamResult("b", 2))
	if err := st.StreamTo(log); err != nil {
		t.Fatal(err)
	}
	st.Add(streamResult("c", 3))
	st.Add(streamResult("b", 20)) // shadows the flushed line on read
	if got := st.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 distinct keys", got)
	}
	if _, ok := st.Get("a"); ok {
		t.Error("Get reported a hit in streaming mode; payloads live on disk")
	}
	if rs := st.Results(); len(rs) != 0 {
		t.Errorf("Results returned %d entries in streaming mode, want 0", len(rs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The log is JSON Lines: one object per line, four lines (the
	// repeated key appended, not rewritten).
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 4 {
		t.Errorf("streamed log has %d lines, want 4 (duplicates append)", lines)
	}

	back, err := ReadStore(log)
	if err != nil {
		t.Fatal(err)
	}
	want := NewStore()
	want.Add(streamResult("a", 1), streamResult("b", 2), streamResult("c", 3), streamResult("b", 20))
	assertStoreEqual(t, back, want, "streamed log")
}

func assertStoreEqual(t *testing.T, got, want *Store, label string) {
	t.Helper()
	gr, wr := got.Results(), want.Results()
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d results, want %d", label, len(gr), len(wr))
	}
	for i := range wr {
		if gr[i].Key != wr[i].Key || gr[i].Sim.PPW != wr[i].Sim.PPW {
			t.Errorf("%s: result %d = %+v, want %+v", label, i, gr[i], wr[i])
		}
	}
}

// An empty streamed log reads back as an empty store, and a second
// StreamTo on an already-streaming store is an error rather than a
// silent file swap.
func TestStoreStreamingEdgeCases(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "empty.jsonl")
	st := NewStore()
	if err := st.StreamTo(log); err != nil {
		t.Fatal(err)
	}
	if err := st.StreamTo(filepath.Join(dir, "other.jsonl")); err == nil {
		t.Error("second StreamTo succeeded; want an already-streaming error")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(log)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("empty log read back %d results", back.Len())
	}
	// Close is idempotent and a no-op for in-memory stores.
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := NewStore().Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
}

// GetHashed/PutHashed with a precomputed digest must be exactly
// equivalent to Get/Put — same entries, same on-disk files — in both
// storage modes; that equivalence is what lets the executor hash each
// canonical key once per batch.
func TestCacheHashedAccessorsEquivalent(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		mode := "memory"
		if dir != "" {
			mode = "disk"
		}
		c, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		key := "v3|hashed|equivalence"
		hash := HashKey(key)
		if err := c.PutHashed(key, hash, streamResult(key, 7)); err != nil {
			t.Fatalf("%s: PutHashed: %v", mode, err)
		}
		var viaGet, viaHashed Result
		if !c.Get(key, &viaGet) {
			t.Fatalf("%s: Get missed an entry written by PutHashed", mode)
		}
		if !c.GetHashed(key, hash, &viaHashed) {
			t.Fatalf("%s: GetHashed missed an entry written by PutHashed", mode)
		}
		if viaGet.Sim.PPW != 7 || viaHashed.Sim.PPW != 7 {
			t.Errorf("%s: payloads = %v / %v, want 7", mode, viaGet.Sim.PPW, viaHashed.Sim.PPW)
		}
		// And the reverse direction: Put, read via GetHashed.
		key2 := "v3|hashed|reverse"
		if err := c.Put(key2, streamResult(key2, 9)); err != nil {
			t.Fatal(err)
		}
		var r2 Result
		if !c.GetHashed(key2, HashKey(key2), &r2) || r2.Sim.PPW != 9 {
			t.Errorf("%s: GetHashed after Put = (%+v), want PPW 9", mode, r2)
		}
	}
}
