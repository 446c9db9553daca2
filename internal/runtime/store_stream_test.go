package runtime

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedgpo/internal/fl"
)

func streamResult(key string, v float64) Result {
	return Result{Key: key, Sim: fl.Result{ControllerOverheadSec: v}}
}

// readLog loads a store's JSON Lines log the way a consumer compacts
// it: one result per key in first-seen order, the last line of a
// repeated key winning.
func readLog(t *testing.T, path string) []Result {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Result
	pos := map[string]int{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r Result
		if err := dec.Decode(&r); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		if i, ok := pos[r.Key]; ok {
			out[i] = r
			continue
		}
		pos[r.Key] = len(out)
		out = append(out, r)
	}
}

func assertResults(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Sim.ControllerOverheadSec != want[i].Sim.ControllerOverheadSec {
			t.Errorf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// Every Add appends one JSONL line and Len counts distinct keys; a
// repeated key is appended, not rewritten, so the log compacts to the
// last occurrence in the key's original position.
func TestStoreStreamingRoundTripAndCompact(t *testing.T) {
	log := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	st.Add(streamResult("a", 1), streamResult("b", 2))
	st.Add(streamResult("c", 3))
	st.Add(streamResult("b", 20))
	if got := st.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 distinct keys", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 4 {
		t.Errorf("streamed log has %d lines, want 4 (duplicates append)", lines)
	}
	assertResults(t, readLog(t, log),
		[]Result{streamResult("a", 1), streamResult("b", 20), streamResult("c", 3)}, "streamed log")
}

// An empty log reads back empty, an uncreatable path is an error at
// NewStore, and Close is idempotent with Len still counting after it.
func TestStoreStreamingEdgeCases(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "empty.jsonl")
	st, err := NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(filepath.Join(dir, "missing", "x.jsonl")); err == nil {
		t.Error("NewStore in a missing directory succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if rs := readLog(t, log); len(rs) != 0 {
		t.Errorf("empty log read back %d results", len(rs))
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	st.Add(streamResult("late", 1))
	if st.Len() != 1 {
		t.Errorf("Len after Close = %d, want 1", st.Len())
	}
	if rs := readLog(t, log); len(rs) != 0 {
		t.Errorf("an Add after Close reached the log: %+v", rs)
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
		if viaGet.Sim.ControllerOverheadSec != 7 || viaHashed.Sim.ControllerOverheadSec != 7 {
			t.Errorf("%s: payloads = %v / %v, want 7", mode, viaGet.Sim.ControllerOverheadSec, viaHashed.Sim.ControllerOverheadSec)
		}
		// And the reverse direction: Put, read via GetHashed.
		key2 := "v3|hashed|reverse"
		if err := c.Put(key2, streamResult(key2, 9)); err != nil {
			t.Fatal(err)
		}
		var r2 Result
		if !c.GetHashed(key2, HashKey(key2), &r2) || r2.Sim.ControllerOverheadSec != 9 {
			t.Errorf("%s: GetHashed after Put = (%+v), want value 9", mode, r2)
		}
	}
}
