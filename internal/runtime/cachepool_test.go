package runtime

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	goruntime "runtime"
	"testing"
	"unsafe"

	"fedgpo/internal/core"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/rl"
)

// poolResult is a cell result whose every variable-length field —
// Key, Err, Extra, Controller, EnergyByCategory, History — is filled,
// with content that depends on tag. Results of equal-length tags
// encode to equal-length records with different bytes, so reading one
// into a pooled buffer overwrites every byte another left there.
func poolResult(tag string, rounds int) Result {
	r := Result{
		Key: "pool|" + tag,
		Err: "err-" + tag,
		Sim: fl.Result{
			Controller:            "ctrl-" + tag,
			EnergyByCategory:      map[device.Category]float64{device.High: float64(len(tag)), device.Low: 0.5},
			ControllerOverheadSec: 1.25,
		},
	}
	r.SetExtra(map[string]string{"tag": tag})
	seed := float64(tag[len(tag)-1])
	for i := 0; i < rounds; i++ {
		r.Sim.History = append(r.Sim.History, fl.RoundRecord{
			Round: i + 1, Accuracy: seed / 1000, RoundSeconds: seed + float64(i), EnergyJ: seed * 3,
			MeanB: 8, MeanE: 10, PlannedK: 20, AggregatedK: 19, Dropped: int(seed) % 3,
		})
	}
	return r
}

// poolSnapshot is a pretrain snapshot with string keys at every level
// its decoder copies out of the input.
func poolSnapshot() core.Snapshot {
	return core.Snapshot{
		LocalTables: map[string]rl.TableSnapshot{
			"table-high": {Q: map[string][]float64{"state-one": {1, 2}, "state-two": {3, 4}}, Mask: []bool{true, false}, Epsilon: 0.25},
		},
		KTable:        &rl.TableSnapshot{Q: map[string][]float64{"k-state": {0.5}}, Epsilon: 0.1},
		TableProfiles: map[string]device.Profile{"profile-low": {}},
		LocalNorm:     map[device.Category]core.NormalizerSnapshot{device.Mid: {Value: 2, Init: true, Adds: 3}},
		Deadline:      42,
		FrozenRound:   7,
	}
}

// Every disk read goes through one pooled buffer that the next read
// overwrites, so nothing a Get decodes may alias it: a Result (Key,
// Err, Extra, Sim), a pretrain snapshot, a JSON value and a
// json.RawMessage must all still equal what was Put after other
// records were read through the same pool, and so must a value read
// before a corrupt record or a pack removed under the reader.
func TestPooledRecordsAreNotAliased(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantA := poolResult("aa", 40)
	wantSnap := poolSnapshot()
	wantParams := fl.Params{B: 16, E: 5, K: 30}
	wantRaw := json.RawMessage(`{"trace":"decisions","rounds":[1,2,3]}`)
	fillers := make([]Result, 6)
	for i := range fillers {
		fillers[i] = poolResult(fmt.Sprintf("f%d", i), 40)
	}
	puts := map[string]any{
		wantA.Key: wantA, "pool|snap": wantSnap.AppendBinary(nil),
		"pool|params": wantParams, "pool|raw": wantRaw,
	}
	for _, f := range fillers {
		puts[f.Key] = f
	}
	for k, v := range puts {
		if err := writer.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// readFillers reads every filler through the pool and checks it.
	readFillers := func(c *Cache) {
		t.Helper()
		for _, want := range fillers {
			var got Result
			if !c.Get(want.Key, &got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("filler %s: got %+v", want.Key, got)
			}
		}
	}
	// checkA fails when got no longer equals wantA.
	checkA := func(when string, got Result) {
		t.Helper()
		if got.Key != wantA.Key || got.Err != wantA.Err || string(got.Extra) != string(wantA.Extra) ||
			got.Sim.Controller != wantA.Sim.Controller ||
			!reflect.DeepEqual(got.Sim.EnergyByCategory, wantA.Sim.EnergyByCategory) ||
			!reflect.DeepEqual(got.Sim.History, wantA.Sim.History) {
			t.Errorf("%s: the decoded result changed under later reads:\n got %+v\nwant %+v", when, got, wantA)
		}
	}

	reader, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gotA Result
	var gotSnap core.Snapshot
	var gotParams fl.Params
	var gotRaw json.RawMessage
	for k, v := range map[string]any{wantA.Key: &gotA, "pool|snap": &gotSnap, "pool|params": &gotParams, "pool|raw": &gotRaw} {
		if !reader.Get(k, v) {
			t.Fatalf("%s: miss", k)
		}
	}
	readFillers(reader)
	checkA("after other reads", gotA)
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Errorf("snapshot changed under later reads:\n got %+v\nwant %+v", gotSnap, wantSnap)
	}
	if gotParams != wantParams {
		t.Errorf("params changed under later reads: %+v", gotParams)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Errorf("raw message changed under later reads: %s", gotRaw)
	}

	// A corrupt record: its read fails, its buffer goes back to the
	// pool, and neither an earlier value nor later reads see its bytes.
	path := ownPack(t, writer)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := poolResult("cc", 40)
	rec := packRecord(t, corrupt.Key, corrupt)
	rec[len(rec)-crcLen-1] ^= 0xff
	writePack(t, dir, b, rec)
	damaged, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotA = Result{}
	if !damaged.Get(wantA.Key, &gotA) {
		t.Fatal("miss before the corrupt record")
	}
	var gotCorrupt Result
	if damaged.Get(corrupt.Key, &gotCorrupt) {
		t.Error("corrupt record served")
	}
	readFillers(damaged)
	checkA("after a corrupt read", gotA)

	// A pack removed under the reader (another process's Prune): its
	// reads are misses, and a value read from it before stays intact.
	// damaged reads the copy writePack made.
	gotA = Result{}
	if !reader.Get(wantA.Key, &gotA) {
		t.Fatal("miss before the pack was removed")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, f := range fillers {
		var gone Result
		if reader.Get(f.Key, &gone) {
			t.Errorf("%s: a record of a removed pack was served", f.Key)
		}
	}
	readFillers(damaged)
	checkA("after a removed pack", gotA)
}

// cacheGetFixture writes one 400-round cell result to a disk cache and
// returns a fresh reader that has indexed it, with the key and the
// result.
func cacheGetFixture(tb testing.TB) (*Cache, string, Result) {
	tb.Helper()
	dir := tb.TempDir()
	want := poolResult("bench", 400)
	writer, err := NewCache(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := writer.Put(want.Key, want); err != nil {
		tb.Fatal(err)
	}
	reader, err := NewCache(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var got Result
	if !reader.Get(want.Key, &got) || !reflect.DeepEqual(got, want) {
		tb.Fatalf("first read: %+v", got)
	}
	return reader, want.Key, want
}

// A disk hit allocates what its decoder keeps and not the record it
// reads: less than the record's size plus the decoded History, so a
// per-read envelope buffer shows up here.
func TestCacheGetAllocatesNoRecordBuffer(t *testing.T) {
	c, key, want := cacheGetFixture(t)
	recBytes := len(packRecord(t, key, want))
	bound := uint64(recBytes) + uint64(len(want.Sim.History))*uint64(unsafe.Sizeof(fl.RoundRecord{}))
	const reads = 50
	var got Result
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if !c.Get(key, &got) {
			t.Fatal("miss")
		}
	}
	goruntime.ReadMemStats(&after)
	if perGet := (after.TotalAlloc - before.TotalAlloc) / reads; perGet >= bound {
		t.Errorf("a disk Get allocated %d bytes, want under %d (a %d-byte record plus the History)",
			perGet, bound, recBytes)
	}
}

// BenchmarkCacheGet times one disk hit of a 400-round cell result: an
// open, a read and a close of its pack, the CRC check and the decode.
func BenchmarkCacheGet(b *testing.B) {
	c, key, _ := cacheGetFixture(b)
	var got Result
	b.ReportAllocs()
	for b.Loop() {
		if !c.Get(key, &got) {
			b.Fatal("miss")
		}
	}
}
