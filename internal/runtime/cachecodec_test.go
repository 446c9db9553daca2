package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
)

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	key := "v3|sim|scenario|ctrl|seed=9"
	payload := []byte(`{"key":"v3|sim|scenario|ctrl|seed=9","sim":{"ppw":1.25}}`)
	b, err := appendBinaryEnvelope(nil, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeBinaryEnvelope(b, key)
	if !ok {
		t.Fatal("well-formed envelope did not decode")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mutated: %q", got)
	}
	// The clear-text key must be visible in the raw file bytes — that is
	// what keeps cache directories greppable by canonical key.
	if !bytes.Contains(b, []byte(key)) {
		t.Error("canonical key not stored in clear text")
	}
	if _, ok := decodeBinaryEnvelope(b, "v3|sim|other|ctrl|seed=9"); ok {
		t.Error("foreign key must not decode")
	}
	// Every truncation is a clean rejection, whichever field it lands in.
	for n := 0; n < len(b); n++ {
		if _, ok := decodeBinaryEnvelope(b[:n], key); ok {
			t.Fatalf("truncation at %d/%d decoded", n, len(b))
		}
	}
	// Trailing garbage means the file is not one of ours.
	if _, ok := decodeBinaryEnvelope(append(append([]byte{}, b...), 0xFF), key); ok {
		t.Error("envelope with trailing bytes decoded")
	}
	// The payload is a sub-slice of the entry, capped so appending to
	// it can never write over the CRC trailer.
	if cap(got) != len(got) {
		t.Errorf("payload cap %d exceeds its length %d", cap(got), len(got))
	}
	if _, err := appendBinaryEnvelope(nil, "", payload); err == nil {
		t.Error("empty key must not encode")
	}
}

// The envelope reader's contract is total: any byte string either
// decodes to the payload stored under the wanted key or reports a
// miss — never a panic, whatever the corruption.
func FuzzDecodeBinaryEnvelope(f *testing.F) {
	key := "v3|sim|scenario-3|static/(8,10,20)|seed=3"
	valid, err := appendBinaryEnvelope(nil, key, []byte(`{"sim":{"ppw":4.5,"converged":true}}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(cacheMagic))
	f.Add([]byte(cacheMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte(`{"key":"` + key + `","payload":{}}`)) // a foreign JSON file
	foreign, _ := appendBinaryEnvelope(nil, "other", []byte(`{}`))
	f.Add(foreign)
	f.Add(fgc2Envelope(f, key, []byte(`{}`))) // the previous generation
	f.Fuzz(func(t *testing.T, b []byte) {
		// The only guarantees: never panic, and anything that decodes is a
		// structurally valid envelope for the wanted key — re-encoding its
		// payload round-trips. (Payload validity is the decode layer's
		// job; Cache.get classifies that failure as corrupt.)
		payload, ok := decodeBinaryEnvelope(b, key)
		if !ok {
			return
		}
		re, err := appendBinaryEnvelope(nil, key, payload)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		back, ok := decodeBinaryEnvelope(re, key)
		if !ok || !bytes.Equal(back, payload) {
			t.Errorf("payload does not round-trip: %q vs %q", back, payload)
		}
	})
}

// fgc2Envelope renders an entry as format generation 2 wrote it: the
// same key header, then the payload in one DEFLATE wire frame.
func fgc2Envelope(t testing.TB, key string, payload []byte) []byte {
	t.Helper()
	b := binary.AppendUvarint([]byte("FGC2"), uint64(len(key)))
	return append(append(b, key...), payloadFrame(t, payload)...)
}

// Arbitrary envelope bytes in a pack record must degrade to a cache
// miss through the full Get path: the cell re-runs, the run never
// errors. A record whose head carries the wanted key is read and fails
// as corrupt; one whose head is malformed or names another key is never
// indexed under the wanted key, so it is a plain miss.
func TestCacheGetSurvivesArbitraryEnvelopeBytes(t *testing.T) {
	key := "fuzzlike|cell"
	valid, err := appendBinaryEnvelope(nil, key, []byte("not a result"))
	if err != nil {
		t.Fatal(err)
	}
	result := Result{Key: key, Sim: fl.Result{ControllerOverheadSec: 2.5, History: []fl.RoundRecord{
		{Round: 1, Accuracy: 0.4, RoundSeconds: 3, EnergyJ: 12.5, PlannedK: 10, AggregatedK: 9},
		{Round: 2, Accuracy: 0.6, RoundSeconds: 2.5, EnergyJ: 11, PlannedK: 10, AggregatedK: 10},
	}}}
	validResult, err := appendBinaryEnvelope(nil, key, result)
	if err != nil {
		t.Fatal(err)
	}
	resultPayload, err := result.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	headLen := len(cacheMagic) + 1 + len(key)
	cases := [][]byte{
		{},
		[]byte(cacheMagic),
		[]byte(cacheMagic + "\x05ab"), // truncated key
		[]byte(cacheMagic + "\x03abc\x00\x00\x00\x01x"), // foreign key
		valid, // right key, payload no Result decodes
		// Older format generations, otherwise well formed.
		append([]byte("FGC1"), valid[len(cacheMagic):]...),
		fgc2Envelope(t, key, resultPayload),
		bytes.Repeat([]byte{0xAA}, 512),
	}
	wantCorrupt := 1 // valid
	// Every single-byte flip of a valid Result entry — in the magic,
	// the key header, the payload or the CRC itself. A flip past the
	// key header leaves the record indexed under the key and fails its
	// CRC.
	for i := range validResult {
		flipped := bytes.Clone(validResult)
		flipped[i] ^= 0xFF
		cases = append(cases, flipped)
		if i >= headLen {
			wantCorrupt++
		}
	}
	col := telemetry.NewCollector()
	for i, raw := range cases {
		dir := t.TempDir()
		writePack(t, dir, rawRecord(raw))
		cache, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetCollector(col)
		var got Result
		if cache.Get(key, &got) {
			t.Errorf("case %d: bytes %q served a hit", i, raw)
		}
	}
	c := col.Snapshot().Counters
	if c.CacheCorrupt != int64(wantCorrupt) || c.CacheMisses != int64(len(cases)-wantCorrupt) {
		t.Errorf("counters = %d corrupt / %d misses, want %d / %d", c.CacheCorrupt, c.CacheMisses, wantCorrupt, len(cases)-wantCorrupt)
	}

	// A record whose length prefix is over the envelope bound is refused
	// from the prefix alone: a miss that allocates nothing near the
	// claimed size. The pack is sparse, so it costs no disk.
	dir := t.TempDir()
	path := writePack(t, dir, binary.BigEndian.AppendUint32(nil, uint32(maxEnvelopeBytes)+1), validResult)
	if err := os.Truncate(path, int64(maxEnvelopeBytes)+recordLenBytes+1); err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	var got Result
	if cache.Get(key, &got) {
		t.Error("a record over the size bound served a hit")
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing an oversized record allocated %d bytes", grew)
	}

	// The unflipped entry still hits.
	dir = t.TempDir()
	writePack(t, dir, rawRecord(validResult))
	if cache, err = NewCache(dir); err != nil {
		t.Fatal(err)
	}
	if !cache.Get(key, &got) || got.Sim.ControllerOverheadSec != 2.5 || len(got.Sim.History) != 2 {
		t.Errorf("valid entry did not hit: %+v", got)
	}
}

// AppendKey + HashKeyBytes are the executor's per-job key
// resolution; once the shared buffer has grown they must not allocate
// at all — the zero-alloc guard behind the bench's key_allocs_per_op
// metric.
func TestKeyResolutionZeroAllocs(t *testing.T) {
	job := Job{Kind: "sim", Scenario: "scenario-3", Controller: "static/(8,10,20)", Seed: 3}
	buf := make([]byte, 0, 256)
	var sum [32]byte
	allocs := testing.AllocsPerRun(100, func() {
		buf = job.AppendKey(buf[:0])
		sum = HashKeyBytes(buf)
	})
	if allocs != 0 {
		t.Errorf("key resolution allocates %.1f objects per op, want 0", allocs)
	}
	_ = sum
}

// A directory holding packs next to a stray <hash>.json file (another
// tool's output) treats the JSON file as foreign: a Get for its key is
// a plain miss, and Prune neither counts it against the budget nor
// removes it. An entry of the old one-file-per-entry layout,
// <hash>.binz, is never read either, but Prune deletes it.
func TestCachePruneMixedFormats(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	cache.SetCollector(col)
	stray := "stray|cell"
	payload, err := json.Marshal(Result{Key: stray, Sim: fl.Result{ControllerOverheadSec: 1}})
	if err != nil {
		t.Fatal(err)
	}
	strayPath := filepath.Join(dir, HashKey(stray)+".json")
	if err := os.WriteFile(strayPath, []byte(`{"key":"`+stray+`","payload":`+string(payload)+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(strayPath, old, old); err != nil {
		t.Fatal(err)
	}
	legacy := "legacy|cell"
	legacyPath := filepath.Join(dir, HashKey(legacy)+".binz")
	env, err := appendBinaryEnvelope(nil, legacy, Result{Key: legacy})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath, env, 0o644); err != nil {
		t.Fatal(err)
	}
	var got Result
	for _, key := range []string{stray, legacy} {
		if cache.Get(key, &got) {
			t.Errorf("%s: a file outside the packs served a hit: %+v", key, got)
		}
	}
	if c := col.Snapshot().Counters; c.CacheMisses != 2 || c.CacheCorrupt != 0 {
		t.Errorf("counters = %d misses / %d corrupt, want two plain misses", c.CacheMisses, c.CacheCorrupt)
	}

	keys := []string{"mixed|cell-0", "mixed|cell-1"}
	var packSize int64
	for i, k := range keys {
		w, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Put(k, Result{Key: k, Sim: fl.Result{ControllerOverheadSec: float64(i)}}); err != nil {
			t.Fatal(err)
		}
		packSize = agePack(t, ownPack(t, w), time.Duration(i-len(keys))*time.Minute)
	}
	// Budget for one pack: the older pack goes, the stray file (older
	// still, and larger than the budget) is not a pack at all.
	removed, err := cache.Prune(packSize)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("pruned %d packs, want 1", removed)
	}
	if _, err := os.Stat(strayPath); err != nil {
		t.Errorf("Prune touched the stray JSON file: %v", err)
	}
	if _, err := os.Stat(legacyPath); !os.IsNotExist(err) {
		t.Errorf("Prune left the legacy .binz entry: %v", err)
	}
	for i, wantAlive := range []bool{false, true} {
		if alive := cache.Get(keys[i], &got); alive != wantAlive {
			t.Errorf("entry %d alive=%v, want %v", i, alive, wantAlive)
		}
	}
}

// A disk hit's payload bytes are retained by the decoded-payload
// layer, so re-reading a cell within one process never re-reads the
// pack; Prune drops evicted hashes from the layer so an evicted entry
// cannot be served from memory.
func TestPayloadLayerServesRereadsAndHonorsPrune(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "payload|cell"
	if err := writer.Put(key, Result{Key: key, Sim: fl.Result{ControllerOverheadSec: 7.5}}); err != nil {
		t.Fatal(err)
	}

	reader, _ := NewCache(dir)
	col := telemetry.NewCollector()
	reader.SetCollector(col)
	var got Result
	if !reader.Get(key, &got) || got.Sim.ControllerOverheadSec != 7.5 {
		t.Fatalf("first read should hit from disk: %+v", got)
	}
	// Remove the pack out from under the cache: the payload layer must
	// still serve the re-read.
	if err := os.Remove(ownPack(t, writer)); err != nil {
		t.Fatal(err)
	}
	got = Result{}
	if !reader.Get(key, &got) || got.Sim.ControllerOverheadSec != 7.5 {
		t.Fatalf("re-read should hit from the payload layer: %+v", got)
	}
	c := col.Snapshot().Counters
	if c.CacheDiskHits != 1 || c.CachePayloadHits != 1 {
		t.Errorf("counters = %d disk / %d payload hits, want 1/1", c.CacheDiskHits, c.CachePayloadHits)
	}

	// Prune must drop evicted hashes from the layer: re-create the
	// entry in a new pack, read it (admitting it to the layer), then
	// evict everything.
	writer2, _ := NewCache(dir)
	if err := writer2.Put(key, Result{Key: key, Sim: fl.Result{ControllerOverheadSec: 7.5}}); err != nil {
		t.Fatal(err)
	}
	reader2, _ := NewCache(dir)
	if !reader2.Get(key, &got) {
		t.Fatal("re-created entry should hit")
	}
	if _, err := reader2.Prune(1); err != nil {
		t.Fatal(err)
	}
	if reader2.Get(key, &got) {
		t.Error("pruned entry served from the payload layer")
	}
}

// A Cache's first hit in a pack refreshes the pack's mtime, so Prune's
// oldest-first order is LRU order with no flush step. Later hits in
// the same pack — from disk or from the decoded-payload layer — cost
// no further touch.
func TestCacheHitTouchesMtime(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"touch|cell-0", "touch|cell-1"}
	for _, k := range keys {
		if err := writer.Put(k, Result{Key: k, Sim: fl.Result{ControllerOverheadSec: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	path := ownPack(t, writer)
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	cache.SetCollector(col)
	old := time.Now().Add(-24 * time.Hour)
	mtime := func() time.Time {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime()
	}
	var got Result
	for i, read := range []struct {
		layer, key string
		touches    bool
	}{{"disk", keys[0], true}, {"payload", keys[0], false}, {"disk", keys[1], false}} {
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		if !cache.Get(read.key, &got) {
			t.Fatalf("read %d (%s) should hit", i, read.layer)
		}
		if touched := mtime().After(old); touched != read.touches {
			t.Errorf("read %d (%s): touched the pack = %v, want %v", i, read.layer, touched, read.touches)
		}
	}
	c := col.Snapshot().Counters
	if c.CacheTouches != 1 {
		t.Errorf("CacheTouches = %d, want 1 for one pack", c.CacheTouches)
	}
	if c.CacheDiskHits != 2 || c.CachePayloadHits != 1 {
		t.Errorf("counters = %d disk / %d payload hits, want 2/1", c.CacheDiskHits, c.CachePayloadHits)
	}
}

// The binary envelope must actually be smaller than the result JSON it
// replaced on representative payloads: the raw binary Result payload
// more than pays for the clear-text key header and the CRC.
func TestBinaryEnvelopeSmallerThanJSON(t *testing.T) {
	history := make([]fl.RoundRecord, 200)
	for i := range history {
		history[i] = fl.RoundRecord{
			Round: i + 1, Accuracy: 0.5 + float64(i)/1000,
			RoundSeconds: 12.5, EnergyJ: 480.25, PlannedK: 10, AggregatedK: 9,
		}
	}
	r := Result{
		Key: "v3|sim|size-check|static/(8,10,20)|seed=1",
		Sim: fl.Result{Outcome: fl.Outcome{Converged: true, PPW: 4.2}, History: history},
	}
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := appendBinaryEnvelope(nil, r.Key, r)
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(bin) > len(js) {
		t.Errorf("binary envelope (%d B) not under half the result JSON (%d B)", len(bin), len(js))
	}
}
