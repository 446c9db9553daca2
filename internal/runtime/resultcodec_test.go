package runtime

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// simulatedResult runs one small real simulation, so codec tests see a
// genuine round history rather than a synthetic one.
func simulatedResult(t testing.TB) fl.Result {
	t.Helper()
	w := workload.CNNMNIST()
	fleet := device.NewFleet(device.PaperComposition().Scale(20))
	cfg := fl.Config{
		Workload:     w,
		Fleet:        fleet,
		Partition:    data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice),
		Channel:      netsim.UnstableChannel(),
		Interference: interfere.None(),
		MaxRounds:    60,
		Seed:         3,
	}
	return fl.Run(cfg, fl.NewStatic(fl.Params{B: 8, E: 10, K: 10}))
}

// codecResults covers what the cache stores: a simulated cell with and
// without an Extra payload, an errored result, an Extra-only probe with
// a zero simulator result, and nil versus empty collections.
func codecResults(t testing.TB) map[string]Result {
	sim := simulatedResult(t)
	if len(sim.History) == 0 || sim.EnergyByCategory == nil {
		t.Fatal("simulation produced no history")
	}
	withExtra := Result{Key: "v3|sec54|s|fedgpo|seed=1", Sim: sim}
	withExtra.SetExtra(map[string]any{"rewards": []float64{0.5, -1.25}, "identifyNS": 1234})
	probe := Result{Key: "v3|qmem|s|fedgpo|seed=1"}
	probe.SetExtra(map[string]int{"memBytes": 10240})
	return map[string]Result{
		"sim":           {Key: "v3|sim|s|static/(8,10,20)|seed=3", Sim: sim},
		"sim+extra":     withExtra,
		"probe":         probe,
		"errored":       {Key: "k", Err: "panic: boom\ngoroutine 1"},
		"zero":          {},
		"empty history": {Key: "k", Sim: fl.Result{History: []fl.RoundRecord{}, EnergyByCategory: map[device.Category]float64{}}},
	}
}

// A Result's binary form must carry everything its JSON carries
// except the derived outcome: decoding the encoding leaves the
// Outcome zero, and deriving it again from the decoded history gives
// the original's JSON.
func TestResultBinaryMatchesJSON(t *testing.T) {
	for name, r := range codecResults(t) {
		enc, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Result
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if back.Sim.Outcome != (fl.Outcome{}) {
			t.Errorf("%s: decode filled the Outcome: %+v", name, back.Sim.Outcome)
		}
		back.Sim.Outcome = fl.OutcomeOf(workload.CNNMNIST(), back.Sim.History)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: JSON after the binary round trip differs:\n got %.200s\nwant %.200s", name, got, want)
		}
		if (back.Sim.History == nil) != (r.Sim.History == nil) ||
			(back.Sim.EnergyByCategory == nil) != (r.Sim.EnergyByCategory == nil) {
			t.Errorf("%s: nil and empty collections not kept apart", name)
		}
		// Appending to a non-empty buffer leaves its prefix alone.
		pre, err := r.AppendBinary([]byte("prefix"))
		if err != nil || !bytes.Equal(pre, append([]byte("prefix"), enc...)) {
			t.Errorf("%s: AppendBinary does not append", name)
		}
	}
}

// Provenance and the in-memory fields never enter the cache payload,
// so cold and warm runs write identical entries.
func TestResultBinaryOmitsRunLocalFields(t *testing.T) {
	r := codecResults(t)["sim"]
	want, _ := r.AppendBinary(nil)
	r.Provenance = ProvenanceReplayed
	r.Cached = true
	r.Telemetry = &telemetry.Metrics{}
	r.Snaps = []SnapshotArtifact{{Key: "p", Data: json.RawMessage(`{}`)}}
	got, _ := r.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Error("run-local fields changed the binary payload")
	}
}

// TestResultBinaryCoversEveryField fails when Result gains a field JSON
// serializes but the binary codec does not list: the new field must be
// added to AppendBinary and UnmarshalBinary (or, like Provenance, be
// kept out of the cache on purpose) and then to this list.
func TestResultBinaryCoversEveryField(t *testing.T) {
	encoded := map[string]bool{"Key": true, "Sim": true, "Extra": true, "Err": true}
	// Provenance is serialized to the -results store but is set after
	// the cache write-back, so cache payloads never carry it.
	notCached := map[string]bool{"Provenance": true}
	typ := reflect.TypeOf(Result{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Tag.Get("json") == "-" || notCached[f.Name] {
			continue
		}
		if !encoded[f.Name] {
			t.Errorf("Result.%s is serialized to JSON but not by AppendBinary", f.Name)
		}
		delete(encoded, f.Name)
	}
	for name := range encoded {
		t.Errorf("the codec lists Result.%s, which JSON no longer serializes", name)
	}
}

// An entry of the old one-file-per-entry layout (<hash>.binz, here of
// format generation "FGC2": the binary Result payload in a DEFLATE
// frame) is a foreign file: never read, so a plain miss, the cell
// re-runs and lands as a current-format record in a pack, and the
// foreign file stays where it was.
func TestOldGenerationEntryIsRewritten(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	cache.SetCollector(col)
	var runs int
	job := Job{Kind: "sim", Scenario: "old-gen", Seed: 1, Run: func() Result {
		runs++
		return Result{Sim: fl.Result{ControllerOverheadSec: 42}}
	}}
	payload, err := Result{Key: job.Key(), Sim: fl.Result{ControllerOverheadSec: 42}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, keyHex(job.Key())+".binz")
	if err := os.WriteFile(legacy, fgc2Envelope(t, job.Key(), payload), 0o644); err != nil {
		t.Fatal(err)
	}

	e := NewExecutorBackend(NewPoolBackend(1), cache)
	if res := e.RunAll([]Job{job})[0]; res.Cached || res.Err != "" || res.Sim.ControllerOverheadSec != 42 || runs != 1 {
		t.Fatalf("old entry: cached=%v err=%q runs=%d, want a re-run", res.Cached, res.Err, runs)
	}
	if c := col.Snapshot().Counters; c.CacheCorrupt != 0 || c.CacheMisses != 1 {
		t.Errorf("counters = %d corrupt / %d misses, want the old entry a plain miss", c.CacheCorrupt, c.CacheMisses)
	}
	b, err := os.ReadFile(ownPack(t, cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < recordLenBytes+len(cacheMagic) || string(b[recordLenBytes:recordLenBytes+len(cacheMagic)]) != cacheMagic {
		t.Fatalf("re-run not appended as a %s record: pack starts %q", cacheMagic, b[:min(len(b), 8)])
	}
	if res := e.RunAll([]Job{job})[0]; !res.Cached || runs != 1 {
		t.Errorf("rewritten entry should hit: cached=%v runs=%d", res.Cached, runs)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Errorf("the old entry should be left alone: %v", err)
	}
}

// A payload that fails the binary decode — a well-formed envelope
// around foreign bytes, or a JSON artifact read as a Result — is a
// corrupt miss on both cache modes, never an error.
func TestUndecodableResultPayloadIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	key := "v3|sim|undecodable|c|seed=1"
	writePack(t, dir, packRecord(t, key, []byte(`{"key":"x"}`)))
	disk, _ := NewCache(dir)
	mem, _ := NewCache("")
	if err := mem.Put(key, json.RawMessage(`{"key":"x"}`)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cache{"disk": disk, "memory": mem} {
		col := telemetry.NewCollector()
		c.SetCollector(col)
		var got Result
		if c.Get(key, &got) {
			t.Errorf("%s: undecodable payload served a hit", name)
		}
		if n := col.Snapshot().Counters.CacheCorrupt; n != 1 {
			t.Errorf("%s: CacheCorrupt = %d, want 1", name, n)
		}
	}
}

// FuzzResultBinary holds the decoder to its contract: never panic,
// and any input it accepts re-encodes to exactly the same bytes, so
// trailing bytes, non-minimal varints and stray mask bits are all
// rejected. The History bound (remaining bytes ÷ the smallest record)
// keeps a corrupt length from driving a large allocation.
func FuzzResultBinary(f *testing.F) {
	for _, r := range codecResults(f) {
		// A few real rounds cover every record field; long seeds only
		// slow the minimizer down.
		if len(r.Sim.History) > 4 {
			r.Sim.History = r.Sim.History[:4]
		}
		enc, err := r.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Result
		if r.UnmarshalBinary(b) != nil {
			return
		}
		re, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", b, re)
		}
	})
}
