package exp

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
)

// recordingBackend keeps every result the wrapped backend returns —
// exactly the results the executor writes back to the run cache —
// with the spec of the job that produced it.
type recordingBackend struct {
	runtime.Backend
	mu    sync.Mutex
	specs []JobSpec
	got   []runtime.Result
}

func (b *recordingBackend) Run(jobs []runtime.Job, done func(int, runtime.Result)) []runtime.Result {
	out := b.Backend.Run(jobs, done)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, r := range out {
		sp, err := DecodeJobSpec(jobs[i].Payload)
		if err != nil {
			panic(err)
		}
		b.specs = append(b.specs, sp)
		b.got = append(b.got, r)
	}
	return out
}

// Every result a Tiny registry run caches, of every job kind, must
// survive the cache's binary codec with its JSON unchanged once its
// Outcome is derived again from the decoded history and the spec's
// workload, as Runtime.runSpecs does: the binary payload holds
// everything else the JSON payload it replaced held.
func TestRegistryResultsSurviveBinaryCodec(t *testing.T) {
	rec := &recordingBackend{Backend: runtime.NewPoolBackend(0)}
	cache, err := runtime.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeWithBackend(rec, cache)
	opts := Tiny().WithRuntime(rt)
	for _, e := range Registry() {
		e.Run(opts)
	}
	kinds := map[string]bool{}
	var withExtra, withoutExtra int
	for i, r := range rec.got {
		if r.Err != "" {
			t.Fatalf("job %q failed: %s", r.Key, r.Err)
		}
		kinds[rec.specs[i].Kind] = true
		if len(r.Extra) > 0 {
			withExtra++
		} else {
			withoutExtra++
		}
		enc, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%q: %v", r.Key, err)
		}
		var back runtime.Result
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%q: decode: %v", r.Key, err)
		}
		back.Sim.Outcome = fl.OutcomeOf(rec.specs[i].Scenario.Workload, back.Sim.History)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q: JSON differs after the binary round trip", r.Key)
		}
	}
	for _, k := range []string{KindSim, KindOracle, KindQMem, KindSec54} {
		if !kinds[k] {
			t.Errorf("registry cached no %q result", k)
		}
	}
	if withExtra == 0 || withoutExtra == 0 {
		t.Errorf("%d results with Extra and %d without; want both", withExtra, withoutExtra)
	}
}
