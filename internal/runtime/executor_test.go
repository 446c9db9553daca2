package runtime

import (
	"encoding/json"
	"reflect"
	"testing"
)

// payloadBackend records the Payload of every job the executor hands
// over, by scenario, then runs them on the wrapped backend.
type payloadBackend struct {
	Backend
	got map[string]string
}

func (b *payloadBackend) Run(jobs []Job, done func(int, Result)) []Result {
	for _, j := range jobs {
		b.got[j.Scenario] = string(j.Payload)
	}
	return b.Backend.Run(jobs, done)
}

// encodedJob is a job named scenario whose Encode counts its calls in
// encodes.
func encodedJob(scenario string, encodes map[string]int) Job {
	return Job{
		Kind:     "sim",
		Scenario: scenario,
		Encode: func() json.RawMessage {
			encodes[scenario]++
			return json.RawMessage(`{"cell":"` + scenario + `"}`)
		},
		Run: func() Result { return Result{} },
	}
}

// The executor builds a payload once per job it dispatches: a miss is
// encoded once and reaches the backend carrying Encode's bytes, a
// repeated key and a cache hit are never encoded, a ForceRun job is
// encoded on every run, and a job that sets its Payload itself
// reaches the backend with those bytes, Encode uncalled.
func TestRunAllEncodesOnlyDispatchedJobs(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	encodes := map[string]int{}
	miss, other := encodedJob("miss", encodes), encodedJob("other", encodes)
	forced := encodedJob("forced", encodes)
	forced.ForceRun = true
	preset := encodedJob("preset", encodes)
	preset.Payload = json.RawMessage(`{"preset":true}`)
	jobs := []Job{miss, other, miss, forced, preset, miss}

	for _, tc := range []struct {
		name        string
		wantPayload map[string]string
		wantEncodes map[string]int // running totals
	}{
		{
			name: "cold",
			wantPayload: map[string]string{
				"miss": `{"cell":"miss"}`, "other": `{"cell":"other"}`,
				"forced": `{"cell":"forced"}`, "preset": `{"preset":true}`,
			},
			wantEncodes: map[string]int{"miss": 1, "other": 1, "forced": 1},
		},
		{
			name:        "warm",
			wantPayload: map[string]string{"forced": `{"cell":"forced"}`},
			wantEncodes: map[string]int{"miss": 1, "other": 1, "forced": 2},
		},
	} {
		be := &payloadBackend{Backend: NewPoolBackend(2), got: map[string]string{}}
		for i, r := range NewExecutorBackend(be, cache).RunAll(jobs) {
			if r.Err != "" {
				t.Fatalf("%s: job %d failed: %s", tc.name, i, r.Err)
			}
		}
		if !reflect.DeepEqual(be.got, tc.wantPayload) {
			t.Errorf("%s: backend saw payloads %v, want %v", tc.name, be.got, tc.wantPayload)
		}
		if !reflect.DeepEqual(encodes, tc.wantEncodes) {
			t.Errorf("%s: Encode calls %v, want %v", tc.name, encodes, tc.wantEncodes)
		}
	}
	if len(jobs[0].Payload) != 0 {
		t.Error("RunAll wrote a payload into the caller's batch")
	}
}
