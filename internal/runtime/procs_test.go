package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/runtime/wire"
)

// The procs tests exercise the shard coordinator against a localhost
// stub worker pool speaking the real wire protocol over TCP, whose
// "spec" is a stubSpec instead of an exp.JobSpec. The coordinator is
// payload agnostic, so the protocol, sharding, retry and
// executor-integration behavior under test is exactly what the
// fedgpo-worker binary sees.

// stubSpec is the stub worker's job description.
type stubSpec struct {
	// Value is echoed back in the result's ControllerOverheadSec, a
	// field the binary Result form carries.
	Value float64 `json:"value"`
	// Fail makes the stub return a job-level error result.
	Fail bool `json:"fail,omitempty"`
	// DieOncePath makes the stub drop its connection — before
	// responding — unless the file already exists (it is created on the
	// way down, so exactly the first attempt dies).
	DieOncePath string `json:"dieOncePath,omitempty"`
	// Garbage makes the stub write a non-protocol line instead of a
	// response and hang up.
	Garbage bool `json:"garbage,omitempty"`
}

// stubRun executes one stubSpec job the way a healthy worker would.
func stubRun(key string, spec json.RawMessage) Result {
	var s stubSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return Result{Key: key, Err: "stub: " + err.Error()}
	}
	if s.Fail {
		return Result{Key: key, Err: "stub failure"}
	}
	return Result{Key: key, Sim: fl.Result{ControllerOverheadSec: s.Value}}
}

// stubPool serves stubSpec jobs on a localhost listener, one
// ServeSession per accepted connection advertising capacity, and
// returns its address. Unlike Serve, a job can break its own
// connection (DieOncePath, Garbage), which is what a crashed worker
// looks like from the coordinator's side. The listener closes when the
// test ends.
func stubPool(t *testing.T, capacity int) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				_ = ServeSession(nc, nc, func(key string, spec json.RawMessage) Result {
					var s stubSpec
					if err := json.Unmarshal(spec, &s); err != nil {
						return Result{Key: key, Err: "stub: " + err.Error()}
					}
					if s.DieOncePath != "" {
						if _, err := os.Stat(s.DieOncePath); err != nil {
							_ = os.WriteFile(s.DieOncePath, []byte("died"), 0o644)
							_ = nc.Close()
						}
					}
					if s.Garbage {
						_, _ = io.WriteString(nc, "this is not a wire response\n")
						_ = nc.Close()
					}
					return stubRun(key, spec)
				}, WorkerOptions{Capacity: capacity})
			}(nc)
		}
	}()
	return lis.Addr().String()
}

// deadAddr returns a localhost address nothing listens on: any dial to
// it fails.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()
	return addr
}

// stubJob builds a spec-carrying job for the stub worker. Run is the
// in-process equivalent, so the same jobs can drive PoolBackend.
func stubJob(i int, s stubSpec) Job {
	payload, _ := json.Marshal(s)
	return Job{
		Kind:     "sim",
		Scenario: fmt.Sprintf("stub-%d", i),
		Seed:     int64(i),
		Payload:  payload,
		Run:      func() Result { return Result{Sim: fl.Result{ControllerOverheadSec: s.Value}} },
	}
}

func stubBackend(t *testing.T, capacity int) *Coordinator {
	t.Helper()
	return NewProcBackend(ProcConfig{Workers: []string{stubPool(t, capacity)}})
}

// The coordinator must return results in job order with the same
// payloads the in-process pool produces, for any pool capacity.
func TestProcBackendMatchesPool(t *testing.T) {
	jobs := make([]Job, 23)
	for i := range jobs {
		jobs[i] = stubJob(i, stubSpec{Value: float64(i) + 0.5})
	}
	want := NewPoolBackend(4).Run(jobs, nil)
	for _, capacity := range []int{1, 2, 5} {
		got := stubBackend(t, capacity).Run(jobs, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("capacity=%d results differ from pool results", capacity)
		}
	}
}

// A worker dropping its connection mid-shard must be retried once on
// a fresh session; the batch completes with correct results.
func TestProcBackendRetriesFailedShardOnce(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "died-once")
	jobs := []Job{
		stubJob(0, stubSpec{Value: 1}),
		stubJob(1, stubSpec{Value: 2, DieOncePath: marker}),
		stubJob(2, stubSpec{Value: 3}),
	}
	done := 0
	results := stubBackend(t, 1).Run(jobs, func(int, Result) { done++ })
	for i, want := range []float64{1, 2, 3} {
		if results[i].Err != "" || results[i].Sim.ControllerOverheadSec != want {
			t.Errorf("job %d after retry: %+v", i, results[i])
		}
	}
	if done != len(jobs) {
		t.Errorf("done fired %d times, want %d", done, len(jobs))
	}
	if _, err := os.Stat(marker); err != nil {
		t.Error("stub never crashed; the retry path was not exercised")
	}
}

// A shard that fails on both attempts must surface error results for
// the unanswered jobs — never missing slots, never a panic.
func TestProcBackendShardFailureSurfaces(t *testing.T) {
	jobs := []Job{
		stubJob(0, stubSpec{Value: 1}),
		stubJob(1, stubSpec{Garbage: true}),
		stubJob(2, stubSpec{Value: 3}),
	}
	results := stubBackend(t, 1).Run(jobs, nil)
	if results[0].Err != "" || results[0].Sim.ControllerOverheadSec != 1 {
		t.Errorf("job answered before the failure should survive: %+v", results[0])
	}
	for _, i := range []int{1, 2} {
		if !strings.Contains(results[i].Err, "worker shard failed") {
			t.Errorf("job %d should report the shard failure, got %+v", i, results[i])
		}
	}
}

// A job-level error inside the worker is an error result, not a shard
// failure: the rest of the shard still runs, exactly once.
func TestProcBackendJobErrorDoesNotFailShard(t *testing.T) {
	jobs := []Job{
		stubJob(0, stubSpec{Value: 1}),
		stubJob(1, stubSpec{Fail: true}),
		stubJob(2, stubSpec{Value: 3}),
	}
	results := stubBackend(t, 1).Run(jobs, nil)
	if results[0].Sim.ControllerOverheadSec != 1 || results[2].Sim.ControllerOverheadSec != 3 {
		t.Errorf("healthy jobs corrupted: %+v", results)
	}
	if !strings.Contains(results[1].Err, "stub failure") {
		t.Errorf("job error lost: %+v", results[1])
	}
}

// Jobs without a serialized spec cannot cross the process boundary and
// must fail loudly per job.
func TestProcBackendRejectsPayloadlessJobs(t *testing.T) {
	job := Job{Kind: "sim", Scenario: "s", Run: func() Result { return Result{} }}
	results := stubBackend(t, 2).Run([]Job{job}, nil)
	if !strings.Contains(results[0].Err, "no spec payload") {
		t.Errorf("payloadless job should error, got %+v", results[0])
	}
}

// The executor on the coordinator must keep exact cache semantics:
// cold batch dispatches everything, warm rerun over the same cache
// serves every cell without dialing any worker.
func TestExecutorOnProcBackendCacheSemantics(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = stubJob(i, stubSpec{Value: float64(i)})
	}
	cold := NewExecutorBackend(stubBackend(t, 3), cache)
	first := cold.RunAll(jobs)
	if st := cold.Stats(); st.Runs != int64(len(jobs)) || st.Hits != 0 {
		t.Errorf("cold stats = %+v", st)
	}
	// The warm executor's backend points at an address nothing listens
	// on — proving hits never reach a worker.
	warmBackend := NewProcBackend(ProcConfig{Workers: []string{deadAddr(t)}})
	warm := NewExecutorBackend(warmBackend, cache)
	second := warm.RunAll(jobs)
	if st := warm.Stats(); st.Runs != 0 || st.Hits != int64(len(jobs)) {
		t.Errorf("warm stats = %+v", st)
	}
	for i := range jobs {
		if !second[i].Cached || second[i].Sim.ControllerOverheadSec != first[i].Sim.ControllerOverheadSec {
			t.Errorf("warm result %d not served from cache: %+v", i, second[i])
		}
	}
}

// ServeSession must open the session with a valid hello frame, then
// answer every request frame in order, one response frame each, and
// propagate the Cached flag across the wire (Result.Cached is not part
// of the result's own binary form).
func TestServeWorkerOrderAndCachedFlag(t *testing.T) {
	var stream strings.Builder
	for i := 0; i < 5; i++ {
		stream.WriteString(reqFrame(t, fmt.Sprintf("k%d", i)))
	}
	var out bytes.Buffer
	in := strings.NewReader(stream.String())
	err := ServeSession(in, &out, func(key string, _ json.RawMessage) Result {
		return Result{Key: key, Cached: key == "k2", Sim: fl.Result{ControllerOverheadSec: 7}}
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := wire.ReadFrame(&out, 1)
	if err != nil {
		t.Fatalf("hello frame: %v", err)
	}
	var hello WireHello
	if err := json.Unmarshal(frame, &hello); err != nil {
		t.Fatalf("hello frame: %v", err)
	}
	if !hello.Hello || hello.Proto != ProtoVersion || hello.KeyVersion != keyVersion || hello.Capacity != 1 {
		t.Errorf("hello frame = %+v", hello)
	}
	for i := 0; i < 5; i++ {
		frame, _, err := wire.ReadFrame(&out, i+2)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var resp WireResponse
		if err := resp.unmarshalBinary(frame); err != nil {
			t.Fatalf("response %d: %v (want one per frame)", i, err)
		}
		if want := fmt.Sprintf("k%d", i); resp.Key != want {
			t.Errorf("response %d out of order: %q", i, resp.Key)
		}
		if resp.Cached != (resp.Key == "k2") {
			t.Errorf("cached flag lost for %q", resp.Key)
		}
	}
}
