package runtime

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
	"fedgpo/internal/workload"
)

// envelopeMetrics is a per-job telemetry snapshot shaped like the ones
// workers attach to responses.
func envelopeMetrics() *telemetry.Metrics {
	return &telemetry.Metrics{
		Phases: map[string]telemetry.Phase{
			"pretrain": {Seconds: 0.0125, Count: 1},
			"rounds":   {Seconds: 0.25, Count: 60},
		},
		Counters: telemetry.Counters{SimsExecuted: 1, CacheMisses: 2, PretrainRuns: 1},
	}
}

// envelopeResponses covers what a worker sends back: an errored
// result, a cached result with metrics, a result with an Extra
// payload, and one carrying a built snapshot.
func envelopeResponses(t testing.TB) map[string]WireResponse {
	rs := codecResults(t)
	sim, extra := rs["sim"], rs["sim+extra"]
	withSnap := rs["sim"]
	withSnap.Key = "v3|sim|s|fedgpo-warm|seed=1"
	return map[string]WireResponse{
		"errored":        {Key: rs["errored"].Key, Result: rs["errored"]},
		"cached+metrics": {Key: sim.Key, Result: sim, Cached: true, Metrics: envelopeMetrics()},
		"extra":          {Key: extra.Key, Result: extra, Metrics: envelopeMetrics()},
		"snaps": {Key: withSnap.Key, Result: withSnap, Snaps: []SnapshotArtifact{
			{Key: "v3|pretrain|s|fedgpo|seed=1", Data: json.RawMessage(`{"q":[1,2,3]}`)},
			{Key: "v3|pretrain|s|fedgpo|seed=2", Data: json.RawMessage(`{"q":[4]}`)},
		}},
	}
}

// envelopeRequests is a request frame's worth of specs, one of them
// pre-pushing a snapshot.
func envelopeRequests() []WireRequest {
	return []WireRequest{
		{Key: "v3|sim|s|static/(8,10,20)|seed=1", Spec: json.RawMessage(`{"kind":"sim","seed":1}`)},
		{Key: "v3|sim|s|fedgpo-warm|seed=1", Spec: json.RawMessage(`{"kind":"sim","seed":1,"warm":true}`),
			Snaps: []SnapshotArtifact{{Key: "v3|pretrain|s|fedgpo|seed=1", Data: json.RawMessage(`{"q":[1,2,3]}`)}}},
	}
}

// A binary response decodes to a value deep-equal to what was encoded
// once the result's Outcome is derived again from its history, and
// re-encodes to the same bytes.
func TestWireResponseBinaryRoundTrip(t *testing.T) {
	for name, resp := range envelopeResponses(t) {
		enc, err := resp.appendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back WireResponse
		if err := back.unmarshalBinary(enc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		back.Result.Sim.Outcome = fl.OutcomeOf(workload.CNNMNIST(), back.Result.Sim.History)
		if !reflect.DeepEqual(back, resp) {
			t.Errorf("%s: round trip changed the response:\n got %+v\nwant %+v", name, back, resp)
		}
		if re, _ := back.appendBinary(nil); !bytes.Equal(re, enc) {
			t.Errorf("%s: decoded response re-encodes differently", name)
		}
	}
	// An empty Extra decodes as nil, as it does from JSON.
	resp := WireResponse{Key: "k", Result: Result{Key: "k", Extra: json.RawMessage{}}}
	enc, err := resp.appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back WireResponse
	if err := back.unmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if back.Result.Extra != nil {
		t.Errorf("empty Extra decoded as %#v, want nil", back.Result.Extra)
	}
}

// A binary request envelope decodes to requests deep-equal to what was
// encoded.
func TestWireRequestsBinaryRoundTrip(t *testing.T) {
	for _, reqs := range [][]WireRequest{envelopeRequests(), envelopeRequests()[:1], {}} {
		enc := appendRequests(nil, reqs)
		back, err := decodeRequests(enc)
		if err != nil {
			t.Fatalf("%d requests: decode: %v", len(reqs), err)
		}
		if !reflect.DeepEqual(back, reqs) {
			t.Errorf("%d requests: round trip changed them:\n got %+v\nwant %+v", len(reqs), back, reqs)
		}
	}
}

// The envelope decoders are total: every truncation of a real
// encoding, trailing bytes, a count the payload cannot hold, a
// non-minimal count and a Cached byte other than 0 or 1 are errors.
func TestWireEnvelopeDecodersRejectCorrupt(t *testing.T) {
	req := appendRequests(nil, envelopeRequests())
	resp, err := envelopeResponses(t)["snaps"].appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeReq := func(b []byte) error { _, err := decodeRequests(b); return err }
	decodeResp := func(b []byte) error { var r WireResponse; return r.unmarshalBinary(b) }
	for cut := 0; cut < len(req); cut++ {
		if decodeReq(req[:cut]) == nil {
			t.Fatalf("request envelope truncated to %d/%d bytes decoded", cut, len(req))
		}
	}
	for cut := 0; cut < len(resp); cut++ {
		if decodeResp(resp[:cut]) == nil {
			t.Fatalf("response envelope truncated to %d/%d bytes decoded", cut, len(resp))
		}
	}
	cachedAt := fl.BytesSize(len(envelopeResponses(t)["snaps"].Key))
	badCached := bytes.Clone(resp)
	badCached[cachedAt] = 2
	// A response whose metrics field holds the given JSON.
	withMetrics := func(metrics string) []byte {
		b := fl.AppendBytes(nil, "k")
		b = append(b, 0)
		b = fl.AppendBytes(b, metrics)
		b = appendSnaps(b, nil)
		b, err := Result{Key: "k"}.AppendBinary(b)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	canon, err := json.Marshal(envelopeMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeResp(withMetrics(string(canon))); err != nil {
		t.Fatalf("canonical metrics rejected: %v", err)
	}
	for name, c := range map[string]struct {
		decode func([]byte) error
		b      []byte
	}{
		"request trailing byte":             {decodeReq, append(bytes.Clone(req), 0)},
		"request count too large":           {decodeReq, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0}},
		"request count non-minimal":         {decodeReq, []byte{0x81, 0x00, 0, 0, 0}},
		"response trailing byte":            {decodeResp, append(bytes.Clone(resp), 0)},
		"response snapshot count too large": {decodeResp, []byte{1, 'k', 0, 0, 0x7f, 0, 0}},
		"response cached byte 2":            {decodeResp, badCached},
		"response metrics not JSON":         {decodeResp, withMetrics("{")},
		"response metrics not canonical":    {decodeResp, withMetrics(" " + string(canon))},
		"response metrics defaults omitted": {decodeResp, withMetrics(`{"counters":{}}`)},
	} {
		if c.decode(c.b) == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzWireRequestFrame throws arbitrary payloads at the request
// envelope decoder: it never panics, and whatever it accepts
// re-encodes to exactly the input.
func FuzzWireRequestFrame(f *testing.F) {
	reqs := envelopeRequests()
	f.Add(appendRequests(nil, reqs))
	f.Add(appendRequests(nil, reqs[:1]))
	f.Add(appendRequests(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		reqs, err := decodeRequests(b)
		if err != nil {
			return
		}
		if re := appendRequests(nil, reqs); !bytes.Equal(re, b) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", b, re)
		}
	})
}

// FuzzWireResponseFrame is FuzzWireRequestFrame for the response
// envelope, seeded with responses carrying real simulated results.
func FuzzWireResponseFrame(f *testing.F) {
	for _, resp := range envelopeResponses(f) {
		// A few real rounds cover every record field; long histories
		// only slow the minimizer down.
		if len(resp.Result.Sim.History) > 4 {
			resp.Result.Sim.History = resp.Result.Sim.History[:4]
		}
		enc, err := resp.appendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var resp WireResponse
		if resp.unmarshalBinary(b) != nil {
			return
		}
		re, err := resp.appendBinary(nil)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", b, re)
		}
	})
}
