package fl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/workload"
)

// codecCases are hand-built results covering the codec's edge cases:
// nil versus empty History and EnergyByCategory, negative and
// multi-byte varints, and float bit patterns JSON cannot carry.
func codecCases() map[string]Result {
	full := Result{
		Controller:            "fedgpo",
		EnergyByCategory:      map[device.Category]float64{device.High: 1, device.Mid: 2.5, device.Low: math.Copysign(0, -1)},
		ControllerOverheadSec: 3.2e-6,
	}
	for i := 0; i < 300; i++ {
		full.History = append(full.History, RoundRecord{
			Round: i + 1, Accuracy: float64(i) / 300, RoundSeconds: 12.5, EnergyJ: 480.25,
			MeanB: 8, MeanE: 10, PlannedK: 20, AggregatedK: 20 - i%3, Dropped: i % 3,
		})
	}
	return map[string]Result{
		"zero":          {},
		"full":          full,
		"empty history": {Controller: "static/(8,10,20)", History: []RoundRecord{}},
		"empty energy":  {EnergyByCategory: map[device.Category]float64{}},
		"one category":  {EnergyByCategory: map[device.Category]float64{device.Mid: 7}},
		"extreme ints":  {History: []RoundRecord{{Round: -5, Dropped: math.MaxInt, PlannedK: math.MinInt}}},
	}
}

func TestResultBinaryRoundTrip(t *testing.T) {
	for name, r := range codecCases() {
		b, err := r.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) != r.BinarySize() {
			t.Errorf("%s: encoded %d bytes, BinarySize says %d", name, len(b), r.BinarySize())
		}
		var back Result
		if err := back.UnmarshalBinary(b); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Errorf("%s: round trip changed the result:\n got %+v\nwant %+v", name, back, r)
		}
		if (back.History == nil) != (r.History == nil) || (back.EnergyByCategory == nil) != (r.EnergyByCategory == nil) {
			t.Errorf("%s: nil and empty collections not kept apart", name)
		}
		wantJSON, _ := json.Marshal(r)
		gotJSON, _ := json.Marshal(back)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: decoded result marshals to different JSON", name)
		}
		// Every truncation fails cleanly, as does a trailing byte.
		for n := 0; n < len(b); n++ {
			if err := new(Result).UnmarshalBinary(b[:n]); !errors.Is(err, errCorrupt) {
				t.Fatalf("%s: truncation at %d/%d: err = %v", name, n, len(b), err)
			}
		}
		if err := new(Result).UnmarshalBinary(append(b[:len(b):len(b)], 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	// NaN payload bits survive unchanged.
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	b, _ := Result{ControllerOverheadSec: nan}.AppendBinary(nil)
	var back Result
	if err := back.UnmarshalBinary(b); err != nil || math.Float64bits(back.ControllerOverheadSec) != math.Float64bits(nan) {
		t.Errorf("NaN bits not preserved: %x, %v", math.Float64bits(back.ControllerOverheadSec), err)
	}
}

// The Outcome is derived from History, so the binary form leaves it
// out: setting it changes no byte, and a decode returns it zero.
func TestResultBinaryOmitsOutcome(t *testing.T) {
	r := codecCases()["full"]
	want, _ := r.AppendBinary(nil)
	r.Outcome = OutcomeOf(workload.CNNMNIST(), r.History)
	if !r.Converged || r.PPW <= 0 {
		t.Fatalf("the full case should converge: %+v", r.Outcome)
	}
	got, _ := r.AppendBinary(nil)
	if !bytes.Equal(got, want) || r.BinarySize() != len(want) {
		t.Error("the Outcome changed the binary form")
	}
	var back Result
	if err := back.UnmarshalBinary(got); err != nil || back.Outcome != (Outcome{}) {
		t.Errorf("decode gave Outcome %+v (err %v), want zero", back.Outcome, err)
	}
}

func TestResultBinaryRejectsMalformed(t *testing.T) {
	if _, err := (Result{EnergyByCategory: map[device.Category]float64{device.NumCategories: 1}}).AppendBinary(nil); err == nil {
		t.Error("out-of-range energy category encoded")
	}
	valid, _ := Result{Controller: "c", History: []RoundRecord{{}}}.AppendBinary(nil)
	// Offsets into valid: 0 name length, 1 name, 2 the energy mask,
	// 3..10 overhead, 11 the History length, 12 the first record's
	// Round.
	patch := func(off int, repl ...byte) []byte {
		b := append([]byte{}, valid[:off]...)
		b = append(b, repl...)
		return append(b, valid[off+1:]...)
	}
	huge := binary.AppendUvarint(nil, 1<<20+1) // a 72 MB History claim
	cases := map[string][]byte{
		"non-minimal length":       patch(0, 0x81, 0x00),
		"non-minimal varint":       patch(12, 0x80, 0x00),
		"varint past 64 bits":      patch(12, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"mask without present bit": patch(2, 0x04),
		"mask past the categories": patch(2, 1|1<<(1+device.NumCategories)),
		"history past the bytes":   patch(11, huge...),
		"history of two, one held": patch(11, 3),
		"name past the end":        patch(0, 200),
	}
	for name, b := range cases {
		var r Result
		if err := r.UnmarshalBinary(b); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want a corrupt-input error", name, err)
		}
		if !reflect.DeepEqual(r, Result{}) {
			t.Errorf("%s: failed decode wrote into the result: %+v", name, r)
		}
	}
	// The History claim is checked against the bytes left before the
	// slice is made, so rejecting it allocates next to nothing.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		_ = new(Result).UnmarshalBinary(cases["history past the bytes"])
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / 10; perRun > 64<<10 {
		t.Errorf("rejecting an oversized History claim allocated %d bytes", perRun)
	}
}

// TestResultCodecCoversEveryField fails when Result or RoundRecord
// gains, loses or retypes a field: the binary codec lists fields by
// hand, so a new one must be added to AppendBinary, UnmarshalBinary,
// BinarySize and this list together. Outcome is pinned too: the codec
// skips it, but its fields' order is the order of Result's JSON.
func TestResultCodecCoversEveryField(t *testing.T) {
	check := func(v any, want []string) {
		t.Helper()
		typ := reflect.TypeOf(v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			got = append(got, f.Name+" "+f.Type.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s fields changed; update the binary codec in codec.go, then this list:\n got %q\nwant %q", typ, got, want)
		}
	}
	check(Result{}, []string{
		"Controller string", "Outcome fl.Outcome", "EnergyByCategory map[device.Category]float64",
		"ControllerOverheadSec float64", "History []fl.RoundRecord",
	})
	check(Outcome{}, []string{
		"Converged bool", "ConvergenceRound int", "RoundsExecuted int",
		"TimeToConvergenceSec float64", "EnergyToConvergenceJ float64", "FinalAccuracy float64",
		"PPW float64", "AvgRoundSeconds float64",
	})
	check(RoundRecord{}, []string{
		"Round int", "Accuracy float64", "RoundSeconds float64", "EnergyJ float64",
		"MeanB float64", "MeanE float64", "PlannedK int", "AggregatedK int", "Dropped int",
	})
}
