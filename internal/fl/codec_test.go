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
)

// codecCases are hand-built results covering the codec's edge cases:
// nil versus empty History and EnergyByCategory, negative and
// multi-byte varints, and float bit patterns JSON cannot carry.
func codecCases() map[string]Result {
	full := Result{
		Controller:            "fedgpo",
		Converged:             true,
		ConvergenceRound:      93,
		RoundsExecuted:        400,
		TimeToConvergenceSec:  1234.5,
		EnergyToConvergenceJ:  9.75e6,
		FinalAccuracy:         0.912,
		PPW:                   1.0 / 9.75e6,
		AvgRoundSeconds:       13.27,
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
		"unconverged":   {ConvergenceRound: -1, RoundsExecuted: 1 << 30, History: []RoundRecord{{Round: -5, Dropped: math.MaxInt, PlannedK: math.MinInt}}},
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
	b, _ := Result{PPW: nan}.AppendBinary(nil)
	var back Result
	if err := back.UnmarshalBinary(b); err != nil || math.Float64bits(back.PPW) != math.Float64bits(nan) {
		t.Errorf("NaN bits not preserved: %x, %v", math.Float64bits(back.PPW), err)
	}
}

func TestResultBinaryRejectsMalformed(t *testing.T) {
	if _, err := (Result{EnergyByCategory: map[device.Category]float64{device.NumCategories: 1}}).AppendBinary(nil); err == nil {
		t.Error("out-of-range energy category encoded")
	}
	valid, _ := Result{Controller: "c"}.AppendBinary(nil)
	// Offsets into valid: 0 name length, 1 name, 2 Converged, 3 and 4
	// the two varints, 5..44 five floats, 45 the energy mask, 46..53
	// overhead, 54 the History length.
	patch := func(off int, repl ...byte) []byte {
		b := append([]byte{}, valid[:off]...)
		b = append(b, repl...)
		return append(b, valid[off+1:]...)
	}
	huge := binary.AppendUvarint(nil, 1<<20+1) // a 72 MB History claim
	cases := map[string][]byte{
		"bool byte 2":              patch(2, 2),
		"non-minimal varint":       patch(3, 0x80, 0x00),
		"varint past 64 bits":      patch(3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"mask without present bit": patch(45, 0x04),
		"mask past the categories": patch(45, 1|1<<(1+device.NumCategories)),
		"history past the bytes":   patch(54, huge...),
		"history of one, no bytes": patch(54, 2),
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
// BinarySize and this list together.
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
		"Controller string", "Converged bool", "ConvergenceRound int", "RoundsExecuted int",
		"TimeToConvergenceSec float64", "EnergyToConvergenceJ float64", "FinalAccuracy float64",
		"PPW float64", "AvgRoundSeconds float64", "EnergyByCategory map[device.Category]float64",
		"ControllerOverheadSec float64", "History []fl.RoundRecord",
	})
	check(RoundRecord{}, []string{
		"Round int", "Accuracy float64", "RoundSeconds float64", "EnergyJ float64",
		"MeanB float64", "MeanE float64", "PlannedK int", "AggregatedK int", "Dropped int",
	})
}
