package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/rl"
)

// codecCases are hand-built snapshots covering the codec's edge cases:
// nil versus empty maps, masks and Q rows, negative and multi-byte
// varints, a signed zero, and every Profile field set.
func codecCases() map[string]Snapshot {
	table := rl.TableSnapshot{
		Q:       map[string][]float64{"b": {1, -2.5, math.Copysign(0, -1)}, "a": nil, "": {}},
		Mask:    []bool{true, false, true},
		Epsilon: 0.1, Updates: math.MaxInt, Delta: 3e-300, DeltaInit: true,
	}
	profiles := device.Profiles()
	return map[string]Snapshot{
		"zero": {},
		"full": {
			LocalTables:   map[string]rl.TableSnapshot{"H": table, "M": {Mask: []bool{}}, "dev300": {}},
			KTable:        &rl.TableSnapshot{Q: map[string][]float64{"k": {1, 2, 3, 4, 5}}, Updates: -7},
			TableProfiles: map[string]device.Profile{"H": profiles[device.High], "L": profiles[device.Low]},
			GlobalNorm:    NormalizerSnapshot{Value: 12.5, Init: true, Adds: 300},
			KLocalNorm:    NormalizerSnapshot{Value: -1, Adds: math.MinInt},
			LocalNorm:     map[device.Category]NormalizerSnapshot{device.Low: {Value: 2}, -3: {Init: true}, device.High: {}},
			Deadline:      math.MaxFloat64,
			Frozen:        true,
			FrozenRound:   -150,
		},
		"empty maps": {
			LocalTables:   map[string]rl.TableSnapshot{},
			TableProfiles: map[string]device.Profile{},
			LocalNorm:     map[device.Category]NormalizerSnapshot{},
		},
		"empty table": {KTable: &rl.TableSnapshot{Q: map[string][]float64{}, Mask: []bool{}}},
	}
}

func TestSnapshotBinaryRoundTrip(t *testing.T) {
	for name, s := range codecCases() {
		b := s.AppendBinary(nil)
		var back Snapshot
		if err := back.UnmarshalBinary(b); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%s: round trip changed the snapshot:\n got %+v\nwant %+v", name, back, s)
		}
		if re := back.AppendBinary(nil); !bytes.Equal(re, b) {
			t.Errorf("%s: decoded snapshot re-encodes to other bytes", name)
		}
		// Every truncation fails cleanly, as does a trailing byte.
		for n := 0; n < len(b); n++ {
			if err := new(Snapshot).UnmarshalBinary(b[:n]); !errors.Is(err, errCorruptSnapshot) {
				t.Fatalf("%s: truncation at %d/%d: err = %v", name, n, len(b), err)
			}
		}
		if err := new(Snapshot).UnmarshalBinary(append(b[:len(b):len(b)], 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	// NaN payload bits survive unchanged.
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	var back Snapshot
	if err := back.UnmarshalBinary(Snapshot{Deadline: nan}.AppendBinary(nil)); err != nil || math.Float64bits(back.Deadline) != math.Float64bits(nan) {
		t.Errorf("NaN bits not preserved: %x, %v", math.Float64bits(back.Deadline), err)
	}
}

// Anything AppendBinary would not write is refused, so the form has
// one encoding per value.
func TestSnapshotBinaryRejectsNonCanonical(t *testing.T) {
	two := Snapshot{LocalTables: map[string]rl.TableSnapshot{"A": {}, "B": {}}}.AppendBinary(nil)
	zero := Snapshot{}.AppendBinary(nil)
	// zero is: nil LocalTables, no KTable, nil TableProfiles, two
	// normalizers, nil LocalNorm, Deadline, Frozen, FrozenRound.
	frozenAt, kAt := len(zero)-2, 1
	patch := func(b []byte, off int, repl ...byte) []byte {
		out := append([]byte{}, b[:off]...)
		out = append(out, repl...)
		return append(out, b[off+1:]...)
	}
	a, bIdx := bytes.IndexByte(two, 'A'), bytes.IndexByte(two, 'B')
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"keys out of order":     patch(patch(two, a, 'B'), bIdx, 'A'),
		"repeated key":          patch(two, bIdx, 'A'),
		"bool byte 2":           patch(zero, frozenAt, 2),
		"KTable byte 2":         patch(zero, kAt, 2),
		"non-minimal varint":    patch(zero, len(zero)-1, 0x80, 0x00),
		"count past the bytes":  patch(zero, 0, huge...),
		"JSON":                  []byte(`{"localTables":{}}`),
		"empty input":           nil,
		"varint past 64 bits":   patch(zero, len(zero)-1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"table count past rows": append(binary.AppendUvarint(nil, 3), 1, 'A'),
	}
	for name, b := range cases {
		s := Snapshot{Deadline: 1}
		if err := s.UnmarshalBinary(b); !errors.Is(err, errCorruptSnapshot) {
			t.Errorf("%s: err = %v, want a corrupt-input error", name, err)
		}
		if s.Deadline != 1 {
			t.Errorf("%s: failed decode wrote into the snapshot", name)
		}
	}
}

// pretrainedCases are real warm-ups: shared per-category tables and
// per-device tables.
func pretrainedCases(tb testing.TB) map[string]Snapshot {
	tb.Helper()
	warm := fedgpoConfig(997)
	warm.MaxRounds = 40
	perDevice := DefaultConfig()
	perDevice.PerDeviceTables = true
	return map[string]Snapshot{
		"shared":     PretrainSnapshot(DefaultConfig(), warm),
		"per-device": PretrainSnapshot(perDevice, warm),
	}
}

// FuzzSnapshotBinary holds the decoder to its contract: no input
// panics or allocates more than a constant factor of its length, and
// every input it accepts re-encodes to exactly the same bytes. It also
// guards the restore boundary, where state names become table
// indices: a controller restored from any snapshot that validates
// snapshots the same Q rows under the same names, in the local tables
// and in the K table.
func FuzzSnapshotBinary(f *testing.F) {
	for _, s := range pretrainedCases(f) {
		b := s.AppendBinary(nil)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	for _, s := range codecCases() {
		f.Add(s.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var s Snapshot
		err := s.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<18+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if re := s.AppendBinary(nil); !bytes.Equal(re, data) {
			t.Fatalf("accepted input re-encodes differently:\n got %x\nwant %x", re, data)
		}
		if s.Validate() != nil {
			return
		}
		back := FromSnapshot(DefaultConfig(), s).Snapshot()
		if len(back.LocalTables) != len(s.LocalTables) {
			t.Fatalf("restored %d local tables, snapshot has %d", len(back.LocalTables), len(s.LocalTables))
		}
		for key, tab := range s.LocalTables {
			sameRows(t, "local table "+key, back.LocalTables[key].Q, tab.Q)
		}
		if (back.KTable == nil) != (s.KTable == nil) {
			t.Fatalf("restored K table present=%v, snapshot's present=%v", back.KTable != nil, s.KTable != nil)
		}
		if s.KTable != nil {
			sameRows(t, "K table", back.KTable.Q, s.KTable.Q)
		}
	})
}

// sameRows fails unless got holds exactly want's states, each with a
// bit-identical Q row.
func sameRows(t *testing.T, table string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: restored %d states, snapshot has %d", table, len(got), len(want))
	}
	for state, row := range want {
		back, ok := got[state]
		if !ok || len(back) != len(row) {
			t.Fatalf("%s: state %q restored as %v, snapshot has %v", table, state, back, row)
		}
		for a := range row {
			if math.Float64bits(back[a]) != math.Float64bits(row[a]) {
				t.Fatalf("%s: state %q action %d restored as %v, snapshot has %v", table, state, a, back[a], row[a])
			}
		}
	}
}

// BenchmarkSnapshotCodec times each direction of the binary form on
// real warm-ups; its MB/s are of encoded bytes.
func BenchmarkSnapshotCodec(b *testing.B) {
	for name, s := range pretrainedCases(b) {
		enc := s.AppendBinary(nil)
		b.Run(name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			buf := make([]byte, 0, len(enc))
			for b.Loop() {
				buf = s.AppendBinary(buf[:0])
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for b.Loop() {
				var back Snapshot
				if err := back.UnmarshalBinary(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
