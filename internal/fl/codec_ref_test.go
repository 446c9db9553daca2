package fl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"fedgpo/internal/device"
)

// referenceUnmarshal is Result.UnmarshalBinary read field by field
// through a Decoder, the decoder's shape before History got its own
// one-pass loop. It is the specification the fast decoder is held to.
func referenceUnmarshal(data []byte) (Result, error) {
	d := NewDecoder(data, errCorrupt)
	var out Result
	out.Controller = string(d.Field())
	mask := d.byte()
	if mask >= maxEnergyMask || (mask != 0 && mask&1 == 0) {
		d.Fail("energy mask %#x", mask)
	}
	if d.Err() == nil && mask != 0 {
		out.EnergyByCategory = make(map[device.Category]float64, device.NumCategories)
		for cat := device.Category(0); cat < device.NumCategories; cat++ {
			if mask&(1<<(1+cat)) != 0 {
				out.EnergyByCategory[cat] = d.Float()
			}
		}
	}
	out.ControllerOverheadSec = d.Float()
	if n, ok := d.Count(minRecordBytes); ok {
		out.History = make([]RoundRecord, n)
	}
	for i := range out.History {
		h := &out.History[i]
		h.Round = d.Varint()
		h.Accuracy = d.Float()
		h.RoundSeconds = d.Float()
		h.EnergyJ = d.Float()
		h.MeanB = d.Float()
		h.MeanE = d.Float()
		h.PlannedK = d.Varint()
		h.AggregatedK = d.Varint()
		h.Dropped = d.Varint()
		if d.Err() != nil {
			break
		}
	}
	if err := d.Finish(); err != nil {
		return Result{}, err
	}
	return out, nil
}

// sameBits reports whether a and b are equal bit for bit: the same
// binary form (which keeps nil apart from empty and every float's
// bits) and the same Outcome.
func sameBits(a, b Result) bool {
	ea, errA := a.AppendBinary(nil)
	eb, errB := b.AppendBinary(nil)
	return errA == nil && errB == nil && bytes.Equal(ea, eb) && a.Outcome == b.Outcome
}

// FuzzResultBinaryMatchesReference holds UnmarshalBinary to the
// field-by-field reference: both accept or both reject every input,
// and an accepted input decodes to the same Result bit for bit. The
// seeds are the codec cases, every truncation of them and single-byte
// mutations at every offset, so plain go test already walks each
// branch of cutVarint and of the record loop.
func FuzzResultBinaryMatchesReference(f *testing.F) {
	for _, r := range codecCases() {
		// A few records cover every field; long seeds only multiply
		// the truncations.
		if len(r.History) > 3 {
			r.History = r.History[:3]
		}
		enc, err := r.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		for n := 0; n <= len(enc); n++ {
			f.Add(enc[:n])
		}
		for i := range enc {
			for _, v := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff, enc[i] ^ 0x01} {
				m := bytes.Clone(enc)
				m[i] = v
				f.Add(m)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := referenceUnmarshal(b)
		var got Result
		gotErr := got.UnmarshalBinary(b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject differs: fast %v, reference %v\ninput %x", gotErr, wantErr, b)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, errCorrupt) {
				t.Fatalf("rejection %v does not wrap errCorrupt", gotErr)
			}
			return
		}
		if !sameBits(got, want) {
			t.Fatalf("decoders disagree on %x:\n fast %+v\n  ref %+v", b, got, want)
		}
	})
}

// cutVarint accepts exactly what Decoder.Varint accepts, on the
// encodings of boundary values and on malformed ones.
func TestCutVarintMatchesDecoder(t *testing.T) {
	var inputs [][]byte
	for _, v := range []int64{0, 1, -1, 63, -64, 64, -65, 1 << 20, -(1 << 40), 1<<63 - 1, -1 << 63} {
		inputs = append(inputs, binary.AppendVarint(nil, v))
	}
	inputs = append(inputs,
		nil, []byte{0x80}, []byte{0x80, 0x00}, []byte{0x81, 0x00}, []byte{0xff, 0x7f},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	)
	for _, in := range inputs {
		for _, tail := range [][]byte{nil, {0x05}} {
			b := append(bytes.Clone(in), tail...)
			d := NewDecoder(b, errCorrupt)
			want := d.Varint()
			v, rest, ok := cutVarint(b)
			if ok != (d.Err() == nil) {
				t.Errorf("%x: cutVarint ok=%v, Decoder err=%v", b, ok, d.Err())
				continue
			}
			if ok && (v != want || !bytes.Equal(rest, d.b)) {
				t.Errorf("%x: cutVarint = %d rest %x, Decoder %d rest %x", b, v, rest, want, d.b)
			}
		}
	}
}
