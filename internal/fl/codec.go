package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fedgpo/internal/device"
)

// The binary form of a Result leaves out the derived Outcome, which
// UnmarshalBinary leaves zero. In field order, every float is its
// IEEE-754 bits as 8 little-endian bytes, every int a minimal signed
// varint, every length a minimal uvarint:
//
//	uvarint len(Controller) | Controller
//	byte EnergyByCategory mask | f64 per present category, ascending
//	f64 ControllerOverheadSec
//	uvarint len(History)+1 | History records
//
// The mask byte is 0 for a nil map; otherwise bit 0 is set and bit
// 1+c marks category c present, so nil and empty maps stay apart. The
// History length is stored plus one for the same reason: 0 is nil.
// A record is
//
//	varint Round | f64 Accuracy | f64 RoundSeconds | f64 EnergyJ
//	f64 MeanB | f64 MeanE | varint PlannedK | varint AggregatedK
//	varint Dropped
//
// The format has exactly one encoding per value, so any input
// UnmarshalBinary accepts re-encodes to the same bytes.

// minRecordBytes is the smallest encoded RoundRecord: five floats and
// four one-byte varints. It bounds the History a length prefix may
// claim by the bytes actually left.
const minRecordBytes = 5*8 + 4

// maxEnergyMask is one past the largest valid EnergyByCategory mask.
const maxEnergyMask = 1 << (1 + device.NumCategories)

// BinarySize returns the exact number of bytes AppendBinary adds, so a
// caller can size its buffer once.
func (r Result) BinarySize() int {
	n := BytesSize(len(r.Controller)) + 1 + 8*len(r.EnergyByCategory) + 8 +
		uvarintLen(uint64(len(r.History))+1)
	for i := range r.History {
		h := &r.History[i]
		n += 5*8 + varintLen(h.Round) + varintLen(h.PlannedK) +
			varintLen(h.AggregatedK) + varintLen(h.Dropped)
	}
	return n
}

// AppendBinary appends the binary form of r to b. It fails only on an
// EnergyByCategory key outside the device categories.
func (r Result) AppendBinary(b []byte) ([]byte, error) {
	var mask byte
	if r.EnergyByCategory != nil {
		mask = 1
		for cat := range r.EnergyByCategory {
			if cat < 0 || cat >= device.NumCategories {
				return b, fmt.Errorf("fl: encoding result: energy category %d out of range", int(cat))
			}
			mask |= 1 << (1 + cat)
		}
	}
	b = AppendBytes(b, r.Controller)
	b = append(b, mask)
	for cat := device.Category(0); cat < device.NumCategories; cat++ {
		if mask&(1<<(1+cat)) != 0 {
			b = AppendFloat(b, r.EnergyByCategory[cat])
		}
	}
	b = AppendFloat(b, r.ControllerOverheadSec)
	b = AppendCount(b, len(r.History), r.History == nil)
	for i := range r.History {
		h := &r.History[i]
		b = binary.AppendVarint(b, int64(h.Round))
		b = AppendFloat(b, h.Accuracy)
		b = AppendFloat(b, h.RoundSeconds)
		b = AppendFloat(b, h.EnergyJ)
		b = AppendFloat(b, h.MeanB)
		b = AppendFloat(b, h.MeanE)
		b = binary.AppendVarint(b, int64(h.PlannedK))
		b = binary.AppendVarint(b, int64(h.AggregatedK))
		b = binary.AppendVarint(b, int64(h.Dropped))
	}
	return b, nil
}

// UnmarshalBinary decodes what AppendBinary wrote, overwriting r and
// leaving r.Outcome zero. It is total: truncation, trailing bytes, a
// non-minimal or out-of-range varint, a bad mask byte, or a History
// longer than the bytes left could hold is an error, never a panic or
// an outsized allocation.
func (r *Result) UnmarshalBinary(data []byte) error {
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
		return err
	}
	*r = out
	return nil
}

// BytesSize is the encoded size of an n-byte length-prefixed field:
// the framing Controller uses, shared with callers that wrap a Result
// in fields of their own.
func BytesSize(n int) int { return uvarintLen(uint64(n)) + n }

// AppendBytes appends s as a length-prefixed field: a minimal uvarint
// length, then the bytes.
func AppendBytes[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// CutBytes splits one AppendBytes field off the front of b. field
// aliases b. ok is false on a truncated or non-minimal length prefix
// or a length past the end of b.
func CutBytes(b []byte) (field, rest []byte, ok bool) {
	d := NewDecoder(b, errCorrupt)
	field = d.Field()
	return field, d.b, d.err == nil
}

// AppendFloat appends v as its IEEE-754 bits, 8 bytes little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendCount appends the length of a slice or map that may be nil: a
// minimal uvarint, 0 for nil and n+1 otherwise, so nil and empty stay
// apart. Decoder.Count reads it.
func AppendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int) int {
	// The zig-zag mapping binary.AppendVarint uses.
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	return uvarintLen(u)
}

// errCorrupt is wrapped by every Result decode failure.
var errCorrupt = errors.New("fl: corrupt binary result")

// Decoder reads a binary form built from this file's primitives front
// to back: Result's, and the forms of other packages that use the same
// primitives. The first failure sticks: later reads return zero values
// and consume nothing, so a decode runs to its end and reports the
// first error. Nothing it returns is larger than the bytes it was
// given: Field aliases them, and Count bounds a length prefix by the
// bytes left.
type Decoder struct {
	b       []byte
	err     error
	corrupt error
}

// NewDecoder returns a Decoder over b whose every failure wraps
// corrupt.
func NewDecoder(b []byte, corrupt error) *Decoder {
	return &Decoder{b: b, corrupt: corrupt}
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish fails on bytes left over and returns the first failure.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Fail records a failure unless one is already recorded, and stops
// the decode.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.corrupt}, args...)...)
	}
	d.b = nil
}

func (d *Decoder) byte() byte {
	if len(d.b) < 1 {
		d.Fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads an AppendBool byte; any byte but 0 or 1 fails.
func (d *Decoder) Bool() bool {
	v := d.byte()
	if v > 1 {
		d.Fail("bool byte %#x", v)
	}
	return v == 1
}

// Float reads an AppendFloat value.
func (d *Decoder) Float() float64 {
	if len(d.b) < 8 {
		d.Fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// uvarint reads a minimal uvarint: a longer encoding of the same value
// (a trailing 0x00 continuation group) would not re-encode to itself.
func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.Fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a minimal binary.AppendVarint value that fits an int.
func (d *Decoder) Varint() int {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		d.Fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads an AppendCount length of elements that each take at
// least minBytes bytes. ok is false for nil and after a failure; a
// count the bytes left could not hold fails, so the caller may
// allocate n elements.
func (d *Decoder) Count(minBytes int) (n int, ok bool) {
	c := d.uvarint()
	if c == 0 || d.err != nil {
		return 0, false
	}
	if c-1 > uint64(len(d.b)/minBytes) {
		d.Fail("%d elements in %d bytes", c-1, len(d.b))
		return 0, false
	}
	return int(c - 1), true
}

// Field reads one AppendBytes field, aliasing the input.
func (d *Decoder) Field() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.Fail("length %d past the end", n)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}
