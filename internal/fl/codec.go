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
// an outsized allocation. The head goes through a Decoder; History,
// nearly all of a cell's bytes, is decoded in one pass straight off
// the slice: one length check for a record's five floats and
// cutVarint for its four ints. It accepts exactly the inputs a
// Decoder read of every field would (FuzzResultBinaryMatchesReference
// holds it to that), and shares no memory with data.
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
	b := d.b
	for i := range out.History {
		h := &out.History[i]
		var ok bool
		if h.Round, b, ok = cutVarint(b); !ok || len(b) < 5*8 {
			d.Fail("round %d: truncated or bad varint", i)
			break
		}
		h.Accuracy = readFloat(b[0:])
		h.RoundSeconds = readFloat(b[8:])
		h.EnergyJ = readFloat(b[16:])
		h.MeanB = readFloat(b[24:])
		h.MeanE = readFloat(b[32:])
		b = b[5*8:]
		var ok1, ok2, ok3 bool
		h.PlannedK, b, ok1 = cutVarint(b)
		h.AggregatedK, b, ok2 = cutVarint(b)
		h.Dropped, b, ok3 = cutVarint(b)
		if !ok1 || !ok2 || !ok3 {
			d.Fail("round %d: truncated or bad varint", i)
			break
		}
	}
	d.b = b // after a failure, Finish reports it whatever b holds
	if err := d.Finish(); err != nil {
		return err
	}
	*r = out
	return nil
}

// readFloat reads an AppendFloat value from the front of b, which
// holds at least 8 bytes.
func readFloat(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// cutVarint splits one binary.AppendVarint value off the front of b.
// It accepts exactly what Decoder.Varint does: a minimal encoding of a
// value that fits an int. A one-byte value (-64 to 63: a round's
// participant counts, and its first 63 round numbers) takes the fast
// path. rest is nil when ok is false.
func cutVarint(b []byte) (v int, rest []byte, ok bool) {
	if len(b) > 0 && b[0] < 0x80 {
		u := b[0]
		return int(u>>1) ^ -int(u&1), b[1:], true
	}
	// Here a valid encoding has at least two bytes, so a last byte of
	// zero is a trailing 0x00 continuation group: not minimal.
	u, n := binary.Uvarint(b)
	if n <= 0 || b[n-1] == 0 {
		return 0, nil, false
	}
	x := int64(u>>1) ^ -int64(u&1)
	if int64(int(x)) != x {
		return 0, nil, false
	}
	return int(x), b[n:], true
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
