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
			b = appendFloat(b, r.EnergyByCategory[cat])
		}
	}
	b = appendFloat(b, r.ControllerOverheadSec)
	if r.History == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(r.History))+1)
	}
	for i := range r.History {
		h := &r.History[i]
		b = binary.AppendVarint(b, int64(h.Round))
		b = appendFloat(b, h.Accuracy)
		b = appendFloat(b, h.RoundSeconds)
		b = appendFloat(b, h.EnergyJ)
		b = appendFloat(b, h.MeanB)
		b = appendFloat(b, h.MeanE)
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
	d := decoder{b: data}
	var out Result
	out.Controller = string(d.field())
	mask := d.byte()
	if mask >= maxEnergyMask || (mask != 0 && mask&1 == 0) {
		d.fail("energy mask %#x", mask)
	}
	if d.err == nil && mask != 0 {
		out.EnergyByCategory = make(map[device.Category]float64, device.NumCategories)
		for cat := device.Category(0); cat < device.NumCategories; cat++ {
			if mask&(1<<(1+cat)) != 0 {
				out.EnergyByCategory[cat] = d.float()
			}
		}
	}
	out.ControllerOverheadSec = d.float()
	if n := d.uvarint(); n > 0 && d.err == nil {
		n--
		if n > uint64(len(d.b)/minRecordBytes) {
			d.fail("history of %d records in %d bytes", n, len(d.b))
		} else {
			out.History = make([]RoundRecord, n)
		}
	}
	for i := range out.History {
		h := &out.History[i]
		h.Round = d.varint()
		h.Accuracy = d.float()
		h.RoundSeconds = d.float()
		h.EnergyJ = d.float()
		h.MeanB = d.float()
		h.MeanE = d.float()
		h.PlannedK = d.varint()
		h.AggregatedK = d.varint()
		h.Dropped = d.varint()
		if d.err != nil {
			break
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return d.err
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
	d := decoder{b: b}
	field = d.field()
	return field, d.b, d.err == nil
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
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

// errCorrupt is wrapped by every decode failure.
var errCorrupt = errors.New("fl: corrupt binary result")

// decoder reads the binary form front to back. The first failure
// sticks: later reads return zero values and consume nothing, so a
// decode runs to its end and reports the first error.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errCorrupt}, args...)...)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) < 1 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// uvarint reads a minimal uvarint: a longer encoding of the same value
// (a trailing 0x00 continuation group) would not re-encode to itself.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		d.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// field reads one length-prefixed field (AppendBytes).
func (d *decoder) field() []byte { return d.bytes(d.uvarint()) }

func (d *decoder) bytes(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail("length %d past the end", n)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}
