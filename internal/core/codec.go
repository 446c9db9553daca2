package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"maps"
	"slices"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/rl"
)

// SnapshotFormat names the binary form below. Pretrain cache keys
// carry it, so an entry written in another form is a plain miss; change
// it whenever the layout changes.
const SnapshotFormat = "bin1"

// The binary form of a Snapshot uses fl's codec primitives: every
// float is its IEEE-754 bits as 8 little-endian bytes, every int a
// minimal signed varint, every string a length-prefixed field, every
// bool one byte (0 or 1), and every slice or map length a count
// (fl.AppendCount: 0 for nil, otherwise length+1). Map entries follow
// in ascending key order. In field order:
//
//	count | per local table: key | table           LocalTables
//	byte 0, or 1 | table                            KTable
//	count | per profile: key | profile              TableProfiles
//	norm | norm                                     GlobalNorm, KLocalNorm
//	count | per normalizer: varint category | norm  LocalNorm
//	f64 Deadline | bool Frozen | varint FrozenRound
//
// where
//
//	table   = count | per Q row: state | count | f64 per value
//	          count | bool per Mask entry
//	          f64 Epsilon | varint Updates | f64 Delta | bool DeltaInit
//	profile = varint Category | Name | Instance | f64 GFLOPS | f64 RAMBytes
//	          curve CPU | curve GPU | f64 IdleWatts | f64 WaitWatts
//	curve   = f64 MaxFreqGHz | varint Steps | f64 PeakWatts | f64 FloorWatts
//	norm    = f64 Value | bool Init | varint Adds
//
// The form has exactly one encoding per value: UnmarshalBinary refuses
// keys out of order or repeated, bool bytes other than 0 and 1, and
// non-minimal varints, so any input it accepts re-encodes to the same
// bytes.

// The smallest encoding of each repeated element. Decoder.Count bounds
// a length prefix by them, so no count claims more elements than the
// bytes left could hold.
const (
	minTableBytes   = 1 + 1 + 8 + 1 + 8 + 1
	minRowBytes     = 1 + 1
	minCurveBytes   = 8 + 1 + 8 + 8
	minProfileBytes = 1 + 1 + 1 + 8 + 8 + 2*minCurveBytes + 8 + 8
	minNormBytes    = 8 + 1 + 1
)

// errCorruptSnapshot is wrapped by every decode failure.
var errCorruptSnapshot = errors.New("core: corrupt binary snapshot")

// AppendBinary appends the binary form of s to b.
func (s Snapshot) AppendBinary(b []byte) []byte {
	b = appendMap(b, s.LocalTables, fl.AppendBytes[string], appendTable)
	b = fl.AppendBool(b, s.KTable != nil)
	if s.KTable != nil {
		b = appendTable(b, *s.KTable)
	}
	b = appendMap(b, s.TableProfiles, fl.AppendBytes[string], appendProfile)
	b = appendNorm(b, s.GlobalNorm)
	b = appendNorm(b, s.KLocalNorm)
	b = appendMap(b, s.LocalNorm, appendCategory, appendNorm)
	b = fl.AppendFloat(b, s.Deadline)
	b = fl.AppendBool(b, s.Frozen)
	return binary.AppendVarint(b, int64(s.FrozenRound))
}

// appendMap appends m's count, then each entry's key and value in
// ascending key order.
func appendMap[K cmp.Ordered, V any](b []byte, m map[K]V, key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	b = fl.AppendCount(b, len(m), m == nil)
	for _, k := range slices.Sorted(maps.Keys(m)) {
		b = val(key(b, k), m[k])
	}
	return b
}

func appendTable(b []byte, t rl.TableSnapshot) []byte {
	b = appendMap(b, t.Q, fl.AppendBytes[string], appendRow)
	b = fl.AppendCount(b, len(t.Mask), t.Mask == nil)
	for _, v := range t.Mask {
		b = fl.AppendBool(b, v)
	}
	b = fl.AppendFloat(b, t.Epsilon)
	b = binary.AppendVarint(b, int64(t.Updates))
	b = fl.AppendFloat(b, t.Delta)
	return fl.AppendBool(b, t.DeltaInit)
}

func appendRow(b []byte, row []float64) []byte {
	b = fl.AppendCount(b, len(row), row == nil)
	for _, v := range row {
		b = fl.AppendFloat(b, v)
	}
	return b
}

func appendProfile(b []byte, p device.Profile) []byte {
	b = appendCategory(b, p.Category)
	b = fl.AppendBytes(b, p.Name)
	b = fl.AppendBytes(b, p.Instance)
	b = fl.AppendFloat(b, p.GFLOPS)
	b = fl.AppendFloat(b, p.RAMBytes)
	b = appendCurve(b, p.CPU)
	b = appendCurve(b, p.GPU)
	b = fl.AppendFloat(b, p.IdleWatts)
	return fl.AppendFloat(b, p.WaitWatts)
}

func appendCurve(b []byte, c device.PowerCurve) []byte {
	b = fl.AppendFloat(b, c.MaxFreqGHz)
	b = binary.AppendVarint(b, int64(c.Steps))
	b = fl.AppendFloat(b, c.PeakWatts)
	return fl.AppendFloat(b, c.FloorWatts)
}

func appendNorm(b []byte, n NormalizerSnapshot) []byte {
	b = fl.AppendFloat(b, n.Value)
	b = fl.AppendBool(b, n.Init)
	return binary.AppendVarint(b, int64(n.Adds))
}

func appendCategory(b []byte, c device.Category) []byte {
	return binary.AppendVarint(b, int64(c))
}

// UnmarshalBinary decodes what AppendBinary wrote, overwriting s. It
// is total: truncation, trailing bytes, a count longer than the bytes
// left could hold, a key out of order and any other byte AppendBinary
// would not write is an error, never a panic or an allocation larger
// than a constant factor of len(data). It checks the form only;
// Validate checks that the decoded snapshot can be restored. The
// result shares no memory with data.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := fl.NewDecoder(data, errCorruptSnapshot)
	var out Snapshot
	out.LocalTables = decodeMap(d, 1+minTableBytes, decodeString, decodeTable)
	if d.Bool() {
		t := decodeTable(d)
		out.KTable = &t
	}
	out.TableProfiles = decodeMap(d, 1+minProfileBytes, decodeString, decodeProfile)
	out.GlobalNorm = decodeNorm(d)
	out.KLocalNorm = decodeNorm(d)
	out.LocalNorm = decodeMap(d, 1+minNormBytes, decodeCategory, decodeNorm)
	out.Deadline = d.Float()
	out.Frozen = d.Bool()
	out.FrozenRound = d.Varint()
	if err := d.Finish(); err != nil {
		return err
	}
	*s = out
	return nil
}

// decodeMap reads an appendMap map whose entries each take at least
// minBytes bytes. A key not above the one before it fails the decode.
func decodeMap[K cmp.Ordered, V any](d *fl.Decoder, minBytes int, key func(*fl.Decoder) K, val func(*fl.Decoder) V) map[K]V {
	n, ok := d.Count(minBytes)
	if !ok {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := range n {
		k := key(d)
		if i > 0 && k <= prev {
			d.Fail("key %v after %v", k, prev)
		}
		if d.Err() != nil {
			break
		}
		m[k] = val(d)
		prev = k
	}
	return m
}

func decodeTable(d *fl.Decoder) rl.TableSnapshot {
	var t rl.TableSnapshot
	t.Q = decodeMap(d, minRowBytes, decodeString, decodeRow)
	if n, ok := d.Count(1); ok {
		t.Mask = make([]bool, n)
		for i := range t.Mask {
			t.Mask[i] = d.Bool()
		}
	}
	t.Epsilon = d.Float()
	t.Updates = d.Varint()
	t.Delta = d.Float()
	t.DeltaInit = d.Bool()
	return t
}

func decodeRow(d *fl.Decoder) []float64 {
	n, ok := d.Count(8)
	if !ok {
		return nil
	}
	row := make([]float64, n)
	for i := range row {
		row[i] = d.Float()
	}
	return row
}

func decodeProfile(d *fl.Decoder) device.Profile {
	return device.Profile{
		Category:  decodeCategory(d),
		Name:      decodeString(d),
		Instance:  decodeString(d),
		GFLOPS:    d.Float(),
		RAMBytes:  d.Float(),
		CPU:       decodeCurve(d),
		GPU:       decodeCurve(d),
		IdleWatts: d.Float(),
		WaitWatts: d.Float(),
	}
}

func decodeCurve(d *fl.Decoder) device.PowerCurve {
	return device.PowerCurve{MaxFreqGHz: d.Float(), Steps: d.Varint(), PeakWatts: d.Float(), FloorWatts: d.Float()}
}

func decodeNorm(d *fl.Decoder) NormalizerSnapshot {
	return NormalizerSnapshot{Value: d.Float(), Init: d.Bool(), Adds: d.Varint()}
}

// decodeString reads a string field into memory of its own.
func decodeString(d *fl.Decoder) string { return string(d.Field()) }

func decodeCategory(d *fl.Decoder) device.Category { return device.Category(d.Varint()) }
