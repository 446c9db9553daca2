package runtime

import (
	"container/list"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"fedgpo/internal/runtime/wire"
)

// cacheMagic opens every binary cache entry. The format generation is
// baked into the magic — a layout change bumps the digit and readers
// of either generation treat the other's files as corrupt (a miss, so
// the cell re-runs and rewrites its entry), never as garbage that
// parses. Generation 2 carried a Result as its binary form
// (Result.AppendBinary) instead of JSON; generation 3 stores the
// payload raw behind a CRC-32C instead of in a DEFLATE frame.
const cacheMagic = "FGC3"

// maxCacheKeyLen bounds the clear-text key header of a binary entry,
// so a corrupt length prefix can never drive a large allocation. Real
// canonical keys are well under 4 KiB even for matrix-generated
// scenario specs.
const maxCacheKeyLen = 1 << 20

// crcLen is the size of the CRC-32C that closes an entry.
const crcLen = 4

// maxEnvelopeBytes bounds a whole entry: the largest header, the
// payload bound shared with the transport (wire.MaxPayloadBytes) and
// the CRC. A pack scan refuses a record that claims more before
// reading it.
const maxEnvelopeBytes = len(cacheMagic) + binary.MaxVarintLen64 + maxCacheKeyLen + wire.MaxPayloadBytes + crcLen

// castagnoli is the CRC-32C table that checksums every entry.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendBinaryEnvelope appends one binary cache entry to b:
//
//	"FGC3" | uvarint(len(key)) | key bytes | payload | CRC-32C
//
// The payload is appendPayload's: v itself for a []byte, v's own
// binary form for an encoding.BinaryAppender (Result appends straight
// after the header), and v's JSON otherwise. The CRC (Castagnoli
// table, big-endian) covers every byte of the entry before it. The canonical key stays in clear
// text ahead of the payload so a reader can reject a foreign entry
// (hash collision, misplaced record) before checksumming the body, and
// so packs remain greppable by key.
func appendBinaryEnvelope(b []byte, key string, v any) ([]byte, error) {
	if len(key) == 0 || len(key) > maxCacheKeyLen {
		return nil, fmt.Errorf("runtime: cache envelope key length %d outside (0, %d]", len(key), maxCacheKeyLen)
	}
	start := len(b)
	b = append(b, cacheMagic...)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	head := len(b)
	b, err := appendPayload(b, v)
	if err != nil {
		return nil, fmt.Errorf("runtime: cache payload: %w", err)
	}
	if len(b)-head > wire.MaxPayloadBytes {
		return nil, fmt.Errorf("runtime: cache payload %d bytes exceeds limit %d", len(b)-head, wire.MaxPayloadBytes)
	}
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli)), nil
}

// appendPayload appends v's cache payload to b: a []byte as it is (an
// encoded pretrain snapshot), v's own binary form when it implements
// encoding.BinaryAppender (Result), JSON otherwise.
// Cache.unmarshalPayload is its inverse; a raw payload reads back into
// the encoding.BinaryUnmarshaler of its form (core.Snapshot).
func appendPayload(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case []byte:
		return append(b, v...), nil
	case encoding.BinaryAppender:
		return v.AppendBinary(b)
	}
	js, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, js...), nil
}

// decodeBinaryEnvelope parses a binary cache entry and returns its
// payload when the envelope is well formed and carries wantKey.
// Anything else — wrong magic, truncation at any offset, a foreign
// key, a payload over the bound, a checksum mismatch — reports
// ok == false: a cache read degrades to a miss, never an error. The
// magic and key are compared before the CRC is computed, so a foreign
// entry costs a header read. The payload is a sub-slice of b, neither
// copied nor decompressed.
func decodeBinaryEnvelope(b []byte, wantKey string) (payload []byte, ok bool) {
	if len(b) < len(cacheMagic) || string(b[:len(cacheMagic)]) != cacheMagic {
		return nil, false
	}
	rest := b[len(cacheMagic):]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || keyLen == 0 || keyLen > maxCacheKeyLen || uint64(len(rest)-n) < keyLen {
		return nil, false
	}
	if string(rest[n:n+int(keyLen)]) != wantKey {
		return nil, false
	}
	body := rest[n+int(keyLen):]
	if len(body) < crcLen || len(body)-crcLen > wire.MaxPayloadBytes {
		return nil, false
	}
	end := len(b) - crcLen
	if crc32.Checksum(b[:end], castagnoli) != binary.BigEndian.Uint32(b[end:]) {
		return nil, false
	}
	return body[: len(body)-crcLen : len(body)-crcLen], true
}

// payloadLRU is the in-process decoded-payload layer: a byte-capped
// LRU over the payload bytes of disk hits, so cells touched repeatedly
// within one run (pretrain snapshots, ForceRun trace re-runs,
// multi-figure sweeps sharing cells) read and checksum their envelope
// once. A payload is a sub-slice of its record's bytes, so the layer
// also retains each entry's key header and CRC. It caches payloads of
// hits only — never write-through — so a corrupted disk entry is still
// discovered by the next fresh read path and in-memory copies never
// outlive an explicit drop (Prune removes evicted hashes from the
// layer too). Methods are not locked; Cache
// serializes access under its own payload mutex.
type payloadLRU struct {
	max  int64
	size int64
	ll   list.List                // front = most recently used
	idx  map[string]*list.Element // hash -> element
}

// payloadEntry is one cached decoded payload.
type payloadEntry struct {
	hash    string
	payload []byte
}

func newPayloadLRU(maxBytes int64) *payloadLRU {
	return &payloadLRU{max: maxBytes, idx: make(map[string]*list.Element)}
}

// get returns the payload bytes cached for hash, refreshing its LRU
// position. Callers must not mutate the returned slice.
func (p *payloadLRU) get(hash string) ([]byte, bool) {
	el, ok := p.idx[hash]
	if !ok {
		return nil, false
	}
	p.ll.MoveToFront(el)
	return el.Value.(*payloadEntry).payload, true
}

// put caches payload under hash, evicting least-recently-used entries
// until the layer fits its byte cap. A payload larger than the whole
// cap is not cached at all.
func (p *payloadLRU) put(hash string, payload []byte) {
	if p.max <= 0 || int64(len(payload)) > p.max {
		return
	}
	if el, ok := p.idx[hash]; ok {
		e := el.Value.(*payloadEntry)
		p.size += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		p.ll.MoveToFront(el)
	} else {
		p.idx[hash] = p.ll.PushFront(&payloadEntry{hash: hash, payload: payload})
		p.size += int64(len(payload))
	}
	for p.size > p.max {
		el := p.ll.Back()
		if el == nil {
			break
		}
		p.remove(el)
	}
}

// drop evicts hash from the layer (no-op when absent).
func (p *payloadLRU) drop(hash string) {
	if el, ok := p.idx[hash]; ok {
		p.remove(el)
	}
}

func (p *payloadLRU) remove(el *list.Element) {
	e := el.Value.(*payloadEntry)
	p.ll.Remove(el)
	delete(p.idx, e.hash)
	p.size -= int64(len(e.payload))
}
