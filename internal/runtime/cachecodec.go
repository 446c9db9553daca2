package runtime

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"

	"fedgpo/internal/runtime/wire"
)

// cacheMagic opens every binary cache entry. The format generation is
// baked into the magic — a layout change bumps the digit and readers
// of either generation treat the other's files as corrupt (a miss, so
// the cell re-runs and rewrites its entry), never as garbage that
// parses. Generation 2 carries a Result as its binary form
// (Result.AppendBinary) instead of JSON.
const cacheMagic = "FGC2"

// binExt is the extension of every cache entry on disk.
const binExt = ".binz"

// maxCacheKeyLen bounds the clear-text key header of a binary entry,
// so a corrupt length prefix can never drive a large allocation. Real
// canonical keys are well under 4 KiB even for matrix-generated
// scenario specs.
const maxCacheKeyLen = 1 << 20

// encodeBinaryEnvelope renders one binary cache entry:
//
//	"FGC2" | uvarint(len(key)) | key bytes | wire frame(payload)
//
// The canonical key stays uncompressed so a reader can reject a
// foreign entry (hash collision, copied file) before inflating a
// single payload byte, and so on-disk entries remain greppable by key.
// The payload rides one wire-package frame — the same bounded,
// DEFLATE-compressed length-prefixed framing the transport plane uses.
func encodeBinaryEnvelope(key string, payload []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > maxCacheKeyLen {
		return nil, fmt.Errorf("runtime: cache envelope key length %d outside (0, %d]", len(key), maxCacheKeyLen)
	}
	var buf bytes.Buffer
	buf.Grow(len(cacheMagic) + binary.MaxVarintLen64 + len(key) + len(payload)/2)
	buf.WriteString(cacheMagic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	buf.Write(tmp[:n])
	buf.WriteString(key)
	if _, err := wire.WriteFrame(&buf, payload); err != nil {
		return nil, fmt.Errorf("runtime: cache envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBinaryEnvelope parses a binary cache entry and returns its
// payload when the envelope is well formed and carries wantKey.
// Anything else — wrong magic, truncation at any offset, a foreign
// key, a corrupt frame — reports ok == false: a cache read degrades to
// a miss, never an error. The key comparison happens before the
// payload frame is inflated, so foreign entries cost a header read.
func decodeBinaryEnvelope(b []byte, wantKey string) (payload []byte, ok bool) {
	if len(b) < len(cacheMagic) || string(b[:len(cacheMagic)]) != cacheMagic {
		return nil, false
	}
	b = b[len(cacheMagic):]
	keyLen, n := binary.Uvarint(b)
	if n <= 0 || keyLen == 0 || keyLen > maxCacheKeyLen || uint64(len(b)-n) < keyLen {
		return nil, false
	}
	key := b[n : n+int(keyLen)]
	if string(key) != wantKey {
		return nil, false
	}
	body := bytes.NewReader(b[n+int(keyLen):])
	payload, _, err := wire.ReadFrame(body, 1)
	if err != nil || body.Len() != 0 {
		// Trailing bytes after the payload frame mean the file is not an
		// envelope this writer produced; treat it as corrupt.
		return nil, false
	}
	return payload, true
}

// payloadLRU is the in-process decoded-payload layer: a byte-capped
// LRU over the payload bytes of disk hits, so cells touched repeatedly
// within one run (pretrain snapshots, ForceRun trace re-runs,
// multi-figure sweeps sharing cells) read and inflate their envelope
// once. It caches payloads of hits only — never write-through — so a
// corrupted disk entry is still discovered by the next fresh read path
// and in-memory copies never outlive an explicit drop (Prune removes
// evicted hashes from the layer too). Methods are not locked; Cache
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
