package runtime

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// packExt is the extension of every pack file in a cache directory.
const packExt = ".fgcp"

// recordLenBytes is the big-endian uint32 envelope length that opens
// every pack record.
const recordLenBytes = 4

// minEnvelopeBytes is the smallest well-formed envelope: the magic, a
// one-byte key length, a one-byte key and the CRC.
const minEnvelopeBytes = len(cacheMagic) + 1 + 1 + crcLen

// maxRecordHead bounds the bytes a scan needs to index one record: the
// length prefix, the magic, the key-length varint and the largest key.
// It is the most a scan's buffer ever grows to.
const maxRecordHead = recordLenBytes + len(cacheMagic) + binary.MaxVarintLen64 + maxCacheKeyLen

// scanWindow is the read size of a pack scan. One read covers the
// heads of every record that starts inside it; since most records run
// to kilobytes, a small window keeps the scan from copying the
// payloads it skips.
const scanWindow = 1 << 10

// appendRecord appends one pack record to b:
//
//	uint32 BE envelope length | envelope (appendBinaryEnvelope)
//
// The envelope is built in place after a 4-byte hole that then takes
// its length, so a record costs one buffer. appendBinaryEnvelope keeps
// the envelope within maxEnvelopeBytes, which fits the uint32.
func appendRecord(b []byte, key string, v any) ([]byte, error) {
	start := len(b)
	b = slices.Grow(b, recordLenBytes+len(cacheMagic)+binary.MaxVarintLen64+len(key))
	b = append(b, make([]byte, recordLenBytes)...)
	b, err := appendBinaryEnvelope(b, key, v)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-recordLenBytes))
	return b, nil
}

// recordHead parses the head of the pack record that starts h, where
// avail bytes of the pack remain from that offset. It returns the
// envelope length n and the record's clear-text key. need > 0 asks for
// a longer h (never more than avail or maxRecordHead). stop reports a
// record the scan cannot index or step over: one that runs past the end
// of the pack (a torn or in-flight tail), or whose length, magic or key
// header is malformed.
func recordHead(h []byte, avail int64) (n int, key []byte, need int, stop bool) {
	if avail < recordLenBytes {
		return 0, nil, 0, true
	}
	if len(h) < recordLenBytes {
		return 0, nil, recordLenBytes, false
	}
	n = int(binary.BigEndian.Uint32(h))
	if n < minEnvelopeBytes || n > maxEnvelopeBytes || int64(recordLenBytes+n) > avail {
		return 0, nil, 0, true
	}
	h = h[:min(len(h), recordLenBytes+n)]
	fixed := min(recordLenBytes+len(cacheMagic)+binary.MaxVarintLen64, recordLenBytes+n)
	if len(h) < fixed {
		return 0, nil, fixed, false
	}
	env := h[recordLenBytes:]
	if string(env[:len(cacheMagic)]) != cacheMagic {
		return 0, nil, 0, true
	}
	keyLen, k := binary.Uvarint(env[len(cacheMagic) : fixed-recordLenBytes])
	if k <= 0 || keyLen == 0 || keyLen > maxCacheKeyLen || uint64(len(cacheMagic)+k+crcLen)+keyLen > uint64(n) {
		return 0, nil, 0, true
	}
	head := recordLenBytes + len(cacheMagic) + k + int(keyLen)
	if len(h) < head {
		return 0, nil, head, false
	}
	return n, h[head-int(keyLen) : head], 0, false
}

// scanRecords walks the records of a pack from offset off to size and
// calls visit with each one's key and envelope extent. It reads only
// record heads, through one buffer it grows to at most maxRecordHead.
// It stops at the first record it cannot index (see recordHead) or
// read, and returns the offset just past the last record it visited: a
// rescan resumes there, so a tail still being written is indexed once
// it is complete. The key passed to visit is only valid during the
// call.
func scanRecords(r io.ReaderAt, off, size int64, visit func(key []byte, off int64, n int)) int64 {
	var buf, win []byte // win holds the pack bytes from winOff
	winOff := off
	for {
		var h []byte
		if rel := off - winOff; rel < int64(len(win)) {
			h = win[rel:]
		}
		n, key, need, stop := recordHead(h, size-off)
		if stop {
			return off
		}
		if need > 0 {
			want := max(need, scanWindow)
			if cap(buf) < want {
				buf = make([]byte, want)
			}
			got, _ := r.ReadAt(buf[:min(int64(want), size-off)], off)
			if got < need {
				return off
			}
			win, winOff = buf[:got], off
			continue
		}
		visit(key, off+recordLenBytes, n)
		off += int64(recordLenBytes + n)
	}
}

// newPackName names a pack after its creation time, writer process and
// a random tag. The zero-padded nanosecond time makes name order
// creation order, which is the order a fresh index scans packs in.
func newPackName() string {
	return fmt.Sprintf("pack-%019d-%d-%08x%s", time.Now().UnixNano(), os.Getpid(), rand.Uint32(), packExt)
}

// createPack creates a new, empty pack in dir for appending. O_EXCL
// makes the pack this writer's alone, and O_APPEND makes each record
// one append.
func createPack(dir string) (*os.File, string, error) {
	name := newPackName()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	return f, name, err
}

// staleCacheFile reports a file of the one-file-per-entry layout this
// cache no longer reads: a <64-hex>.binz entry, or a put-* temp file a
// writer left behind mid-publish. Prune deletes them.
func staleCacheFile(name string) bool {
	if strings.HasPrefix(name, "put-") {
		return true
	}
	hash, ok := strings.CutSuffix(name, ".binz")
	if !ok || len(hash) != 64 {
		return false
	}
	return strings.Trim(hash, "0123456789abcdef") == ""
}
