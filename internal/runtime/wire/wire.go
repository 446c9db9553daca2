// Package wire implements the length-prefixed binary framing every
// transport session speaks: one frame is a 4-byte big-endian length
// prefix followed by that many bytes of DEFLATE-compressed payload. The
// payload is an opaque byte string to this package — the runtime
// package puts the JSON hello and batch envelopes inside, and its cache
// wraps entry payloads in the same framing — so the framing, its size
// guards and its fuzz surface live in one place.
//
// Both directions of a frame are bounded: the length prefix is
// validated against MaxFrameBytes before a single payload byte is
// allocated or read, and decompression stops at MaxPayloadBytes — a
// corrupt or hostile stream can make a reader fail, never allocate
// without bound. Read errors carry the 1-based frame index so a
// session failure names the exact frame that broke it.
//
// WriteFrame compresses with pooled writers. Reset makes a used
// flate.Writer equivalent to a fresh one, so pooling changes no frame
// byte, only the ~1.1 MB a fresh compressor allocates.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

const (
	// MaxFrameBytes bounds the on-wire (compressed) body of one frame.
	// A length prefix above it fails the read before any allocation.
	MaxFrameBytes = 64 << 20
	// MaxPayloadBytes bounds the decompressed payload of one frame, so
	// a malicious deflate stream cannot expand without bound.
	MaxPayloadBytes = 256 << 20
	// headerLen is the length prefix size.
	headerLen = 4
)

// bodyChunk is the step readBody grows its buffer by: memory is
// committed as bytes actually arrive, so a truncated stream whose
// prefix claims MaxFrameBytes costs one chunk, not the claim.
const bodyChunk = 1 << 20

// writerPool recycles BestSpeed compressors across frames: a fresh
// flate.Writer allocates ~1.1 MB of tables, more than most frames carry.
var writerPool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // unreachable: BestSpeed is a valid level
	}
	return fw
}}

// WriteFrame compresses payload and writes it as one frame, returning
// the number of bytes put on the wire (prefix included).
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(payload), MaxPayloadBytes)
	}
	var body bytes.Buffer
	fw := writerPool.Get().(*flate.Writer)
	defer writerPool.Put(fw)
	fw.Reset(&body)
	if _, err := fw.Write(payload); err != nil {
		return 0, fmt.Errorf("wire: frame compress: %w", err)
	}
	if err := fw.Close(); err != nil {
		return 0, fmt.Errorf("wire: frame compress: %w", err)
	}
	if body.Len() > MaxFrameBytes {
		return 0, fmt.Errorf("wire: frame body %d bytes exceeds limit %d", body.Len(), MaxFrameBytes)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(body.Bytes())
	return headerLen + n, err
}

// ReadFrame reads one frame and returns its decompressed payload plus
// the number of wire bytes consumed. frame is the 1-based frame index
// used in error messages. A clean EOF at a frame boundary returns
// io.EOF unwrapped, so callers can end sessions cleanly; EOF inside a
// frame is a truncation error.
func ReadFrame(r io.Reader, frame int) ([]byte, int, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: frame %d: reading length prefix: %w", frame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("wire: frame %d: length prefix %d outside (0, %d]", frame, n, MaxFrameBytes)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return nil, 0, fmt.Errorf("wire: frame %d: reading %d-byte body: %w", frame, n, err)
	}
	payload, err := inflate(body)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: frame %d: %w", frame, err)
	}
	return payload, headerLen + int(n), nil
}

// readBody reads exactly n bytes, growing the buffer chunk by chunk so
// a lying length prefix over a short stream never commits more memory
// than the stream delivers.
func readBody(r io.Reader, n int) ([]byte, error) {
	chunk := bodyChunk
	if chunk > n {
		chunk = n
	}
	body := make([]byte, 0, chunk)
	for len(body) < n {
		m := n - len(body)
		if m > bodyChunk {
			m = bodyChunk
		}
		off := len(body)
		body = append(body, make([]byte, m)...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}

// inflate decompresses one frame body, bounded by MaxPayloadBytes.
func inflate(body []byte) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(body))
	defer fr.Close()
	var out bytes.Buffer
	n, err := io.Copy(&out, io.LimitReader(fr, MaxPayloadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	if n > MaxPayloadBytes {
		return nil, fmt.Errorf("decompress: payload exceeds limit %d", int64(MaxPayloadBytes))
	}
	return out.Bytes(), nil
}

// ErrTruncated reports whether a ReadFrame error was caused by the
// stream ending inside a frame (as opposed to a corrupt or oversized
// one) — a worker crash mid-write looks like this, and coordinators
// treat it exactly like a connection error.
func ErrTruncated(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF)
}
