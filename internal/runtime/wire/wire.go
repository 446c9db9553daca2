// Package wire implements the length-prefixed framing every transport
// session speaks: one frame is a 4-byte big-endian length prefix
// followed by that many payload bytes, stored raw. The payload is an
// opaque byte string to this package — the runtime package puts its
// JSON hello and binary request and response envelopes inside, and its
// cache bounds records by the same MaxFrameBytes — so the framing, its
// size guard and its fuzz surface live in one place.
//
// The length prefix is validated against MaxFrameBytes before a single
// payload byte is allocated or read, and the body is read in chunks
// as it arrives, so a corrupt or hostile stream can make a reader
// fail, never allocate without bound. Read errors carry the 1-based
// frame index so a session failure names the exact frame that broke
// it.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

const (
	// MaxFrameBytes bounds the payload of one frame. A length prefix
	// above it fails the read before any allocation.
	MaxFrameBytes = 64 << 20
	// headerLen is the length prefix size.
	headerLen = 4
)

// bodyChunk is the step readBody grows its buffer by: memory is
// committed as bytes actually arrive, so a truncated stream whose
// prefix claims MaxFrameBytes costs one chunk, not the claim.
const bodyChunk = 1 << 20

// WriteFrame writes payload as one frame with a single Write,
// returning the number of bytes put on the wire (prefix included).
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxFrameBytes {
		return 0, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	frame := make([]byte, headerLen, headerLen+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	return w.Write(append(frame, payload...))
}

// ReadFrame reads one frame and returns its payload plus the number of
// wire bytes consumed. frame is the 1-based frame index used in error
// messages. A clean EOF at a frame boundary returns io.EOF unwrapped,
// so callers can end sessions cleanly; EOF inside a frame is a
// truncation error.
func ReadFrame(r io.Reader, frame int) ([]byte, int, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: frame %d: reading length prefix: %w", frame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("wire: frame %d: length prefix %d exceeds limit %d", frame, n, MaxFrameBytes)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return nil, 0, fmt.Errorf("wire: frame %d: reading %d-byte body: %w", frame, n, err)
	}
	return body, headerLen + int(n), nil
}

// readBody reads exactly n bytes, growing the buffer chunk by chunk so
// a lying length prefix over a short stream never commits more memory
// than the stream delivers.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, bodyChunk))
	for len(body) < n {
		m := min(n-len(body), bodyChunk)
		off := len(body)
		body = slices.Grow(body, m)[:off+m]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}
