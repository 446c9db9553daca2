// Package wire implements the length-prefixed binary framing every
// transport session speaks: one frame is a 4-byte big-endian length
// prefix followed by that many bytes of DEFLATE-compressed payload. The
// payload is an opaque byte string to this package — the runtime
// package puts its JSON hello and binary request and response
// envelopes inside, and its cache wraps entry payloads in the same
// framing — so the framing, its size guards and its fuzz surface live
// in one place.
//
// Both directions of a frame are bounded: the length prefix is
// validated against MaxFrameBytes before a single payload byte is
// allocated or read, and decompression stops at MaxPayloadBytes — a
// corrupt or hostile stream can make a reader fail, never allocate
// without bound. Read errors carry the 1-based frame index so a
// session failure names the exact frame that broke it.
//
// WriteFrame compresses with pooled writers and ReadFrame inflates with
// pooled readers. Reset makes a used flate.Writer or decompressor
// equivalent to a fresh one, so pooling changes no frame byte, only
// the ~1.1 MB a fresh compressor and the ~40 KB a fresh decompressor
// allocate.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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

// framer is one pooled frame builder: a BestSpeed compressor bound to
// the buffer the whole frame, length prefix included, is assembled in.
// A fresh flate.Writer allocates ~1.1 MB of tables, more than most
// frames carry.
type framer struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

var framerPool = sync.Pool{New: func() any {
	f := &framer{}
	fw, err := flate.NewWriter(&f.buf, flate.BestSpeed)
	if err != nil {
		panic(err) // unreachable: BestSpeed is a valid level
	}
	f.fw = fw
	return f
}}

// inflater is one pooled decompressor plus the scratch buffer it
// inflates into. fr is the io.ReadCloser flate.NewReader returns,
// which also implements flate.Resetter.
type inflater struct {
	fr  io.ReadCloser
	out bytes.Buffer
}

var inflaterPool sync.Pool

// WriteFrame compresses payload and writes it as one frame with a
// single Write, returning the number of bytes put on the wire (prefix
// included).
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(payload), MaxPayloadBytes)
	}
	f := framerPool.Get().(*framer)
	defer framerPool.Put(f)
	var hdr [headerLen]byte // the prefix, filled in below
	f.buf.Reset()
	f.buf.Write(hdr[:])
	f.fw.Reset(&f.buf)
	if _, err := f.fw.Write(payload); err != nil {
		return 0, fmt.Errorf("wire: frame compress: %w", err)
	}
	if err := f.fw.Close(); err != nil {
		return 0, fmt.Errorf("wire: frame compress: %w", err)
	}
	frame := f.buf.Bytes()
	body := len(frame) - headerLen
	if body > MaxFrameBytes {
		return 0, fmt.Errorf("wire: frame body %d bytes exceeds limit %d", body, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))
	return w.Write(frame)
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

// inflate decompresses one frame body, bounded by MaxPayloadBytes,
// with a pooled decompressor. The payload is inflated into pooled
// scratch and returned as an exact-size copy, so it costs one
// allocation of its own size rather than a doubling buffer's growth.
func inflate(body []byte) ([]byte, error) {
	br := bytes.NewReader(body)
	in, ok := inflaterPool.Get().(*inflater)
	if ok {
		// Reset clears any error a corrupt earlier frame left behind.
		if err := in.fr.(flate.Resetter).Reset(br, nil); err != nil {
			return nil, fmt.Errorf("decompress: %w", err)
		}
	} else {
		in = &inflater{fr: flate.NewReader(br)}
	}
	defer inflaterPool.Put(in)
	in.out.Reset()
	n, err := in.out.ReadFrom(io.LimitReader(in.fr, MaxPayloadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	if n > MaxPayloadBytes {
		return nil, fmt.Errorf("decompress: payload exceeds limit %d", int64(MaxPayloadBytes))
	}
	return bytes.Clone(in.out.Bytes()), nil
}
