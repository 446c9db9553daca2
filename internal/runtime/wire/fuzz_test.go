package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// FuzzReadFrame throws arbitrary byte streams at the frame reader. The
// invariants under fuzz: never panic, never allocate beyond the
// frame bound (enforced structurally — prefixes are validated
// before allocation and bodies grow only as bytes arrive), report a
// frame-indexed error for every malformed stream, and re-encode every
// accepted frame to exactly its input bytes.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame, a truncated one, an oversized prefix, a
	// prefix claiming more bytes than the stream holds, and two frames
	// back to back, the second one empty.
	var valid bytes.Buffer
	if _, err := WriteFrame(&valid, []byte(`{"hello":true,"proto":12,"keyVersion":"v4","capacity":2}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	huge := make([]byte, headerLen)
	binary.BigEndian.PutUint32(huge, MaxFrameBytes+1)
	f.Add(huge)
	lying := make([]byte, headerLen+8)
	binary.BigEndian.PutUint32(lying, bodyChunk+1)
	f.Add(lying)
	f.Add([]byte{})
	f.Add(append(bytes.Clone(valid.Bytes()), 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		off := 0
		for frame := 1; ; frame++ {
			payload, n, err := ReadFrame(r, frame)
			if err == io.EOF {
				return // clean frame boundary
			}
			if err != nil {
				if !strings.Contains(err.Error(), "frame ") {
					t.Fatalf("error not frame-indexed: %v", err)
				}
				return
			}
			if n != headerLen+len(payload) {
				t.Fatalf("frame %d: consumed %d wire bytes for a %d-byte payload", frame, n, len(payload))
			}
			// A frame has one encoding: re-encoding an accepted payload
			// gives back exactly the bytes it was read from.
			var buf bytes.Buffer
			if _, err := WriteFrame(&buf, payload); err != nil {
				t.Fatalf("frame %d: re-encoding accepted payload: %v", frame, err)
			}
			if !bytes.Equal(buf.Bytes(), data[off:off+n]) {
				t.Fatalf("frame %d: accepted frame re-encodes differently", frame)
			}
			off += n
		}
	})
}
