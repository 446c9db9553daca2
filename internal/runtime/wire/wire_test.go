package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("{}"),
		[]byte(strings.Repeat(`{"key":"v3|sim|...","spec":{"fleet":20}},`, 500)),
		bytes.Repeat([]byte{0}, 3*bodyChunk+17), // spans several read chunks
		[]byte("x"),
	}
	var buf bytes.Buffer
	written := make([]int, len(payloads))
	for i, p := range payloads {
		n, err := WriteFrame(&buf, p)
		if err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
		if n < headerLen+1 {
			t.Fatalf("WriteFrame(%d) reported %d wire bytes", i, n)
		}
		written[i] = n
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		got, n, err := ReadFrame(r, i+1)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
		if n != written[i] {
			t.Fatalf("frame %d: read %d wire bytes, wrote %d", i, n, written[i])
		}
	}
	if _, _, err := ReadFrame(r, len(payloads)+1); err != io.EOF {
		t.Fatalf("clean frame boundary: got %v, want io.EOF", err)
	}
}

func TestFrameCompresses(t *testing.T) {
	// Batched JSON is highly repetitive; the whole point of the
	// framing is that it ships far fewer bytes than the raw payload.
	payload := []byte(strings.Repeat(`{"key":"v3|sim|fleet=20|alpha=iid","result":{"ppw":1.25}}`+"\n", 200))
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n*2 > len(payload) {
		t.Fatalf("frame of %d-byte payload took %d wire bytes; want at least 2x compression", len(payload), n)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, []byte(`{"reqs":[]}`)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]), 7)
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d/%d bytes: got %v, want error", cut, len(whole), err)
		}
		if !strings.Contains(err.Error(), "frame 7") {
			t.Fatalf("truncated frame error not frame-indexed: %v", err)
		}
		if !ErrTruncated(err) && cut >= headerLen {
			t.Fatalf("truncated body at %d bytes not reported as truncation: %v", cut, err)
		}
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	for _, n := range []uint32{0, MaxFrameBytes + 1, 1<<32 - 1} {
		var hdr [headerLen]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		_, _, err := ReadFrame(bytes.NewReader(hdr[:]), 3)
		if err == nil {
			t.Fatalf("length prefix %d: want error", n)
		}
		if !strings.Contains(err.Error(), "frame 3") {
			t.Fatalf("length prefix %d: error not frame-indexed: %v", n, err)
		}
	}
}

func TestReadFrameCorruptBody(t *testing.T) {
	body := []byte("this is not a deflate stream....")
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	_, _, err := ReadFrame(bytes.NewReader(append(hdr[:], body...)), 2)
	if err == nil {
		t.Fatal("corrupt body: want error")
	}
	if !strings.Contains(err.Error(), "frame 2") {
		t.Fatalf("corrupt body error not frame-indexed: %v", err)
	}
}

func TestEmptyPayloadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payload round-tripped to %d bytes", len(got))
	}
}
