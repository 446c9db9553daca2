package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
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
		if n != headerLen+len(p) {
			t.Fatalf("WriteFrame(%d) reported %d wire bytes for a %d-byte payload", i, n, len(p))
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
		if !errors.Is(err, io.ErrUnexpectedEOF) && cut >= headerLen {
			t.Fatalf("truncated body at %d bytes not reported as truncation: %v", cut, err)
		}
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	for _, n := range []uint32{MaxFrameBytes + 1, 1<<32 - 1} {
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

// writeCounter counts Write calls, standing in for a socket where each
// one is a syscall.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A frame is the payload's length as a big-endian uint32 followed by
// the payload bytes as they are, handed to the writer in one Write.
func TestWriteFrameLayout(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte(`{"hello":true,"proto":12}`), bytes.Repeat([]byte{0, 0xff}, 40000)} {
		var w writeCounter
		n, err := WriteFrame(&w, payload)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		want = append(want, payload...)
		if w.writes != 1 || n != len(want) || !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%d-byte payload: %d Write calls, %d bytes reported, frame % x...; want 1 Write of BE uint32 length || payload (%d bytes)",
				len(payload), w.writes, n, w.Bytes()[:min(w.Len(), 8)], len(want))
		}
	}
}

// WriteFrame hands the prefix and body to the writer in one Write.
func TestWriteFrameSingleWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ppw 1.25;"), 5000)} {
		var w writeCounter
		n, err := WriteFrame(&w, payload)
		if err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || n != w.Len() {
			t.Errorf("%d-byte payload: %d Write calls for a %d-byte frame (reported %d), want 1", len(payload), w.writes, w.Len(), n)
		}
	}
}

func TestWriteFrameConcurrent(t *testing.T) {
	const goroutines, frames = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				payload := []byte(strings.Repeat(fmt.Sprintf("g%d-f%d;", g, f), 1+f%50))
				var buf bytes.Buffer
				if _, err := WriteFrame(&buf, payload); err != nil {
					errs <- err
					return
				}
				got, _, err := ReadFrame(&buf, f+1)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("goroutine %d frame %d: round trip changed the payload", g, f)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
