package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
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
		if !errors.Is(err, io.ErrUnexpectedEOF) && cut >= headerLen {
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

// freshFrame is WriteFrame's output as an unpooled compressor makes it:
// the byte-level reference pooled frames must equal.
func freshFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	fw, err := flate.NewWriter(&body, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body.Len()))
	return append(hdr[:], body.Bytes()...)
}

func TestWriteFramePooledMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte('a' + rng.Intn(8)) // compressible, not trivially so
	}
	sizes := map[string][]byte{
		"1B":  []byte("x"),
		"4KB": []byte(strings.Repeat(`{"key":"v3|sim|fleet=20","ppw":1.25}`, 4096/36)),
		"3MB": big,
	}
	// Interleaved, so every size is also written by a writer that just
	// compressed a larger or smaller payload.
	for _, name := range []string{"1B", "4KB", "3MB", "4KB", "1B", "3MB", "1B", "4KB"} {
		payload := sizes[name]
		var buf bytes.Buffer
		n, err := WriteFrame(&buf, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := freshFrame(t, payload)
		if n != len(want) || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: pooled frame (%d bytes) differs from a fresh writer's (%d bytes)", name, buf.Len(), len(want))
		}
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

// TestWriteFrameAllocs pins the pooled compressor: a 4 KB frame costs a
// few small allocations, not a fresh ~1.1 MB flate.Writer. MemStats are
// process-wide, so the measurement is the minimum over a few passes.
func TestWriteFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	payload := []byte(strings.Repeat(`{"key":"v3|sim|fleet=20","ppw":1.25}`, 4096/36))
	if _, err := WriteFrame(io.Discard, payload); err != nil { // warm the pool
		t.Fatal(err)
	}
	const calls = 100
	bestAllocs, bestBytes := -1.0, -1.0
	for pass := 0; pass < 5; pass++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			if _, err := WriteFrame(io.Discard, payload); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / calls
		bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / calls
		if bestAllocs < 0 || allocs < bestAllocs {
			bestAllocs = allocs
		}
		if bestBytes < 0 || bytesPer < bestBytes {
			bestBytes = bytesPer
		}
	}
	if bestAllocs > 4 {
		t.Errorf("WriteFrame of a 4 KB payload makes %.1f allocations per call, want <= 4", bestAllocs)
	}
	if bestBytes >= 4096 {
		t.Errorf("WriteFrame of a 4 KB payload allocates %.0f bytes per call, want < 4096", bestBytes)
	}
}

// A decompressor that failed mid-stream goes back to the pool; Reset
// must leave no trace of the failure in the next frame it decodes.
func TestPooledReaderRecoversAfterCorruptFrame(t *testing.T) {
	good := []byte(strings.Repeat("round 17: ppw 1.25, acc 81.5; ", 400))
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, good); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// The first half of a real deflate stream, framed with a matching
	// prefix: the body reads fine and inflation fails inside a block.
	half := append([]byte(nil), valid[:headerLen+(len(valid)-headerLen)/2]...)
	binary.BigEndian.PutUint32(half, uint32(len(half)-headerLen))
	garbage := []byte("this is not a deflate stream....")
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	for _, corrupt := range [][]byte{half, append(hdr[:], garbage...)} {
		for i := 0; i < 3; i++ {
			if _, _, err := ReadFrame(bytes.NewReader(corrupt), 1); err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
			got, n, err := ReadFrame(bytes.NewReader(valid), 2)
			if err != nil {
				t.Fatalf("good frame after a corrupt one: %v", err)
			}
			if n != len(valid) || !bytes.Equal(got, good) {
				t.Fatalf("good frame after a corrupt one decoded to %d bytes, want %d byte-exact", len(got), len(good))
			}
		}
	}
}
