package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"
)

// The 2-vCPU VM this benchmark was written on shares its memory system
// and its disk with other tenants. Their load changes how long the same
// report takes by up to 65% over a few minutes, while pure arithmetic
// slows by about 10%, so the raw times of two runs minutes apart say more
// about the neighbours than about the program. Every timed sample is
// therefore scaled by a reference kernel the parent process runs right
// before and right after it:
//
//	reported = raw × kernel reference time ÷ mean of the two kernel times
//
// (the kernel after one sample is the kernel before the next). A
// sample of paper-cold lasts 30 times as long as the kernel, so one
// kernel at one end tracks it worse: over 198 paper-cold iterations the
// correlation was 0.53 with the kernel before, 0.51 with the kernel
// after and 0.65 with their mean.
//
// The kernel is fixed benchmark code that no change to the program can
// speed up or slow down. Its memory part does the kind of work the
// host's load slows in a report: DEFLATE decoding into freshly allocated
// buffers and churning small heap objects, on every processor the
// program uses. Its file part writes and renames cache-sized files, the
// way the cache publishes a result; only a workload that spends a large
// share of its time publishing results weights it in (fileWeight). A
// reported time is what the sample would have taken had the kernel run
// in its reference time. The raw kernel times are kept in the set file.

// memRefSeconds is the memory part's median time on that VM in a calm
// phase, so reported report times there read as wall-clock times.
// fileRefSeconds is the file part's median over 349 runs of it there.
const (
	memRefSeconds  = 0.05
	fileRefSeconds = 0.1
)

// kernelBytes is the size of the data each memory-part goroutine
// inflates.
const kernelBytes = 4 << 20

// kernelObjects is how many small objects each memory-part goroutine
// allocates, keeping one in ten reachable until it returns.
const kernelObjects = 100_000

// kernelFiles is how many files each file-part goroutine writes, and
// kernelFileBytes the size of each: about one sweep cell's cache entry.
const (
	kernelFiles     = 100
	kernelFileBytes = 5 << 10
)

var kernelInput = sync.OnceValue(func() []byte {
	// A 16-symbol stream from a fixed linear congruential generator:
	// it compresses about as well as the cache's round histories.
	raw := make([]byte, kernelBytes)
	x := uint32(1)
	for i := range raw {
		x = x*1664525 + 1013904223
		raw[i] = byte(x >> 28)
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err) // only an invalid level fails
	}
	if _, err := w.Write(raw); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// kernel runs the reference kernel, its file part in a fresh directory
// under dir when fileWeight is positive, and returns its time with the
// file part weighted by fileWeight.
func kernel(dir string, fileWeight float64) (float64, error) {
	in := kernelInput() // built once per process, outside the timing
	mem, err := parallel(func(int) error { return memoryPart(in) })
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	seconds := mem.Seconds()
	if fileWeight > 0 {
		d, err := os.MkdirTemp(dir, "kernel-")
		if err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
		files, err := parallel(func(g int) error { return filePart(d, g) })
		if rerr := os.RemoveAll(d); err == nil {
			err = rerr
		}
		if err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
		seconds += fileWeight * files.Seconds()
	}
	return seconds, nil
}

// kernelScale is the factor that scales a sample bracketed by kernels
// that took before and after seconds, for a kernel run with fileWeight.
func kernelScale(fileWeight, before, after float64) float64 {
	return (memRefSeconds + fileWeight*fileRefSeconds) / ((before + after) / 2)
}

// parallel runs part on every processor the program uses and returns
// how long they took together.
func parallel(part func(g int) error) (time.Duration, error) {
	procs := goruntime.GOMAXPROCS(0)
	errs := make([]error, procs)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = part(g)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

type kernelNode struct {
	id   int
	data []byte
}

// memoryPart inflates in, the compressed kernelBytes of kernelInput,
// and churns small objects.
func memoryPart(in []byte) error {
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(in)))
	if err != nil {
		return err
	}
	if len(out) != kernelBytes {
		return fmt.Errorf("inflated %d bytes, want %d", len(out), kernelBytes)
	}
	var kept []*kernelNode
	for i := 0; i < kernelObjects; i++ {
		n := &kernelNode{id: i, data: make([]byte, 64)}
		if i%10 == 0 {
			kept = append(kept, n)
		}
	}
	goruntime.KeepAlive(kept)
	return nil
}

// kernelFile is the content of every file the file part writes.
var kernelFile = bytes.Repeat([]byte("fedgpo-kernel-\n"), kernelFileBytes/15+1)[:kernelFileBytes]

// filePart publishes kernelFiles files in dir the way the cache does: a
// temporary file written and closed, then renamed into place.
func filePart(dir string, g int) error {
	for i := 0; i < kernelFiles; i++ {
		f, err := os.CreateTemp(dir, "put-*")
		if err != nil {
			return err
		}
		_, err = f.Write(kernelFile)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.Rename(f.Name(), filepath.Join(dir, fmt.Sprintf("%d-%d", g, i))); err != nil {
			return err
		}
	}
	return nil
}
