package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
)

// ownPack returns the path of the pack c appends to.
func ownPack(t testing.TB, c *Cache) string {
	t.Helper()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wpack == nil {
		t.Fatal("cache has no pack of its own")
	}
	return filepath.Join(c.dir, c.wpack.name)
}

// packFiles lists the pack files in dir in name order.
func packFiles(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+packExt))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// agePack sets path's mtime to now+d and returns its size.
func agePack(t testing.TB, path string, d time.Duration) int64 {
	t.Helper()
	mt := time.Now().Add(d)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// packRecord renders one pack record as Put writes it.
func packRecord(t testing.TB, key string, v any) []byte {
	t.Helper()
	rec, err := appendRecord(nil, key, v)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// rawRecord frames arbitrary envelope bytes as a pack record.
func rawRecord(env []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(env))), env...)
}

// writePack writes a new pack in dir holding the given bytes and
// returns its path.
func writePack(t testing.TB, dir string, content ...[]byte) string {
	t.Helper()
	path := filepath.Join(dir, newPackName())
	if err := os.WriteFile(path, bytes.Join(content, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// rawSink takes any payload as its binary form.
type rawSink []byte

func (r *rawSink) UnmarshalBinary(b []byte) error {
	*r = append((*r)[:0], b...)
	return nil
}

// A Cache that built its index before another instance appended an
// entry still reads it: a miss rescans for new and grown packs.
func TestCacheSeesOtherInstancesPuts(t *testing.T) {
	dir := t.TempDir()
	reader, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if reader.Get("other|cell-0", &got) {
		t.Fatal("empty directory served a hit")
	}
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		key := fmt.Sprintf("other|cell-%d", i)
		if err := writer.Put(key, Result{Key: key, Sim: fl.Result{ControllerOverheadSec: float64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
		// The first Put creates a new pack, the second grows it.
		if !reader.Get(key, &got) || got.Sim.ControllerOverheadSec != float64(i+1) {
			t.Errorf("entry %d appended after the reader's scan: got %+v", i, got)
		}
	}
	if n := len(packFiles(t, dir)); n != 1 {
		t.Errorf("one writer left %d packs, want 1", n)
	}
}

// A record cut short at the end of a pack — a writer killed mid-append,
// or an append still in flight — is never indexed or served, and the
// records before it and in other packs still are. Once the tail is
// complete, a rescan serves it.
func TestTornPackTailIsNeverServed(t *testing.T) {
	dir := t.TempDir()
	whole := packRecord(t, "torn|a", Result{Key: "torn|a"})
	torn := packRecord(t, "torn|tail", Result{Key: "torn|tail", Sim: fl.Result{ControllerOverheadSec: 3}})
	path := writePack(t, dir, whole, torn[:len(torn)/2])
	writePack(t, dir, packRecord(t, "torn|b", Result{Key: "torn|b"}))

	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	cache.SetCollector(col)
	var got Result
	for _, key := range []string{"torn|a", "torn|b"} {
		if !cache.Get(key, &got) || got.Key != key {
			t.Errorf("%s: intact record did not hit: %+v", key, got)
		}
	}
	if cache.Get("torn|tail", &got) {
		t.Error("torn tail served a hit")
	}
	if c := col.Snapshot().Counters; c.CacheMisses != 1 || c.CacheCorrupt != 0 {
		t.Errorf("counters = %d misses / %d corrupt, want the torn tail a plain miss", c.CacheMisses, c.CacheCorrupt)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[len(torn)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !cache.Get("torn|tail", &got) || got.Sim.ControllerOverheadSec != 3 {
		t.Errorf("completed tail did not hit: %+v", got)
	}
}

// A failed append drops the Cache's pack: the Put reports the error,
// the next Put opens a new pack, and the records before the failure
// still read.
func TestFailedAppendDropsPack(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put("fail|before", Result{Key: "fail|before"}); err != nil {
		t.Fatal(err)
	}
	first := ownPack(t, cache)
	cache.w.Close() // every later write to the handle fails
	if err := cache.Put("fail|during", Result{Key: "fail|during"}); err == nil {
		t.Fatal("append to a closed pack reported success")
	}
	if cache.w != nil || cache.wpack != nil {
		t.Fatal("failed append kept its pack")
	}
	if err := cache.Put("fail|after", Result{Key: "fail|after"}); err != nil {
		t.Fatal(err)
	}
	if second := ownPack(t, cache); second == first {
		t.Error("the Put after a failed append reused the dropped pack")
	}
	if n := len(packFiles(t, dir)); n != 2 {
		t.Errorf("%d packs, want 2", n)
	}
	fresh, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]bool{"fail|before": true, "fail|during": false, "fail|after": true} {
		var got Result
		if hit := fresh.Get(key, &got); hit != want {
			t.Errorf("%s: hit=%v, want %v", key, hit, want)
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(fds)
}

// A directory of thousands of small packs reads correctly, and reading
// them holds no file handle per pack.
func TestCacheReadsThousandsOfPacks(t *testing.T) {
	dir := t.TempDir()
	const packs = 2000
	keys := make([]string, packs)
	for i := range keys {
		keys[i] = fmt.Sprintf("many|cell-%d", i)
		writePack(t, dir, packRecord(t, keys[i], Result{Key: keys[i], Sim: fl.Result{ControllerOverheadSec: float64(i)}}))
	}
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	for i, key := range keys {
		var got Result
		if !cache.Get(key, &got) || got.Key != key || got.Sim.ControllerOverheadSec != float64(i) {
			t.Fatalf("pack %d: got %+v", i, got)
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("reading %d packs left %d more files open", packs, after-before)
	}
	var got Result
	if cache.Get("many|absent", &got) {
		t.Error("absent key served a hit")
	}
}

// Concurrent Puts and Gets on one Cache, and Gets from a second
// instance over the same directory, keep the index consistent: every
// hit returns the entry stored under its key, and once the writers are
// done every entry is visible to the other instance. CI runs this
// under -race.
func TestCacheIndexConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 25
	key := func(w, i int) string { return fmt.Sprintf("race|%d|%d", w, i) }
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				k := key(w, i)
				if err := writer.Put(k, Result{Key: k, Sim: fl.Result{ControllerOverheadSec: float64(i)}}); err != nil {
					t.Error(err)
					return
				}
				var got Result
				if !writer.Get(k, &got) || got.Key != k {
					t.Errorf("%s: writer read back %+v", k, got)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range perWorker {
				k := key(w, i)
				var got Result
				if reader.Get(k, &got) && got.Key != k {
					t.Errorf("%s: reader served the entry of %s", k, got.Key)
				}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for i := range perWorker {
			var got Result
			if k := key(w, i); !reader.Get(k, &got) || got.Key != k || got.Sim.ControllerOverheadSec != float64(i) {
				t.Errorf("%s: reader got %+v after the writers finished", k, got)
			}
		}
	}
}

// FuzzScanPack holds the pack reader to its contract over arbitrary
// pack bytes: the scan never panics, visits only records inside the
// pack, and allocates no more than its maxRecordHead buffer bound, and
// a Cache over the pack serves only records whose key and CRC verify —
// each hit is a record Put would write, found verbatim in the pack.
func FuzzScanPack(f *testing.F) {
	keys := []string{"v4|sim|scenario-1|static/(8,10,20)|seed=1", "v4|sim|scenario-2|static/(8,10,20)|seed=1"}
	a := packRecord(f, keys[0], []byte(`{"ppw":1}`))
	b := packRecord(f, keys[1], Result{Key: keys[1], Sim: fl.Result{History: []fl.RoundRecord{{Round: 1, Accuracy: 0.5}}}})
	f.Add(append(bytes.Clone(a), b...))
	f.Add(append(bytes.Clone(a), b[:len(b)/2]...))
	f.Add(append(bytes.Clone(b), a...))
	flipped := append(bytes.Clone(a), b...)
	flipped[len(a)+len(b)-2] ^= 0xFF
	f.Add(flipped)
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(maxEnvelopeBytes)+1), a[recordLenBytes:]...))
	f.Add(rawRecord(fgc2Envelope(f, keys[0], []byte(`{}`))))
	f.Add([]byte{})
	f.Add([]byte(cacheMagic))
	f.Fuzz(func(t *testing.T, pack []byte) {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		end := scanRecords(bytes.NewReader(pack), 0, int64(len(pack)), func(key []byte, off int64, n int) {
			if off < recordLenBytes || off+int64(n) > int64(len(pack)) || !bytes.Contains(pack[off:off+int64(n)], key) {
				t.Fatalf("visited a record outside the pack: off %d, n %d, %d bytes", off, n, len(pack))
			}
		})
		goruntime.ReadMemStats(&after)
		if end < 0 || end > int64(len(pack)) {
			t.Fatalf("scan ended at %d of %d bytes", end, len(pack))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(maxRecordHead+64<<10) {
			t.Fatalf("scan allocated %d bytes", grew)
		}

		dir := t.TempDir()
		writePack(t, dir, pack)
		cache, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range append(keys, strings.Repeat("k", 3)) {
			var got rawSink
			if cache.Get(key, &got) && !bytes.Contains(pack, packRecord(t, key, []byte(got))) {
				t.Fatalf("%s: served a payload no valid record carries: %q", key, got)
			}
		}
	})
}

// The index is keyed by the raw SHA-256 digest, so a disk cache
// refuses a content address that is not one: Put reports an error,
// Get misses, and neither touches the index.
func TestCacheRefusesMalformedHash(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "malformed|hash"
	hash := HashKey(key)
	for _, bad := range []string{"", hash[:63], hash + "0", "+" + hash[1:], strings.Repeat("g", 64)} {
		if err := cache.PutHashed(key, bad, Result{Key: key}); err == nil {
			t.Errorf("PutHashed accepted hash %q", bad)
		}
		var got Result
		if cache.GetHashed(key, bad, &got) {
			t.Errorf("GetHashed hit under hash %q", bad)
		}
	}
	if err := cache.PutHashed(key, hash, Result{Key: key}); err != nil {
		t.Fatal(err)
	}
	var got Result
	if !cache.GetHashed(key, hash, &got) || got.Key != key {
		t.Errorf("the well-formed hash missed: %+v", got)
	}
}
