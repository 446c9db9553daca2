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

// A Cache indexes the directory once, on first use: a record another
// instance appends after that is a miss for it, and a hit for a Cache
// opened afterwards. Its own Puts are hits at once.
func TestCacheIndexIsBuiltOnce(t *testing.T) {
	dir := t.TempDir()
	writePack(t, dir, packRecord(t, "once|early", Result{Key: "once|early"}))
	reader, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if !reader.Get("once|early", &got) || got.Key != "once|early" {
		t.Fatalf("record present at first use did not hit: %+v", got)
	}
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Key: "once|late", Sim: fl.Result{Controller: "late"}}
	if err := writer.Put(want.Key, want); err != nil {
		t.Fatal(err)
	}
	if reader.Get(want.Key, &got) {
		t.Error("a record appended after the first lookup was found")
	}
	if err := reader.Put("once|own", Result{Key: "once|own"}); err != nil {
		t.Fatal(err)
	}
	if !reader.Get("once|own", &got) || got.Key != "once|own" {
		t.Errorf("own Put did not hit: %+v", got)
	}
	fresh, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"once|early", want.Key, "once|own"} {
		if !fresh.Get(key, &got) || got.Key != key {
			t.Errorf("%s: a Cache opened afterwards missed it: %+v", key, got)
		}
	}
}

// A record cut short at the end of a pack — a writer killed mid-append,
// or an append still in flight — is never indexed or served, and the
// records before it and in other packs still are. Once the tail is
// complete, a Cache opened afterwards serves it.
func TestTornPackTailIsNeverServed(t *testing.T) {
	dir := t.TempDir()
	whole := packRecord(t, "torn|a", Result{Key: "torn|a"})
	torn := packRecord(t, "torn|tail", Result{Key: "torn|tail", Sim: fl.Result{Controller: "tail"}})
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
	fresh, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Get("torn|tail", &got) || got.Sim.Controller != "tail" {
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
// instance over the same directory, keep both indexes consistent: every
// hit returns the entry stored under its key, the writer reads back
// each of its own Puts, and once the writers are done a Cache opened
// afterwards sees every entry. CI runs this under -race.
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
				if err := writer.Put(k, Result{Key: k, Sim: fl.Result{Controller: k}}); err != nil {
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
	fresh, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for w := range workers {
		for i := range perWorker {
			var got Result
			if k := key(w, i); !fresh.Get(k, &got) || got.Key != k || got.Sim.Controller != k {
				t.Errorf("%s: a Cache opened after the writers got %+v", k, got)
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
		scanRecords(bytes.NewReader(pack), int64(len(pack)), func(key []byte, off int64, n int) {
			if off < recordLenBytes || off+int64(n) > int64(len(pack)) || !bytes.Contains(pack[off:off+int64(n)], key) {
				t.Fatalf("visited a record outside the pack: off %d, n %d, %d bytes", off, n, len(pack))
			}
		})
		goruntime.ReadMemStats(&after)
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
