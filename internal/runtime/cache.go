package runtime

import (
	"crypto/sha256"
	"encoding"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedgpo/internal/telemetry"
)

// lookup source classes.
const (
	srcMiss    = iota // no entry
	srcMem            // memory-only mode map hit
	srcDisk           // record read from disk
	srcCorrupt        // a record existed but failed validation; discarded
)

// Cache is the content-addressed run cache. A payload is a Result's
// own binary form (Result.AppendBinary) and JSON for every other
// artifact. Both modes address an entry by its key's SHA-256 digest.
// Without a directory the cache keeps payloads in an in-memory map.
// With one, entries are records in append-only pack files,
// <dir>/pack-*.fgcp: each Cache appends to one pack of its own,
// created on its first Put, and reads through an index of key digest
// to record. The index is built once, from the packs present when the
// Cache is first used; after that only its own Put and Prune change
// it, so a record another live process appends later is a miss here.
// Any other file in the directory is foreign and never read. Every
// disk hit reads its record and checks its CRC, and the first hit on a
// pack refreshes its mtime so Prune evicts least-recently-used packs
// first. A disk hit reads its record into a buffer from recordBufs and
// a disk Put builds its record in one, so a warm hit allocates only
// what its decoder keeps. The handle on its own pack lives as long as
// the Cache; every record is one write, so nothing is left to flush.
// It is safe for concurrent use.
type Cache struct {
	mu  sync.RWMutex
	mem map[digest][]byte // memory-only mode payloads
	dir string
	col *telemetry.Collector

	// load builds the disk index on first use. index, guarded by mu,
	// maps every record scanned then or appended by Put since, by key
	// digest (the newest one wins).
	load  sync.Once
	index map[digest]recordLoc

	// wmu serializes appends to this Cache's own pack: w is its file,
	// nil before the first Put and after a failed append, wpack its
	// index entry and wend the offset of the next append.
	wmu   sync.Mutex
	w     *os.File
	wpack *pack
	wend  int64
}

// pack is one pack file the index has seen.
type pack struct {
	name string
	// touched is set once this Cache has refreshed the pack's mtime.
	touched atomic.Bool
}

// recordBufs recycles the buffers disk records are read into (get)
// and built in (Put); each holds a *[]byte. A buffer goes back as soon
// as its payload is decoded, so every decoder Get calls must copy out
// what it keeps, and they do: Result.UnmarshalBinary shares no memory
// with its input, core.Snapshot's decodeString copies, and
// json.Unmarshal copies, json.RawMessage included. A decoder that
// aliased its input would see its bytes overwritten by a later read;
// TestPooledRecordsAreNotAliased guards this.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRecord caps the buffers recordBufs keeps, so one outsized
// record does not stay pinned after its read.
const maxPooledRecord = 1 << 20

// putRecordBuf returns b, grown or not, to recordBufs through bp.
func putRecordBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledRecord {
		*bp = b[:0]
		recordBufs.Put(bp)
	}
}

// digest is a canonical key's SHA-256, the address of its entry.
type digest = [sha256.Size]byte

// recordLoc locates one record's envelope in a pack.
type recordLoc struct {
	pack *pack
	off  int64
	n    int
}

// SetCollector attaches a telemetry collector recording cache-level
// events: per-read source counters (mem/disk hits, misses,
// corrupt discards), read/decode/write phase time, mtime touches, and
// Prune evictions. A nil collector disables recording.
func (c *Cache) SetCollector(col *telemetry.Collector) { c.col = col }

// NewCache returns a cache. dir == "" keeps entries in memory only;
// otherwise entries persist under dir (created if missing).
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runtime: cache dir: %w", err)
		}
	}
	return &Cache{
		mem:   make(map[digest][]byte),
		dir:   dir,
		index: make(map[digest]recordLoc),
	}, nil
}

// Get looks the key up and unmarshals the payload into v on a hit.
func (c *Cache) Get(key string, v any) bool {
	start := time.Now()
	src := c.get(key, v)
	c.col.RecordPhase(telemetry.PhaseCacheRead, time.Since(start))
	c.col.Count(func(cc *telemetry.Counters) {
		switch src {
		case srcMem:
			cc.CacheMemHits++
		case srcDisk:
			cc.CacheDiskHits++
		case srcCorrupt:
			cc.CacheCorrupt++
		default:
			cc.CacheMisses++
		}
	})
	return src == srcMem || src == srcDisk
}

// get is Get's lookup body; the returned source classifies what served
// the read (or how it failed).
func (c *Cache) get(key string, v any) int {
	d := sha256.Sum256([]byte(key))
	if c.dir == "" {
		c.mu.RLock()
		payload, ok := c.mem[d]
		c.mu.RUnlock()
		if !ok {
			return srcMiss
		}
		if !c.unmarshalPayload(payload, v) {
			return srcCorrupt
		}
		return srcMem
	}
	c.load.Do(c.scan)
	c.mu.RLock()
	loc, ok := c.index[d]
	c.mu.RUnlock()
	if !ok {
		return srcMiss
	}
	bp := recordBufs.Get().(*[]byte)
	b, src := c.readRecord(loc, *bp)
	defer putRecordBuf(bp, b)
	if src != srcDisk {
		return src
	}
	// A damaged record — a flipped byte, an envelope whose key does not
	// match (hash collision), a payload that does not decode — is a
	// miss, not an error: the cell just re-runs, and its new record
	// replaces this one in the index.
	payload, ok := decodeBinaryEnvelope(b, key)
	if !ok || !c.unmarshalPayload(payload, v) {
		return srcCorrupt
	}
	c.touch(loc.pack)
	return srcDisk
}

// scan indexes the records of every pack in the directory, in name
// order, which is creation order, so the newest record of a key wins.
// It runs once, before this Cache's first lookup or append, so its own
// pack is never among them. A directory it cannot list leaves the index
// empty: lookups miss, and cells re-run.
func (c *Cache) scan() {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, de := range dirents {
		if !strings.HasSuffix(de.Name(), packExt) {
			continue
		}
		if info, err := de.Info(); err == nil {
			c.scanPack(&pack{name: de.Name()}, info.Size())
		}
	}
}

// scanPack indexes p's records up to size. c.mu must be held.
func (c *Cache) scanPack(p *pack, size int64) {
	f, err := os.Open(filepath.Join(c.dir, p.name))
	if err != nil {
		return
	}
	defer f.Close()
	scanRecords(f, size, func(key []byte, off int64, n int) {
		c.index[sha256.Sum256(key)] = recordLoc{pack: p, off: off, n: n}
	})
}

// readRecord reads loc's envelope into buf, grown as needed, and
// returns it: it opens the pack, reads the record and closes the pack
// again, so no handle is held per pack. buf is a pooled buffer
// (recordBufs), so the envelope is valid only until the caller returns
// it. A pack it cannot open (pruned under us) is a miss; a record it
// cannot read whole is corrupt, since it was complete when the scan
// indexed it.
func (c *Cache) readRecord(loc recordLoc, buf []byte) ([]byte, int) {
	buf = slices.Grow(buf[:0], loc.n)[:loc.n]
	f, err := os.Open(filepath.Join(c.dir, loc.pack.name))
	if err != nil {
		return buf, srcMiss
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return buf, srcCorrupt
	}
	return buf, srcDisk
}

// unmarshalPayload decodes payload into v under the cacheDecode phase
// timer, so envelope I/O and payload decode are separable in a
// profile. A v that implements encoding.BinaryUnmarshaler (Result,
// core.Snapshot) decodes its own binary form; anything else is JSON.
func (c *Cache) unmarshalPayload(payload []byte, v any) bool {
	start := time.Now()
	var err error
	if u, ok := v.(encoding.BinaryUnmarshaler); ok {
		err = u.UnmarshalBinary(payload)
	} else {
		err = json.Unmarshal(payload, v)
	}
	c.col.RecordPhase(telemetry.PhaseCacheDecode, time.Since(start))
	return err == nil
}

// touch refreshes p's mtime on this Cache's first hit in it, so mtime
// order is LRU order for Prune. Later hits in the pack need no touch
// of their own. A failed touch (the pack was removed under us) only
// skews future eviction order.
func (c *Cache) touch(p *pack) {
	if p.touched.Swap(true) {
		return
	}
	now := time.Now()
	if os.Chtimes(filepath.Join(c.dir, p.name), now, now) == nil {
		c.col.Count(func(cc *telemetry.Counters) { cc.CacheTouches++ })
	}
}

// Prune enforces a byte budget on the on-disk cache: whole packs are
// removed oldest-mtime-first until the surviving total is at most
// maxBytes. Every other file is foreign and left alone. The first hit
// on a pack touches its mtime, so mtime order is LRU order; the records
// of removed packs leave the index, so an evicted entry is a miss. It
// returns the number of packs removed. Memory-only caches and
// maxBytes <= 0 are no-ops. Call it at startup, before other processes
// use the directory — it does not coordinate with concurrent writers
// beyond each removal being atomic.
func (c *Cache) Prune(maxBytes int64) (int, error) {
	if c.dir == "" || maxBytes <= 0 {
		return 0, nil
	}
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("runtime: cache prune: %w", err)
	}
	type packFile struct {
		name  string
		mtime time.Time
		size  int64
	}
	packs := make([]packFile, 0, len(dirents))
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || filepath.Ext(name) != packExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // deleted under us: nothing to evict
		}
		packs = append(packs, packFile{name: name, mtime: info.ModTime(), size: info.Size()})
	}
	sort.Slice(packs, func(i, j int) bool { return packs[i].mtime.After(packs[j].mtime) })
	var total int64
	removed := make(map[string]bool)
	for _, p := range packs {
		total += p.size
		if total <= maxBytes {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, p.name)); err == nil || os.IsNotExist(err) {
			removed[p.name] = true
		}
	}
	c.forgetPacks(removed)
	c.col.Count(func(cc *telemetry.Counters) { cc.Evictions += int64(len(removed)) })
	return len(removed), nil
}

// forgetPacks drops the named packs and their records from the index.
// If this Cache's own pack is among them, the next Put creates a new
// one.
func (c *Cache) forgetPacks(names map[string]bool) {
	if len(names) == 0 {
		return
	}
	c.wmu.Lock()
	if c.wpack != nil && names[c.wpack.name] {
		c.w.Close()
		c.w, c.wpack = nil, nil
	}
	c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for d, loc := range c.index {
		if names[loc.pack.name] {
			delete(c.index, d)
		}
	}
}

// Put stores v under the key, in memory or (when configured) on disk.
// The payload is v itself for a []byte, v's binary form when v
// implements encoding.BinaryAppender, and its JSON otherwise. On disk
// the entry is one record (appendRecord), built in a pooled buffer
// (recordBufs) and appended to this Cache's pack in one write.
func (c *Cache) Put(key string, v any) error {
	start := time.Now()
	defer func() { c.col.RecordPhase(telemetry.PhaseCacheWrite, time.Since(start)) }()
	d := sha256.Sum256([]byte(key))
	if c.dir == "" {
		payload, err := appendPayload(nil, v)
		if err != nil {
			return fmt.Errorf("runtime: cache payload: %w", err)
		}
		c.mu.Lock()
		c.mem[d] = payload
		c.mu.Unlock()
		return nil
	}
	bp := recordBufs.Get().(*[]byte)
	rec, err := appendRecord(*bp, key, v)
	if err != nil {
		recordBufs.Put(bp)
		return err
	}
	defer putRecordBuf(bp, rec)
	// Index the directory first, so no older record it holds can
	// replace this one in the index later.
	c.load.Do(c.scan)
	return c.writeRecord(d, rec)
}

// writeRecord appends rec to this Cache's pack, creating the pack on
// first use, and indexes it under d. After a failed or short append
// the pack is dropped: its tail may hold a partial record, which no
// later Cache's scan indexes, and the next Put starts a new pack.
func (c *Cache) writeRecord(d digest, rec []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		f, name, err := createPack(c.dir)
		if err != nil {
			return fmt.Errorf("runtime: cache pack: %w", err)
		}
		c.w, c.wpack, c.wend = f, &pack{name: name}, 0
	}
	off := c.wend
	if _, err := c.w.Write(rec); err != nil {
		c.w.Close()
		c.w, c.wpack = nil, nil
		return fmt.Errorf("runtime: cache pack: %w", err)
	}
	c.wend += int64(len(rec))
	c.mu.Lock()
	c.index[d] = recordLoc{pack: c.wpack, off: off + recordLenBytes, n: len(rec) - recordLenBytes}
	c.mu.Unlock()
	return nil
}
