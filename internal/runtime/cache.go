package runtime

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedgpo/internal/telemetry"
)

// DefaultPayloadCacheBytes is the byte cap on the decoded-payload
// layer: large enough to hold every snapshot and trace artifact a
// paper-scale sweep re-reads, small enough that a report over a
// multi-gigabyte cache directory never mirrors it into process memory.
const DefaultPayloadCacheBytes = 64 << 20

// lookup source classes, in priority order of the read path.
const (
	srcMiss    = iota // no entry in any layer
	srcMem     = iota // memory-only mode map hit
	srcPayload = iota // decoded-payload layer hit (no disk read)
	srcDisk    = iota // envelope read from disk
	srcCorrupt = iota // a record existed but failed validation; discarded
)

// Cache is the content-addressed run cache. A payload is a Result's
// own binary form (Result.AppendBinary) and JSON for every other
// artifact. Without a directory the cache keeps payloads in an
// in-memory map of key-hash to payload. With one, entries are records
// in append-only pack files, <dir>/pack-*.fgcp: each Cache appends to
// one pack of its own, created on its first Put, and reads every pack
// in the directory through an index of key hash to record. Any other
// file in the directory is foreign and never read. Disk hits pass
// through a byte-capped decoded-payload LRU so cells re-read within
// one run cost one record read, and the first hit on a pack refreshes
// its mtime so Prune evicts least-recently-used packs first. The
// handle on its own pack lives as long as the Cache; every record is
// one write, so nothing is left to flush. It is safe for concurrent
// use.
type Cache struct {
	mu  sync.RWMutex
	mem map[string][]byte // hash -> payload bytes (memory-only mode)
	dir string
	col *telemetry.Collector

	// The disk index, guarded by mu: every record scanned from a pack
	// or appended by Put, by key digest (the newest one wins), and the
	// packs it has seen, by file name.
	index map[digest]recordLoc
	packs map[string]*pack

	// wmu serializes appends to this Cache's own pack: w is its file,
	// nil before the first Put and after a failed append, and wpack its
	// index entry.
	wmu   sync.Mutex
	w     *os.File
	wpack *pack

	payloadMu sync.Mutex
	payloads  *payloadLRU
}

// pack is one pack file the index has seen.
type pack struct {
	name string
	// own marks this Cache's own pack: Put indexes its records as it
	// appends them, so scans skip it. For any other pack, end is the
	// offset just past the last record indexed and seen its size at the
	// last scan; a scan reads it again only once its size changes.
	own       bool
	end, seen int64
	// touched is set once this Cache has refreshed the pack's mtime.
	touched atomic.Bool
}

// digest is a canonical key's SHA-256 (HashKeyBytes), the index key.
type digest = [sha256.Size]byte

// parseDigest decodes a HashKey content address without allocating.
func parseDigest(hash string) (d digest, ok bool) {
	if len(hash) != 2*len(d) {
		return d, false
	}
	for i := 0; i < len(d); i += 8 {
		u, err := strconv.ParseUint(hash[2*i:2*i+16], 16, 64)
		if err != nil {
			return d, false
		}
		binary.BigEndian.PutUint64(d[i:], u)
	}
	return d, true
}

// recordLoc locates one record's envelope in a pack.
type recordLoc struct {
	pack *pack
	off  int64
	n    int
}

// SetCollector attaches a telemetry collector recording cache-level
// events: per-read source counters (mem/payload/disk hits, misses,
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
		mem:      make(map[string][]byte),
		dir:      dir,
		index:    make(map[digest]recordLoc),
		packs:    make(map[string]*pack),
		payloads: newPayloadLRU(DefaultPayloadCacheBytes),
	}, nil
}

// Get looks the key up and unmarshals the payload into v on a hit.
func (c *Cache) Get(key string, v any) bool {
	return c.GetHashed(key, HashKey(key), v)
}

// GetHashed is Get for callers that already hold the key's content
// address — a batch executor hashes each canonical key exactly once
// and reuses the digest across its lookup and write-back instead of
// re-running SHA-256 per cache touch. hash must equal HashKey(key).
func (c *Cache) GetHashed(key, hash string, v any) bool {
	start := time.Now()
	src := c.get(key, hash, v)
	c.col.RecordPhase(telemetry.PhaseCacheRead, time.Since(start))
	c.col.Count(func(cc *telemetry.Counters) {
		switch src {
		case srcMem:
			cc.CacheMemHits++
		case srcPayload:
			cc.CachePayloadHits++
		case srcDisk:
			cc.CacheDiskHits++
		case srcCorrupt:
			cc.CacheCorrupt++
		default:
			cc.CacheMisses++
		}
	})
	return src == srcMem || src == srcPayload || src == srcDisk
}

// get is Get's lookup body; the returned source classifies which layer
// served the read (or how it failed). The disk read path is the
// decoded-payload layer, then the record the index points at.
func (c *Cache) get(key, hash string, v any) int {
	if c.dir == "" {
		c.mu.RLock()
		payload, ok := c.mem[hash]
		c.mu.RUnlock()
		if !ok {
			return srcMiss
		}
		if !c.unmarshalPayload(payload, v) {
			return srcCorrupt
		}
		return srcMem
	}
	c.payloadMu.Lock()
	payload, ok := c.payloads.get(hash)
	c.payloadMu.Unlock()
	if ok {
		if c.unmarshalPayload(payload, v) {
			return srcPayload
		}
		// The layer only holds payloads that already unmarshalled once,
		// so this is unreachable short of caller-side type skew; drop the
		// entry and fall through to disk.
		c.payloadMu.Lock()
		c.payloads.drop(hash)
		c.payloadMu.Unlock()
	}
	loc, ok := c.lookup(hash)
	if !ok {
		return srcMiss
	}
	b, src := c.readRecord(loc)
	if src != srcDisk {
		return src
	}
	// A damaged record — a flipped byte, an envelope whose key does not
	// match (hash collision), a payload that does not decode — is a
	// miss, not an error: the cell just re-runs, and its new record
	// replaces this one in the index.
	payload, ok = decodeBinaryEnvelope(b, key)
	if !ok || !c.unmarshalPayload(payload, v) {
		return srcCorrupt
	}
	c.cachePayload(hash, payload)
	c.touch(loc.pack)
	return srcDisk
}

// lookup returns the record the index holds for hash. On a miss it
// rescans the directory for new or grown packs first, so entries other
// Caches and processes appended since the last scan are found.
func (c *Cache) lookup(hash string) (recordLoc, bool) {
	d, ok := parseDigest(hash)
	if !ok {
		return recordLoc{}, false
	}
	c.mu.RLock()
	loc, ok := c.index[d]
	c.mu.RUnlock()
	if ok {
		return loc, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scan()
	loc, ok = c.index[d]
	return loc, ok
}

// scan indexes the records of every pack in the directory that is new
// or has changed size since the last scan, in name order, which is
// creation order. c.mu must be held. A directory it cannot list leaves
// the index as it is: lookups miss, and cells re-run.
func (c *Cache) scan() {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, de := range dirents {
		name := de.Name()
		if !strings.HasSuffix(name, packExt) {
			continue
		}
		p := c.packs[name]
		if p == nil {
			p = &pack{name: name}
			c.packs[name] = p
		}
		if p.own {
			continue
		}
		info, err := de.Info()
		if err != nil || info.Size() == p.seen {
			continue
		}
		c.scanPack(p, info.Size())
	}
}

// scanPack indexes p's records from p.end up to size. A record this
// Cache appended itself stays indexed over one found in another pack:
// it is the newest this process knows of.
func (c *Cache) scanPack(p *pack, size int64) {
	f, err := os.Open(filepath.Join(c.dir, p.name))
	if err != nil {
		return
	}
	defer f.Close()
	p.end = scanRecords(f, p.end, size, func(key []byte, off int64, n int) {
		d := HashKeyBytes(key)
		if cur, ok := c.index[d]; !ok || !cur.pack.own {
			c.index[d] = recordLoc{pack: p, off: off, n: n}
		}
	})
	p.seen = size
}

// readRecord reads loc's envelope: it opens the pack, reads the record
// and closes the pack again, so no handle is held per pack. A pack it
// cannot open (pruned under us) is a miss; a record it cannot read
// whole is corrupt, since it was complete when the scan indexed it.
func (c *Cache) readRecord(loc recordLoc) ([]byte, int) {
	f, err := os.Open(filepath.Join(c.dir, loc.pack.name))
	if err != nil {
		return nil, srcMiss
	}
	defer f.Close()
	b := make([]byte, loc.n)
	if _, err := f.ReadAt(b, loc.off); err != nil {
		return nil, srcCorrupt
	}
	return b, srcDisk
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

// cachePayload admits a disk hit's payload bytes to the decoded-payload
// layer. Only disk hits are admitted — never Put write-through — so a
// corrupted record is still caught by the next uncached read.
func (c *Cache) cachePayload(hash string, payload []byte) {
	c.payloadMu.Lock()
	c.payloads.put(hash, payload)
	c.payloadMu.Unlock()
}

// touch refreshes p's mtime on this Cache's first hit in it, so mtime
// order is LRU order for Prune. Later hits in the pack, and hits the
// decoded-payload layer serves (it only holds records already read),
// need no touch of their own. A failed touch (the pack was removed
// under us) only skews future eviction order.
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
// maxBytes. It also deletes the files of the one-file-per-entry layout,
// which nothing reads any more: <64-hex>.binz entries and orphaned
// put-* temp files. Every other file is foreign and left alone. The
// first hit on a pack touches its mtime, so mtime order is LRU order;
// the records of removed packs leave the index and the decoded-payload
// layer too, so an evicted entry cannot be served from memory. It
// returns the number of packs removed (stale files not counted).
// Memory-only caches and maxBytes <= 0 are no-ops. Call it at startup,
// before workers share the directory — it does not coordinate with
// concurrent writers beyond each removal being atomic.
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
		if de.IsDir() {
			continue
		}
		if staleCacheFile(name) {
			_ = os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if filepath.Ext(name) != packExt {
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

// forgetPacks drops the named packs from the index and their records'
// hashes from the decoded-payload layer. If this Cache's own pack is
// among them, the next Put creates a new one.
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
	for name := range names {
		delete(c.packs, name)
	}
	c.payloadMu.Lock()
	defer c.payloadMu.Unlock()
	for d, loc := range c.index {
		if names[loc.pack.name] {
			delete(c.index, d)
			c.payloads.drop(HexHash(d))
		}
	}
}

// Put stores v under the key, in memory or (when configured) on disk.
func (c *Cache) Put(key string, v any) error {
	return c.PutHashed(key, HashKey(key), v)
}

// PutHashed is Put for callers that already hold the key's content
// address; hash must equal HashKey(key). The payload is v itself for
// a []byte, v's binary form when v implements encoding.BinaryAppender,
// and its JSON otherwise. On disk the entry is one record
// (appendRecord), built in one buffer and appended to this Cache's
// pack in one write.
func (c *Cache) PutHashed(key, hash string, v any) error {
	start := time.Now()
	defer func() { c.col.RecordPhase(telemetry.PhaseCacheWrite, time.Since(start)) }()
	if c.dir == "" {
		payload, err := appendPayload(nil, v)
		if err != nil {
			return fmt.Errorf("runtime: cache payload: %w", err)
		}
		c.mu.Lock()
		c.mem[hash] = payload
		c.mu.Unlock()
		return nil
	}
	d, ok := parseDigest(hash)
	if !ok {
		return fmt.Errorf("runtime: cache hash %q is not a SHA-256 hex digest", hash)
	}
	rec, err := appendRecord(nil, key, v)
	if err != nil {
		return err
	}
	// An overwrite invalidates whatever the decoded-payload layer holds
	// for this hash; the next disk hit re-admits the fresh bytes.
	c.payloadMu.Lock()
	c.payloads.drop(hash)
	c.payloadMu.Unlock()
	return c.writeRecord(d, rec)
}

// writeRecord appends rec to this Cache's pack, creating the pack on
// first use, and indexes it under d. After a failed or short append
// the pack is dropped: its tail may hold a partial record, which no
// scan indexes, and the next Put starts a new pack.
func (c *Cache) writeRecord(d digest, rec []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		f, name, err := createPack(c.dir)
		if err != nil {
			return fmt.Errorf("runtime: cache pack: %w", err)
		}
		c.w, c.wpack = f, &pack{name: name, own: true}
		c.mu.Lock()
		c.packs[name] = c.wpack
		c.mu.Unlock()
	}
	off := c.wpack.end
	if _, err := c.w.Write(rec); err != nil {
		c.w.Close()
		c.w, c.wpack = nil, nil
		return fmt.Errorf("runtime: cache pack: %w", err)
	}
	c.wpack.end += int64(len(rec))
	c.mu.Lock()
	c.index[d] = recordLoc{pack: c.wpack, off: off + recordLenBytes, n: len(rec) - recordLenBytes}
	c.mu.Unlock()
	return nil
}
