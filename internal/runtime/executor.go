package runtime

import (
	"sync"

	"fedgpo/internal/telemetry"
)

// Progress describes one completed job within a batch.
type Progress struct {
	// Done is the number of jobs completed so far in this batch; Total
	// the batch size.
	Done, Total int
	// Key is the completed job's canonical key.
	Key string
	// Cached reports whether the job was served from the run cache.
	Cached bool
	// Failed reports whether the job body panicked.
	Failed bool
}

// Stats counts the executor's lifetime activity.
type Stats struct {
	// Hits counts jobs served from the run cache — by this executor
	// directly or, under the coordinator, by a worker pool reading the
	// shared cache directory.
	Hits int64
	// Runs counts jobs whose body actually executed (cache misses plus
	// all jobs when no cache is attached).
	Runs int64
	// Errors counts jobs whose body panicked or whose worker shard
	// failed.
	Errors int64
	// Endpoints holds the per-endpoint dispatch counters when the
	// backend is a shard coordinator (nil for in-process backends).
	// Each endpoint's counters are snapshotted under the coordinator's
	// single lock, so dispatched/retried/failed are mutually consistent
	// per endpoint even mid-batch.
	Endpoints []EndpointStats
}

// Executor runs job batches: it serves cache hits, hands the misses to
// its execution backend, persists completed results, and keeps
// deterministic result ordering with per-job panic isolation.
type Executor struct {
	backend    Backend
	cache      *Cache
	col        *telemetry.Collector
	progressMu sync.Mutex
	onProgress func(Progress)

	// statsMu guards stats as one unit so Stats returns a consistent
	// snapshot — hits/runs/errors counted under a single lock, never
	// three independent atomic loads interleaving with a running batch.
	statsMu sync.Mutex
	stats   Stats
}

// NewExecutorBackend returns an executor on an explicit execution
// backend with an optional run cache (nil runs every job).
func NewExecutorBackend(backend Backend, cache *Cache) *Executor {
	return &Executor{backend: backend, cache: cache}
}

// Workers returns the backend's parallelism.
func (e *Executor) Workers() int { return e.backend.Workers() }

// Cache returns the attached run cache (nil when uncached).
func (e *Executor) Cache() *Cache { return e.cache }

// Backend returns the execution backend.
func (e *Executor) Backend() Backend { return e.backend }

// SetProgress installs a callback fired once per completed job.
// Callbacks are serialized; fn need not be safe for concurrent use.
func (e *Executor) SetProgress(fn func(Progress)) { e.onProgress = fn }

// SetCollector attaches a telemetry collector. The executor counts
// job-level cache hits and executed sims into it (so its counters
// reconcile with Stats by construction) and folds each result's
// per-job phase timings — local or carried back over the wire — into
// the same collector. A nil collector disables recording.
func (e *Executor) SetCollector(col *telemetry.Collector) { e.col = col }

// Stats returns one consistent snapshot of the lifetime
// hit/run/error counters, with the backend's per-endpoint dispatch
// counters attached when it tracks them.
func (e *Executor) Stats() Stats {
	e.statsMu.Lock()
	s := e.stats
	e.statsMu.Unlock()
	if es, ok := e.backend.(EndpointStatser); ok {
		s.Endpoints = es.EndpointStats()
	}
	return s
}

// count applies one completed result to the stats snapshot and mirrors
// it into the telemetry collector: CacheHits tracks Hits and
// SimsExecuted tracks Runs exactly, which is what lets a metrics
// artifact reconcile against Stats.
func (e *Executor) count(r Result) {
	e.statsMu.Lock()
	if r.Cached {
		e.stats.Hits++
	} else {
		e.stats.Runs++
	}
	if r.Err != "" {
		e.stats.Errors++
	}
	e.statsMu.Unlock()
	e.col.Count(func(c *telemetry.Counters) {
		if r.Cached {
			c.CacheHits++
		} else {
			c.SimsExecuted++
		}
	})
	if r.Telemetry != nil {
		e.col.Add(*r.Telemetry)
	}
}

// RunAll executes the batch and returns results in job order:
// results[i] always belongs to jobs[i], regardless of backend,
// parallelism or scheduling. Cache hits are served without touching
// the backend; a job that fails yields a Result with Err set and the
// remaining jobs are unaffected.
func (e *Executor) RunAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	completed := 0
	report := func(r Result) {
		if e.onProgress == nil {
			return
		}
		// Done is incremented inside the critical section so events are
		// delivered in monotonically increasing Done order.
		e.progressMu.Lock()
		completed++
		e.onProgress(Progress{
			Done:   completed,
			Total:  len(jobs),
			Key:    r.Key,
			Cached: r.Cached,
			Failed: r.Err != "",
		})
		e.progressMu.Unlock()
	}

	// Resolve each job's canonical key and content address exactly once
	// for the whole batch: the key assembly and SHA-256 digest are on
	// the warm-rerun hot path (every lookup and write-back needs them),
	// and per-touch recomputation was measurable on paper-scale batches.
	// The key is built into one reused buffer and hashed in place
	// (AppendKey + HashKeyBytes allocate nothing once the buffer fits),
	// so the only per-job allocations left are the key and hash strings
	// the cache API retains.
	keys := make([]string, len(jobs))
	hashes := make([]string, len(jobs))
	var keyBuf []byte
	for i := range jobs {
		keyBuf = jobs[i].AppendKey(keyBuf[:0])
		keys[i] = string(keyBuf)
		hashes[i] = HexHash(HashKeyBytes(keyBuf))
	}

	// Serve cache hits first — checked in parallel (a warm disk-cache
	// rerun is otherwise bottlenecked on serial file reads), reported
	// in job order.
	hits := e.cacheHits(jobs, keys, hashes)
	missIdx := make([]int, 0, len(jobs))
	for i := range jobs {
		if hits[i] != nil {
			results[i] = *hits[i]
			e.count(results[i])
			report(results[i])
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return results
	}

	miss := make([]Job, len(missIdx))
	for k, i := range missIdx {
		miss[k] = jobs[i]
	}
	out := e.backend.Run(miss, func(k int, r Result) {
		e.count(r)
		if e.cache != nil && r.Err == "" && !r.Persisted {
			// A failed disk write only costs a future re-run. Results a
			// worker already published to the shared cache directory are
			// marked Persisted and skipped — re-serializing every
			// multi-hundred-round history on the coordinator would double
			// the cache-write I/O. With a memory-only cache this Put is
			// what makes a worker's result visible to this process at all.
			i := missIdx[k]
			_ = e.cache.PutHashed(keys[i], hashes[i], r)
		}
		report(r)
	})
	for k, i := range missIdx {
		results[i] = out[k]
	}
	return results
}

// cacheHits looks every job up in the run cache concurrently and
// returns the hits by batch index (nil = miss or no cache). keys and
// hashes are the batch's precomputed canonical keys and content
// addresses, parallel to jobs. The lookup fan-out respects the
// backend's configured parallelism — a -parallel 1 run stays
// single-threaded through warm batches too, lookups (disk read +
// history unmarshal) included.
func (e *Executor) cacheHits(jobs []Job, keys, hashes []string) []*Result {
	hits := make([]*Result, len(jobs))
	if e.cache == nil {
		return hits
	}
	workers := e.backend.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if jobs[i].ForceRun {
					continue
				}
				var cached Result
				if e.cache.GetHashed(keys[i], hashes[i], &cached) && cached.Err == "" {
					cached.Cached = true
					hits[i] = &cached
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return hits
}
