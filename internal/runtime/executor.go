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

// Stats is the executor's view of its collector: the job counts and
// endpoint entries of one telemetry snapshot.
type Stats struct {
	// Hits counts jobs served from the run cache — by this executor
	// directly or, under the coordinator, by a worker pool's own cache
	// (Counters.CacheHits).
	Hits int64
	// Runs counts jobs whose body actually executed (cache misses plus
	// all jobs when no cache is attached; Counters.SimsExecuted).
	Runs int64
	// Endpoints holds the per-endpoint dispatch counters when the
	// backend is a shard coordinator (nil for in-process backends),
	// read from the same snapshot under the collector's one lock.
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
}

// NewExecutorBackend returns an executor on an explicit execution
// backend with an optional run cache (nil runs every job). It records
// into a collector of its own until SetCollector supplies one.
func NewExecutorBackend(backend Backend, cache *Cache) *Executor {
	e := &Executor{backend: backend, cache: cache}
	e.SetCollector(telemetry.NewCollector())
	return e
}

// Workers returns the backend's parallelism.
func (e *Executor) Workers() int { return e.backend.Workers() }

// SetProgress installs a callback fired once per completed job.
// Callbacks are serialized; fn need not be safe for concurrent use.
func (e *Executor) SetProgress(fn func(Progress)) { e.onProgress = fn }

// SetCollector replaces the executor's collector (col must be
// non-nil) and hands it on to a backend that records into one (the
// coordinator's endpoint counts). The executor counts job-level cache
// hits and executed sims into it and folds each result's per-job
// phase timings — local or carried back over the wire — into it too.
func (e *Executor) SetCollector(col *telemetry.Collector) {
	e.col = col
	if bc, ok := e.backend.(interface{ SetCollector(*telemetry.Collector) }); ok {
		bc.SetCollector(col)
	}
}

// Stats reads the lifetime job counts and the endpoint entries out of
// one snapshot of the executor's collector.
func (e *Executor) Stats() Stats {
	m := e.col.Snapshot()
	return Stats{Hits: m.Counters.CacheHits, Runs: m.Counters.SimsExecuted, Endpoints: m.Endpoints}
}

// count records one completed result in the collector: a replay as
// CacheHits, a computed cell as SimsExecuted, plus the result's
// per-job telemetry.
func (e *Executor) count(r Result) {
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
// remaining jobs are unaffected. The misses reach the backend in the
// order the batch lists them, so the caller decides the dispatch order
// (the exp package's dispatchOrder).
//
// A key the batch repeats names the same cell, so it runs once: the
// later copies are neither looked up nor dispatched. Each takes the
// first copy's Result, sharing its slices and maps, which no caller
// writes to (the contract on fl.Result). They count neither as
// SimsExecuted nor as CacheHits, and their progress events fire after
// the rest of the batch.
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

	// Resolve each job's canonical key once for the whole batch, into
	// one reused buffer, so a job's lookup and write-back share it. A
	// repeated key's later copies go to dups, pointing at the first
	// copy; every other job is in lead.
	keys := make([]string, len(jobs))
	lead := make([]int, 0, len(jobs))
	var dups [][2]int // {copy, first copy}
	first := make(map[string]int, len(jobs))
	var keyBuf []byte
	for i := range jobs {
		keyBuf = jobs[i].AppendKey(keyBuf[:0])
		if f, ok := first[string(keyBuf)]; ok {
			keys[i] = keys[f]
			dups = append(dups, [2]int{i, f})
			continue
		}
		keys[i] = string(keyBuf)
		first[keys[i]] = i
		lead = append(lead, i)
	}

	// Serve cache hits first — checked in parallel (a warm disk-cache
	// rerun is otherwise bottlenecked on serial file reads), reported
	// in job order.
	hits := e.cacheHits(jobs, keys, lead)
	missIdx := make([]int, 0, len(lead))
	for _, i := range lead {
		if hits[i] != nil {
			results[i] = *hits[i]
			e.count(results[i])
			report(results[i])
			continue
		}
		missIdx = append(missIdx, i)
	}

	if len(missIdx) > 0 {
		miss := make([]Job, len(missIdx))
		for k, i := range missIdx {
			miss[k] = jobs[i]
		}
		out := e.backend.Run(miss, func(k int, r Result) {
			e.count(r)
			if e.cache != nil && r.Err == "" {
				// A failed disk write only costs a future re-run.
				i := missIdx[k]
				_ = e.cache.Put(keys[i], r)
			}
			report(r)
		})
		for k, i := range missIdx {
			results[i] = out[k]
		}
	}
	for _, d := range dups {
		results[d[0]] = results[d[1]]
		report(results[d[0]])
	}
	return results
}

// cacheHits looks the jobs at the lead indexes up in the run cache
// concurrently and returns the hits by batch index (nil = miss, not
// looked up, or no cache). keys are the batch's canonical keys,
// parallel to jobs. The lookup fan-out respects the
// backend's configured parallelism — a -parallel 1 run stays
// single-threaded through warm batches too, lookups (disk read +
// history unmarshal) included.
func (e *Executor) cacheHits(jobs []Job, keys []string, lead []int) []*Result {
	hits := make([]*Result, len(jobs))
	if e.cache == nil {
		return hits
	}
	workers := e.backend.Workers()
	if workers > len(lead) {
		workers = len(lead)
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
				if e.cache.Get(keys[i], &cached) && cached.Err == "" {
					cached.Cached = true
					hits[i] = &cached
				}
			}
		}()
	}
	for _, i := range lead {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return hits
}
