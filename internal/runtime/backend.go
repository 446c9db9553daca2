package runtime

import (
	"fmt"
	stdruntime "runtime"
	"sync"
)

// Backend executes a batch of jobs that missed the run cache. The
// Executor owns cache lookups, cache writes, statistics and progress;
// a backend only decides where and with what parallelism the job
// bodies run — in-process goroutines (PoolBackend) or worker
// processes behind a Coordinator.
type Backend interface {
	// Run executes jobs and returns their results in job order:
	// results[i] belongs to jobs[i] regardless of scheduling. A job
	// failure (panic, crashed worker) is reported in Result.Err, never
	// as a missing slot. done, when non-nil, fires once per completed
	// job with the job's batch index and result; it may be invoked
	// concurrently from multiple goroutines.
	Run(jobs []Job, done func(i int, r Result)) []Result
	// Workers reports the backend's parallelism (pool size or the
	// coordinator fleet's session capacity).
	Workers() int
}

// PoolBackend is the in-process execution backend: a sharded worker
// pool pulling job indices from a shared channel, with per-job panic
// isolation. It is the default backend and the one worker pools
// themselves run on.
type PoolBackend struct {
	workers int
}

// NewPoolBackend returns an in-process pool backend with the given
// worker count (workers <= 0 selects GOMAXPROCS).
func NewPoolBackend(workers int) *PoolBackend {
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	return &PoolBackend{workers: workers}
}

// Workers returns the pool size.
func (p *PoolBackend) Workers() int { return p.workers }

// Run executes the batch across the pool; see Backend.Run.
func (p *PoolBackend) Run(jobs []Job, done func(int, Result)) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = execJob(jobs[i])
				if done != nil {
					done(i, results[i])
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// execJob runs one job body, isolating panics into Result.Err.
func execJob(j Job) (res Result) {
	key := j.Key()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Key: key, Err: fmt.Sprintf("%v", r)}
		}
	}()
	res = j.Run()
	res.Key = key
	return res
}
