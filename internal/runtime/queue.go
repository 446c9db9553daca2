package runtime

import "sync"

// dispatchQueue is the coordinator's per-batch FIFO, shared by every
// endpoint's sessions. A job reading snapshot K (Job.SnapshotKey) may
// go to endpoint e only if (a) the coordinator pools K, (b) e is
// building K, or (c) no live endpoint is building K — e then becomes
// K's builder — so each warm-up runs once across the fleet. pop may
// claim a key under (c); take, the frame top-up, never does, so one
// frame never serialises several warm-ups.
type dispatchQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []int          // job indexes, oldest first
	snap    []string       // job index -> Job.SnapshotKey
	builder map[string]int // snapshot key -> endpoint building it
	live    []bool         // endpoint still has sessions
	// pooled reports whether the coordinator holds key's snapshot; it
	// is called with mu held and must not call back into the queue.
	pooled    func(key string) bool
	remaining int // jobs not yet answered or abandoned
}

// newDispatchQueue builds the queue for one batch: jobs is the full
// batch, idxs the indexes to dispatch, in order.
func newDispatchQueue(jobs []Job, idxs []int, endpoints int, pooled func(string) bool) *dispatchQueue {
	q := &dispatchQueue{
		pending:   append([]int(nil), idxs...),
		snap:      make([]string, len(jobs)),
		builder:   make(map[string]int),
		live:      make([]bool, endpoints),
		pooled:    pooled,
		remaining: len(idxs),
	}
	q.cond = sync.NewCond(&q.mu)
	for _, i := range idxs {
		q.snap[i] = jobs[i].SnapshotKey
	}
	for e := range q.live {
		q.live[e] = true
	}
	return q
}

// eligible reports whether job i may go to ep; claim lets ep become
// the builder of a key no live endpoint is building. Called with mu
// held.
func (q *dispatchQueue) eligible(ep, i int, claim bool) bool {
	k := q.snap[i]
	if k == "" {
		return true
	}
	b, building := q.builder[k]
	if (building && b == ep) || q.pooled(k) {
		return true
	}
	if (building && q.live[b]) || !claim {
		return false
	}
	q.builder[k] = ep
	return true
}

// pop returns the oldest job eligible for ep, blocking while one may
// yet become eligible; ok is false once the batch is over.
func (q *dispatchQueue) pop(ep int) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for n, i := range q.pending {
			if q.eligible(ep, i, true) {
				q.pending = append(q.pending[:n], q.pending[n+1:]...)
				return i, true
			}
		}
		if q.remaining <= 0 {
			return -1, false
		}
		q.cond.Wait()
	}
}

// take removes up to k more jobs for ep without blocking or claiming a
// snapshot key — the frame top-up.
func (q *dispatchQueue) take(ep, k int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []int
	kept := q.pending[:0]
	for _, i := range q.pending {
		if len(out) < k && q.eligible(ep, i, false) {
			out = append(out, i)
		} else {
			kept = append(kept, i)
		}
	}
	q.pending = kept
	return out
}

// requeue gives unanswered jobs back to the fleet.
func (q *dispatchQueue) requeue(idxs ...int) {
	q.mu.Lock()
	q.pending = append(q.pending, idxs...)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// finalize marks one job answered; at zero, blocked pops return done.
func (q *dispatchQueue) finalize() {
	q.mu.Lock()
	q.remaining--
	rem := q.remaining
	q.mu.Unlock()
	if rem <= 0 {
		q.cond.Broadcast()
	}
}

// abandoned empties the queue after every session has exited,
// returning the jobs nobody could run.
func (q *dispatchQueue) abandoned() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.pending
	q.pending = nil
	q.remaining = 0
	return items
}

// wake re-examines blocked pops after a snapshot was pooled.
func (q *dispatchQueue) wake() { q.cond.Broadcast() }

// endpointDone marks ep as having no live sessions left: the keys it
// was building become claimable by the rest of the fleet.
func (q *dispatchQueue) endpointDone(ep int) {
	q.mu.Lock()
	q.live[ep] = false
	q.mu.Unlock()
	q.cond.Broadcast()
}
