package runtime

import (
	"sort"
	"sync"
)

// affGroup is one affinity group within a batch: the jobs sharing a
// pretrain affinity key, plus the endpoint currently planned to run
// them (home). Groups are the unit of placement — keeping a group
// whole keeps its warm-up singular, because every process-level
// pretrain cache is singleflighted per key.
type affGroup struct {
	key  string
	jobs []int // job indexes not yet handed to a session
	home int
	// touched flips once home has started the group: from then on its
	// warm-up is (or soon will be) running there, and moving the rest
	// of the group elsewhere would pay a second warm-up — unless the
	// coordinator already holds the group's snapshot to ship along.
	touched bool
}

// affinityQueue is the coordinator's dispatcher. At construction it groups the batch by Job.Affinity and
// assigns each group a home endpoint — capacity-weighted, least-loaded
// tiebreak (assignGroups) — while jobs with no affinity key go to a
// shared overflow FIFO that any endpoint drains. pop(ep) serves an
// endpoint its own groups first, then overflow, and only then steals:
//
//  1. whole groups whose home endpoint has no live sessions left
//     (crashed fleet members must not strand work — PR 5's liveness
//     contract);
//  2. whole untouched groups from busy endpoints (migrating an
//     unstarted group rebalances load without splitting any warm-up);
//  3. single jobs out of touched groups, but only once the coordinator
//     holds the group's snapshot artifact — the thief's request
//     pre-pushes it, so the stolen cell deserializes instead of
//     re-warming.
//
// When none of that is eligible the session blocks until a snapshot
// arrives (wake), an endpoint dies (endpointDone), work is requeued,
// or the batch finishes. A batch with no affinity keys degrades to a
// plain pull-order work queue. Placement is the only thing this
// changes: results are byte-identical wherever a cell runs.
type affinityQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// groups in deterministic assignment order (size desc, key asc);
	// byEp indexes them by current home.
	groups   []*affGroup
	byEp     [][]*affGroup
	overflow []int
	homeOf   map[string]int
	affinity []string // job index -> affinity key ("" for most jobs)
	active   []bool   // endpoint has live sessions (false after endpointDone)
	tallies  []queueStats
	// hasSnap reports whether the coordinator holds a shippable
	// snapshot for a group key; it is called with mu held and must not
	// call back into the queue.
	hasSnap   func(key string) bool
	remaining int // jobs not yet answered or abandoned
}

// newAffinityQueue builds the dispatcher for one batch. jobs is the
// full batch (indexed by the values in idxs); caps are the endpoints'
// session capacities as currently known, and must name at least one
// endpoint (the coordinator answers an empty fleet without a queue).
func newAffinityQueue(jobs []Job, idxs []int, caps []int, hasSnap func(string) bool) *affinityQueue {
	q := &affinityQueue{
		byEp:      make([][]*affGroup, len(caps)),
		homeOf:    make(map[string]int),
		affinity:  make([]string, len(jobs)),
		active:    make([]bool, len(caps)),
		tallies:   make([]queueStats, len(caps)),
		hasSnap:   hasSnap,
		remaining: len(idxs),
	}
	q.cond = sync.NewCond(&q.mu)
	for i := range q.active {
		q.active[i] = true
	}
	byKey := make(map[string]*affGroup)
	for _, i := range idxs {
		a := jobs[i].Affinity
		q.affinity[i] = a
		if a == "" {
			q.overflow = append(q.overflow, i)
			continue
		}
		g := byKey[a]
		if g == nil {
			g = &affGroup{key: a}
			byKey[a] = g
			q.groups = append(q.groups, g)
		}
		g.jobs = append(g.jobs, i)
	}
	// Deterministic assignment order: largest groups place first (the
	// classic LPT greedy), key breaking size ties.
	sort.Slice(q.groups, func(i, j int) bool {
		gi, gj := q.groups[i], q.groups[j]
		if len(gi.jobs) != len(gj.jobs) {
			return len(gi.jobs) > len(gj.jobs)
		}
		return gi.key < gj.key
	})
	sizes := make([]int, len(q.groups))
	for i, g := range q.groups {
		sizes[i] = len(g.jobs)
	}
	for i, home := range assignGroups(sizes, caps) {
		g := q.groups[i]
		g.home = home
		q.homeOf[g.key] = home
		q.byEp[home] = append(q.byEp[home], g)
	}
	return q
}

// assignGroups places groups (given in descending-size order) onto
// endpoints weighted by capacity: each group goes to the endpoint
// whose relative load after taking it — (load+size)/capacity — is
// smallest, ties to the lowest endpoint index. A capacity-4 endpoint
// therefore absorbs ~4x a capacity-1 endpoint's cells while the
// least-loaded tiebreak keeps equals balanced. Deterministic in its
// inputs.
func assignGroups(sizes, caps []int) []int {
	homes := make([]int, len(sizes))
	if len(caps) == 0 {
		return homes
	}
	load := make([]int, len(caps))
	for i, size := range sizes {
		best, bestScore := 0, 0.0
		for e, c := range caps {
			if c < 1 {
				c = 1
			}
			score := float64(load[e]+size) / float64(c)
			if e == 0 || score < bestScore {
				best, bestScore = e, score
			}
		}
		homes[i] = best
		load[best] += size
	}
	return homes
}

// pop returns the next job for endpoint ep, blocking while one may yet
// become eligible; ok is false once the batch is over.
func (q *affinityQueue) pop(ep int) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if i, ok := q.popOwn(ep); ok {
			return i, true
		}
		if i, ok := q.popSteal(ep); ok {
			return i, true
		}
		if q.remaining <= 0 {
			return -1, false
		}
		q.cond.Wait()
	}
}

// popOwn serves ep from its own groups, then from overflow. Called
// with mu held.
func (q *affinityQueue) popOwn(ep int) (int, bool) {
	for _, g := range q.byEp[ep] {
		if g.home != ep || len(g.jobs) == 0 {
			continue // migrated away, or drained
		}
		g.touched = true
		q.tallies[ep].affinityHits++
		return q.shift(g), true
	}
	return q.popOverflow(ep)
}

// popOverflow serves ep the oldest overflow job. Requeued affinity
// jobs land here too: running at their group's current home counts as
// a hit, anywhere else as a miss. Called with mu held.
func (q *affinityQueue) popOverflow(ep int) (int, bool) {
	if len(q.overflow) == 0 {
		return -1, false
	}
	i := q.overflow[0]
	q.overflow = q.overflow[1:]
	if a := q.affinity[i]; a != "" {
		if q.homeOf[a] == ep {
			q.tallies[ep].affinityHits++
		} else {
			q.tallies[ep].affinityMisses++
		}
	}
	return i, true
}

// popSteal takes work planned for another endpoint, in the order that
// preserves the one-warm-up-per-group guarantee. Called with mu held.
func (q *affinityQueue) popSteal(ep int) (int, bool) {
	// 1. Adopt whole groups stranded on endpoints with no live
	// sessions. Touched or not — nobody else will run them.
	for _, g := range q.groups {
		if len(g.jobs) > 0 && g.home != ep && !q.active[g.home] {
			return q.adopt(g, ep), true
		}
	}
	// 2. Adopt whole untouched groups from live endpoints: their
	// warm-up hasn't started anywhere, so migrating the group costs
	// nothing and drains stragglers.
	for _, g := range q.groups {
		if len(g.jobs) > 0 && g.home != ep && !g.touched {
			return q.adopt(g, ep), true
		}
	}
	// 3. Steal singles out of touched groups only once their snapshot
	// is shippable: the stolen cell's request pre-pushes it, so no
	// second warm-up runs.
	if q.hasSnap != nil {
		for _, g := range q.groups {
			if len(g.jobs) > 0 && g.home != ep && q.hasSnap(g.key) {
				q.tallies[ep].stolen++
				q.tallies[ep].affinityMisses++
				return q.shift(g), true
			}
		}
	}
	return -1, false
}

// adopt migrates a whole group to a new home and pops its next job.
// Every remaining job counts as stolen (it runs away from the planned
// home) but future pops are hits — the group is co-located at its new
// home. Called with mu held.
func (q *affinityQueue) adopt(g *affGroup, ep int) int {
	q.tallies[ep].stolen += int64(len(g.jobs))
	g.home = ep
	q.homeOf[g.key] = ep
	q.byEp[ep] = append(q.byEp[ep], g)
	g.touched = true
	q.tallies[ep].affinityHits++
	return q.shift(g)
}

// shift removes and returns the group's next job. Called with mu held.
func (q *affinityQueue) shift(g *affGroup) int {
	i := g.jobs[0]
	g.jobs = g.jobs[1:]
	return i
}

// take removes up to k more jobs for ep without blocking or stealing —
// the frame top-up. Serving own groups first packs same-key cells into
// the same frame (and the same worker process).
func (q *affinityQueue) take(ep, k int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []int
	for len(out) < k {
		i, ok := q.popOwn(ep)
		if !ok {
			break
		}
		out = append(out, i)
	}
	return out
}

// requeue gives unanswered jobs back to the fleet via overflow: any
// endpoint may absorb them, their group's current home preferred only
// by the hit/miss tally.
func (q *affinityQueue) requeue(idxs ...int) {
	q.mu.Lock()
	q.overflow = append(q.overflow, idxs...)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// finalize marks one job answered; at zero, blocked pops return done.
func (q *affinityQueue) finalize() {
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
func (q *affinityQueue) abandoned() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.overflow
	q.overflow = nil
	for _, g := range q.groups {
		items = append(items, g.jobs...)
		g.jobs = nil
	}
	q.remaining = 0
	return items
}

// wake re-examines blocked pops after external state changed — a
// snapshot artifact arrived, so touched groups may now be stealable.
func (q *affinityQueue) wake() { q.cond.Broadcast() }

// endpointDone marks ep as having no live sessions left; its groups
// become adoptable by the rest of the fleet.
func (q *affinityQueue) endpointDone(ep int) {
	q.mu.Lock()
	q.active[ep] = false
	q.mu.Unlock()
	q.cond.Broadcast()
}

// stats returns ep's scheduling tally.
func (q *affinityQueue) stats(ep int) queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tallies[ep]
}
