package worker

import (
	"sync"

	"repro/internal/partition"
)

// gangQueue is the scan lane of the two-class scheduler: queued
// full-scan jobs are grouped by chunk, and an executor drains a whole
// chunk's group ("gang") at once. That is the worker's shared scan (paper
// section 4.3): per chunk per gang the unit is made resident once,
// materialized at most once, and read by every member while it is pinned.
// Groups leave in FIFO order of their first job; jobs within a group
// keep arrival order.
type gangQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	order   []partition.ChunkID
	byKey   map[partition.ChunkID][]*job
	n       int
	max     int
	maxGang int
	closed  bool
}

func newGangQueue(depth, maxGang int) *gangQueue {
	q := &gangQueue{byKey: map[partition.ChunkID][]*job{}, max: depth, maxGang: maxGang}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job; false means the queue is full or closed.
func (q *gangQueue) push(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n >= q.max {
		return false
	}
	if len(q.byKey[j.chunk]) == 0 {
		q.order = append(q.order, j.chunk)
	}
	q.byKey[j.chunk] = append(q.byKey[j.chunk], j)
	q.n++
	q.cond.Signal()
	return true
}

// popGang blocks for the oldest chunk group and removes up to maxGang
// of its jobs, so a same-chunk burst cannot turn one slot into
// unbounded concurrency; the remainder stays queued under the same key, a
// later gang (which finds the unit resident if the first still runs). nil
// means the queue was closed (remaining jobs are abandoned, like the
// seed's FIFO on Close).
func (q *gangQueue) popGang() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for !q.closed && len(q.order) == 0 {
			q.cond.Wait()
		}
		if q.closed {
			return nil
		}
		key := q.order[0]
		q.order = q.order[1:]
		gang := q.byKey[key]
		if len(gang) == 0 {
			// The group was emptied by cancellation; its order slot is
			// stale.
			continue
		}
		if len(gang) > q.maxGang {
			q.byKey[key] = gang[q.maxGang:]
			gang = gang[:q.maxGang:q.maxGang]
			q.order = append(q.order, key)
		} else {
			delete(q.byKey, key)
		}
		q.n -= len(gang)
		return gang
	}
}

// remove dequeues a canceled job before any executor pops it; false
// means the job already left the queue (it is running, finished, or was
// popped concurrently — the state machine handles those). An emptied
// chunk group keeps its place in order; popGang skips empty groups.
func (q *gangQueue) remove(target *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := q.byKey[target.chunk]
	for i, j := range jobs {
		if j != target {
			continue
		}
		jobs = append(jobs[:i:i], jobs[i+1:]...)
		if len(jobs) == 0 {
			delete(q.byKey, target.chunk)
		} else {
			q.byKey[target.chunk] = jobs
		}
		q.n--
		return true
	}
	return false
}

func (q *gangQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *gangQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
