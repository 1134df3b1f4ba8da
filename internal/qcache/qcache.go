// Package qcache is the czar-level content-addressed result cache: for
// the dominant interactive workload — objectId dives and small cone
// searches arriving from thousands of frontend connections — a repeat
// query should touch zero workers.
//
// Entries are keyed by the content address of a plan (database +
// canonical statement + chunk set, built by core.Plan.CacheKey) and
// stamped with the cluster state they were computed against: the
// placement epoch and the per-table ingest generations of every table
// the statement references. A lookup whose stamps differ from the
// entry's is a miss that also drops the entry — repair, elastic
// membership (AddWorker/RemoveWorker), and ingest can therefore never
// serve stale rows, without any explicit invalidation hook. Entries
// are byte-budgeted with LRU eviction.
//
// An entry holds what the czar's row stream holds: the answer's rows as
// encoded batches (rowcodec.Batch), pointer-free bytes the collector
// never walks, charged what they hold. A hit replays them into the next
// session's stream, so every reader boxes rows of its own.
package qcache

import (
	"container/list"
	"sync"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// Result is one cached final answer. Its rows are in one of two forms, the
// one the entry was given: encoded Batches — what the czar stores, the very
// bytes its row stream holds, so a hit replays them into the next stream
// and every reader boxes rows of its own — or boxed Rows, which readers
// share.
type Result struct {
	Cols    []string
	Types   []sqlparse.ColType
	Rows    []sqlengine.Row
	Batches []rowcodec.Batch
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count lookups. A stamp-mismatch lookup counts as
	// both a miss and an invalidation.
	Hits, Misses int64
	// Evictions counts entries dropped for space (LRU).
	Evictions int64
	// Invalidations counts entries dropped because their placement
	// epoch or ingest generations no longer matched the cluster's.
	Invalidations int64
	// Entries and Bytes describe current occupancy; MaxBytes is the
	// configured budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Epoch is the newest placement epoch any lookup or fill carried —
	// the validity horizon current entries are checked against.
	Epoch int64
}

type entry struct {
	key   string
	res   Result
	bytes int64
	epoch int64
	gens  string
	elem  *list.Element
}

// Cache is a byte-budgeted LRU result cache, safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*entry
	lru     *list.List // front = most recently used

	hits, misses, evictions, invalidations int64
	epoch                                  int64
}

// New builds a cache bounded to maxBytes of estimated result payload.
func New(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &Cache{max: maxBytes, entries: map[string]*entry{}, lru: list.New()}
}

// Get returns the cached result for key when one exists and its stamps
// match the caller's current view (placement epoch + ingest
// generations). A stamped-out entry is removed and counted as an
// invalidation; the lookup is then a miss.
func (c *Cache) Get(key string, epoch int64, gens string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
	}
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return Result{}, false
	}
	if e.epoch != epoch || e.gens != gens {
		c.removeLocked(e)
		c.invalidations++
		c.misses++
		return Result{}, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return e.res, true
}

// Put stores a result computed against the given stamps, evicting LRU
// entries until it fits. Results larger than the whole budget are not
// cached. Rows and batches are stored by reference; callers must treat
// them as immutable (a batch already is — the czar's row streams share
// it).
func (c *Cache) Put(key string, epoch int64, gens string, res Result) {
	size := estimateBytes(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
	}
	if size > c.max {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	for c.bytes+size > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.evictions++
	}
	e := &entry{key: key, res: res, bytes: size, epoch: epoch, gens: gens}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		MaxBytes:      c.max,
		Epoch:         c.epoch,
	}
}

// removeLocked unlinks an entry; the caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// estimateBytes sizes a result for the byte budget. Encoded batches are
// charged what they hold. Boxed rows are estimated: 16 bytes per numeric
// value, string length + header for strings, plus a small per-row and
// per-entry overhead — enough for a budget that bounds memory by order of
// magnitude.
func estimateBytes(res Result) int64 {
	const (
		entryOverhead = 256
		rowOverhead   = 48
		scalarBytes   = 16
	)
	size := int64(entryOverhead)
	for _, col := range res.Cols {
		size += int64(len(col)) + scalarBytes
	}
	for _, b := range res.Batches {
		size += b.Size()
	}
	for _, row := range res.Rows {
		size += rowOverhead
		for _, v := range row {
			if s, ok := v.(string); ok {
				size += int64(len(s)) + scalarBytes
			} else {
				size += scalarBytes
			}
		}
	}
	return size
}
