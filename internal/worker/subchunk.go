package worker

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
)

// subchunkManager materializes and reference-counts on-the-fly subchunk
// tables. Concurrent chunk queries needing the same subchunk share one
// materialization; tables are dropped when the last user releases them
// unless caching is enabled (paper section 5.4: the worker "is free to
// drop the tables afterwards ... enables the worker to cache subchunk
// tables, although the current implementation does not cache them").
//
// Generation is batched: all subchunk tables a chunk query needs are
// built in one pass over the chunk table and one pass over its stored
// overlap table, not one scan per subchunk — a chunk query touching all
// ~200 subchunks costs two scans, not 400.
type subchunkManager struct {
	w  *Worker
	mu sync.Mutex
	// entries keyed by "<base>/<chunk>/<sub>".
	entries map[string]*subEntry
}

type subEntry struct {
	refs  int
	ready chan struct{}
	err   error
	stats sqlengine.ExecStats
}

func newSubchunkManager(w *Worker) *subchunkManager {
	return &subchunkManager{w: w, entries: map[string]*subEntry{}}
}

func subKey(base string, chunk partition.ChunkID, sub partition.SubChunkID) string {
	return fmt.Sprintf("%s/%d/%d", base, chunk, sub)
}

// acquire ensures the subchunk (and overlap-subchunk) tables exist for
// every (base table, subchunk) combination, returning a release closure
// and the I/O stats spent on generation this call triggered.
func (m *subchunkManager) acquire(chunk partition.ChunkID, subs []partition.SubChunkID,
	bases map[string]bool) (func(), sqlengine.ExecStats, error) {
	var total sqlengine.ExecStats
	type held struct {
		key   string
		base  string
		sub   partition.SubChunkID
		entry *subEntry
	}
	var acquired []held

	releaseAll := func() {
		m.mu.Lock()
		var toDrop []held
		for _, h := range acquired {
			h.entry.refs--
			if h.entry.refs == 0 && !m.w.cfg.CacheSubChunks {
				delete(m.entries, h.key)
				toDrop = append(toDrop, h)
			}
		}
		m.mu.Unlock()
		for _, h := range toDrop {
			m.dropTables(h.base, chunk, h.sub)
		}
	}

	for base := range bases {
		// Partition the requested subs into those already materialized
		// (or in flight) and those this call must generate.
		m.mu.Lock()
		var toGen []partition.SubChunkID
		var genEntries []*subEntry
		var waitFor []*subEntry
		for _, sub := range subs {
			key := subKey(base, chunk, sub)
			entry, ok := m.entries[key]
			if !ok {
				entry = &subEntry{ready: make(chan struct{})}
				m.entries[key] = entry
				toGen = append(toGen, sub)
				genEntries = append(genEntries, entry)
			} else {
				waitFor = append(waitFor, entry)
			}
			entry.refs++
			acquired = append(acquired, held{key: key, base: base, sub: sub, entry: entry})
		}
		m.mu.Unlock()

		if len(toGen) > 0 {
			stats, err := m.generateBatch(base, chunk, toGen)
			for _, e := range genEntries {
				e.stats = stats
				e.err = err
				close(e.ready)
			}
			total.Add(stats)
			if err != nil {
				releaseAll()
				return nil, total, err
			}
		}
		for _, e := range waitFor {
			<-e.ready
			if e.err != nil {
				err := e.err
				releaseAll()
				return nil, total, err
			}
		}
	}
	return releaseAll, total, nil
}

// generateBatch builds <base>_<cc>_<ss> and <base>FullOverlap_<cc>_<ss>
// for every requested subchunk in two passes: one over the chunk table
// (splitting rows by their stored subChunkId and testing dilated-bounds
// membership for overlap assignment) and one over the chunk's stored
// overlap table.
func (m *subchunkManager) generateBatch(base string, chunk partition.ChunkID,
	subs []partition.SubChunkID) (sqlengine.ExecStats, error) {
	var total sqlengine.ExecStats
	w := m.w
	info, err := w.registry.Table(base)
	if err != nil {
		return total, err
	}
	db, err := w.engine.Database(w.registry.DB)
	if err != nil {
		return total, err
	}
	chunkTable, err := db.Table(meta.ChunkTableName(base, chunk))
	if err != nil {
		return total, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	overlapTable, err := db.Table(meta.OverlapTableName(base, chunk))
	if err != nil {
		return total, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}

	raCol := info.Schema.ColIndex(info.RAColumn)
	declCol := info.Schema.ColIndex(info.DeclColumn)
	subCol := info.Schema.ColIndex("subChunkId")
	if raCol < 0 || declCol < 0 || subCol < 0 {
		return total, fmt.Errorf("worker %s: table %s lacks partition columns", w.cfg.Name, base)
	}

	// Precompute each target subchunk's dilated bounds.
	margin := w.registry.Chunker.Config().Overlap
	wanted := make(map[partition.SubChunkID]int, len(subs)) // sub -> slot
	// A target collects the positions of its rows in the chunk table (own
	// and ovOwn) and in the chunk's overlap table (ovFar).
	type target struct {
		sub               partition.SubChunkID
		dil               sphgeom.Box
		own, ovOwn, ovFar []int
	}
	targets := make([]*target, 0, len(subs))
	for _, sub := range subs {
		b, err := w.registry.Chunker.SubChunkBounds(chunk, sub)
		if err != nil {
			return total, err
		}
		wanted[sub] = len(targets)
		targets = append(targets, &target{sub: sub, dil: b.Dilated(margin)})
	}

	// Pass 1: chunk table. A row belongs to its own subchunk table and
	// to the overlap table of any other requested subchunk whose
	// dilated bounds contain it.
	total.SeqBytes += chunkTable.ByteSize()
	total.RowsScanned += int64(chunkTable.Len())
	for i, n := 0, chunkTable.Len(); i < n; i++ {
		own := partition.SubChunkID(chunkTable.Int(i, subCol))
		if slot, ok := wanted[own]; ok {
			targets[slot].own = append(targets[slot].own, i)
		}
		p := sphgeom.NewPoint(chunkTable.Float(i, raCol), chunkTable.Float(i, declCol))
		for _, tg := range targets {
			if own != tg.sub && tg.dil.Contains(p) {
				tg.ovOwn = append(tg.ovOwn, i)
			}
		}
	}

	// Pass 2: the chunk's stored overlap rows (from neighboring chunks).
	total.SeqBytes += overlapTable.ByteSize()
	total.RowsScanned += int64(overlapTable.Len())
	for i, n := 0, overlapTable.Len(); i < n; i++ {
		p := sphgeom.NewPoint(overlapTable.Float(i, raCol), overlapTable.Float(i, declCol))
		for _, tg := range targets {
			if tg.dil.Contains(p) {
				tg.ovFar = append(tg.ovFar, i)
			}
		}
	}

	// Install tables: cells are copied column by column, never boxed.
	for _, tg := range targets {
		st := sqlengine.NewTable(meta.SubChunkTableName(base, chunk, tg.sub), info.Schema)
		st.AppendFrom(chunkTable, tg.own)
		db.Put(st)
		ot := sqlengine.NewTable(meta.SubChunkOverlapTableName(base, chunk, tg.sub), info.Schema)
		ot.AppendFrom(chunkTable, tg.ovOwn)
		ot.AppendFrom(overlapTable, tg.ovFar)
		db.Put(ot)
	}
	return total, nil
}

// evictChunk drops the cached (refs==0) subchunk materializations
// derived from one chunk of a base table, releasing their tables along
// with the evicted base. Entries with live refs cannot exist when this
// runs — a referencing job holds a pin on the base unit, and pinned
// units are never evicted — but are skipped defensively rather than
// yanked from under a reader.
func (m *subchunkManager) evictChunk(base string, chunk partition.ChunkID) {
	prefix := fmt.Sprintf("%s/%d/", base, chunk)
	m.mu.Lock()
	var toDrop []partition.SubChunkID
	for key, e := range m.entries {
		if e.refs != 0 || !strings.HasPrefix(key, prefix) {
			continue
		}
		var sub int
		if _, err := fmt.Sscanf(key[len(prefix):], "%d", &sub); err != nil {
			continue
		}
		delete(m.entries, key)
		toDrop = append(toDrop, partition.SubChunkID(sub))
	}
	m.mu.Unlock()
	for _, sub := range toDrop {
		m.dropTables(base, chunk, sub)
	}
}

func (m *subchunkManager) dropTables(base string, chunk partition.ChunkID, sub partition.SubChunkID) {
	db, err := m.w.engine.Database(m.w.registry.DB)
	if err != nil {
		return
	}
	_ = db.Drop(meta.SubChunkTableName(base, chunk, sub), true)
	_ = db.Drop(meta.SubChunkOverlapTableName(base, chunk, sub), true)
}

// CachedSubchunkCount reports how many subchunk materializations are
// live (cached or in use); exposed for cache-ablation experiments.
func (w *Worker) CachedSubchunkCount() int {
	w.subs.mu.Lock()
	defer w.subs.mu.Unlock()
	return len(w.subs.entries)
}
