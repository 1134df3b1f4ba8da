package worker

import (
	"fmt"

	"repro/internal/chunkstore"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
)

// Subchunk tables are materialized on the fly and reference-counted on the
// unit they are derived from (unit.subs, under the unit table's mutex).
// Concurrent chunk queries needing the same subchunk share one
// materialization; tables are dropped when the last user releases them
// unless caching is enabled (paper section 5.4: the worker "is free to
// drop the tables afterwards ... enables the worker to cache subchunk
// tables, although the current implementation does not cache them"), and
// cached ones go when their unit's tables do.
//
// Generation is batched: all subchunk tables a chunk query needs are
// built in one pass over the chunk table and one pass over its stored
// overlap table, not one scan per subchunk — a chunk query touching all
// ~200 subchunks costs two scans, not 400.

type subEntry struct {
	refs  int // guarded by unitTable.mu
	ready chan struct{}
	err   error
}

// acquireSubchunks ensures the subchunk and overlap-subchunk tables of
// every listed subchunk of u exist, returning a release closure and the
// I/O stats spent on generation this call triggered. The caller holds a
// pin on u.
func (w *Worker) acquireSubchunks(u *unit, subs []partition.SubChunkID) (func(), sqlengine.ExecStats, error) {
	t := w.units
	// Partition the requested subs into those already materialized (or in
	// flight) and those this call must generate.
	var toGen []partition.SubChunkID
	var genEntries, waitFor []*subEntry
	t.mu.Lock()
	if u.subs == nil {
		u.subs = map[partition.SubChunkID]*subEntry{}
	}
	for _, sub := range subs {
		entry, ok := u.subs[sub]
		if !ok {
			entry = &subEntry{ready: make(chan struct{})}
			u.subs[sub] = entry
			toGen = append(toGen, sub)
			genEntries = append(genEntries, entry)
		} else {
			waitFor = append(waitFor, entry)
		}
		entry.refs++
	}
	t.mu.Unlock()

	release := func() {
		var toDrop []partition.SubChunkID
		t.mu.Lock()
		for _, sub := range subs {
			entry := u.subs[sub]
			entry.refs--
			if entry.refs == 0 && !w.cfg.CacheSubChunks {
				delete(u.subs, sub)
				toDrop = append(toDrop, sub)
			}
		}
		t.mu.Unlock()
		for _, sub := range toDrop {
			w.dropSubchunkTables(u.id, sub)
		}
	}

	var stats sqlengine.ExecStats
	var err error
	if len(toGen) > 0 {
		stats, err = w.generateSubchunks(u.id, toGen)
		for _, e := range genEntries {
			e.err = err
			close(e.ready)
		}
	}
	for _, e := range waitFor {
		if err != nil {
			break
		}
		<-e.ready
		err = e.err
	}
	if err != nil {
		release()
		return nil, stats, err
	}
	return release, stats, nil
}

// generateSubchunks builds the subchunk table and the overlap-subchunk
// table of every requested subchunk of a chunk unit in two passes: one over
// the chunk table (splitting rows by their stored subChunkId and testing
// dilated-bounds membership for overlap assignment) and one over the
// chunk's stored overlap table.
func (w *Worker) generateSubchunks(id chunkstore.Unit, subs []partition.SubChunkID) (sqlengine.ExecStats, error) {
	var total sqlengine.ExecStats
	base, chunk := id.Table, partition.ChunkID(id.Chunk)
	info, err := w.registry.Table(base)
	if err != nil {
		return total, err
	}
	chunkTable, err := w.db.Table(meta.ChunkTableName(base, chunk))
	if err != nil {
		return total, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	overlapTable, err := w.db.Table(meta.OverlapTableName(base, chunk))
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
		w.db.Put(st)
		ot := sqlengine.NewTable(meta.SubChunkOverlapTableName(base, chunk, tg.sub), info.Schema)
		ot.AppendFrom(chunkTable, tg.ovOwn)
		ot.AppendFrom(overlapTable, tg.ovFar)
		w.db.Put(ot)
	}
	return total, nil
}

func (w *Worker) dropSubchunkTables(id chunkstore.Unit, sub partition.SubChunkID) {
	chunk := partition.ChunkID(id.Chunk)
	_ = w.db.Drop(meta.SubChunkTableName(id.Table, chunk, sub), true)
	_ = w.db.Drop(meta.SubChunkOverlapTableName(id.Table, chunk, sub), true)
}
