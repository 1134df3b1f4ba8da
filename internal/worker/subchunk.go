package worker

import (
	"fmt"
	"math"
	"slices"

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
// ~200 subchunks costs two scans, not 400 — and a pass costs what its rows
// cost, however many subchunks are asked for.

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
// table of every requested subchunk of a chunk unit in two passes, one over
// the chunk table and one over the chunk's stored overlap table, each linear
// in its rows: a row goes to the table of the subchunk its stored subChunkId
// names and to the overlap table of each other requested subchunk whose
// dilated bounds contain it — and only the handful of subchunks the chunker
// finds around the row by arithmetic are put to that test
// (partition.SubChunkNeighbours), not every target. Every table is emitted
// sorted by declination — rows whose declination is NULL, not finite or off
// the sphere first — and says so (sqlengine.Table.MarkSorted), which is what
// lets a near-neighbour statement join it by declination band.
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

	// Every requested subchunk is a target with two tables to fill, numbered
	// 2*target (the subchunk table) and 2*target+1 (its overlap table).
	margin := w.registry.Chunker.Config().Overlap
	neighbours, err := w.registry.Chunker.SubChunkNeighbours(chunk)
	if err != nil {
		return total, err
	}
	dilated := make([]sphgeom.Box, len(subs))
	for i, sub := range subs {
		b, err := w.registry.Chunker.SubChunkBounds(chunk, sub) // refuses an id the chunk has no subchunk for
		if err != nil {
			return total, err
		}
		dilated[i] = b.Dilated(margin)
	}
	slots := make([]int, 1+int(slices.Max(subs))) // subchunk id -> 1 + its target
	for i, sub := range subs {
		slots[sub] = i + 1
	}
	targetOf := func(sub partition.SubChunkID) int {
		if sub < 0 || int(sub) >= len(slots) {
			return -1
		}
		return slots[sub] - 1
	}

	// An assignment puts one row — a position in the chunk table followed by
	// the chunk's overlap table — into one table, where it sorts by decl.
	type assignment struct {
		table int
		decl  float64
		pos   int
	}
	var assigned []assignment
	counts := make([]int, 2*len(subs)+1)
	assign := func(table int, decl float64, pos int) {
		assigned = append(assigned, assignment{table, decl, pos})
		counts[table+1]++
	}
	var near []partition.SubChunkID
	route := func(t *sqlengine.Table, offset int, own func(i int) partition.SubChunkID) {
		total.SeqBytes += t.ByteSize()
		total.RowsScanned += int64(t.Len())
		for i, n := 0, t.Len(); i < n; i++ {
			// The row is routed by its position as a point on the sphere (RA
			// wrapped, declination clamped) and sorted by the cell it holds.
			decl := t.Float(i, declCol)
			p := sphgeom.NewPoint(t.Float(i, raCol), decl)
			if t.IsNull(i, declCol) || !(decl >= -90 && decl <= 90) {
				decl = math.Inf(-1) // sorts first, outside the run MarkSorted finds
			}
			home := own(i)
			if tg := targetOf(home); tg >= 0 {
				assign(2*tg, decl, offset+i)
			}
			near = neighbours.Candidates(p, near[:0])
			for _, sub := range near {
				if tg := targetOf(sub); tg >= 0 && sub != home && dilated[tg].Contains(p) {
					assign(2*tg+1, decl, offset+i)
				}
			}
		}
	}
	// Pass 1: chunk table. A row belongs to its own subchunk table and to
	// the overlap table of any other requested subchunk whose dilated
	// bounds contain it.
	route(chunkTable, 0, func(i int) partition.SubChunkID { return partition.SubChunkID(chunkTable.Int(i, subCol)) })
	// Pass 2: the chunk's stored overlap rows (from neighboring chunks),
	// which are of no subchunk of this chunk.
	route(overlapTable, chunkTable.Len(), func(int) partition.SubChunkID { return -1 })

	// Gather each table's assignments (a counting sort by table), order them
	// by declination, and install the table: cells are copied column by
	// column, never boxed.
	for t := 1; t < len(counts); t++ {
		counts[t] += counts[t-1] // counts[t] is where table t's rows start
	}
	byTable, next := make([]assignment, len(assigned)), slices.Clone(counts)
	for _, a := range assigned {
		byTable[next[a.table]] = a
		next[a.table]++
	}
	var positions []int
	for t := 0; t+1 < len(counts); t++ {
		rows := byTable[counts[t]:counts[t+1]]
		slices.SortFunc(rows, func(a, b assignment) int { // no decl is a NaN
			switch {
			case a.decl < b.decl:
				return -1
			case a.decl > b.decl:
				return 1
			}
			return a.pos - b.pos
		})
		positions = positions[:0]
		for _, r := range rows {
			positions = append(positions, r.pos)
		}
		name := meta.SubChunkTableName(base, chunk, subs[t/2])
		if t%2 == 1 {
			name = meta.SubChunkOverlapTableName(base, chunk, subs[t/2])
		}
		tbl := sqlengine.NewTable(name, info.Schema)
		tbl.AppendFrom(chunkTable, overlapTable, positions)
		// The declination column is a DOUBLE of this schema by the catalog's
		// own validation; were it not, the table would just stay unmarked.
		_ = tbl.MarkSorted(info.DeclColumn, -90, 90)
		w.db.Put(tbl)
	}
	return total, nil
}

func (w *Worker) dropSubchunkTables(id chunkstore.Unit, sub partition.SubChunkID) {
	chunk := partition.ChunkID(id.Chunk)
	_ = w.db.Drop(meta.SubChunkTableName(id.Table, chunk, sub), true)
	_ = w.db.Drop(meta.SubChunkOverlapTableName(id.Table, chunk, sub), true)
}
