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

// subchunkKey names one table a job built: the subchunk or the
// overlap-subchunk table (kind) of subchunk sub of the job's chunk of a
// catalog table.
type subchunkKey struct {
	table string
	kind  meta.NameKind
	sub   partition.SubChunkID
}

// generateSubchunks builds, for a job, the subchunk and overlap-subchunk
// tables of every requested subchunk of a chunk unit the job has pinned,
// and returns them with the I/O it cost. They are the job's: in no catalog,
// garbage once it ends (paper section 5.4: the worker "is free to drop the
// tables afterwards"); two jobs over one chunk at once build their own.
//
// The build is two passes, one over the chunk table and one over its stored
// overlap table, each linear in its rows however many subchunks are asked
// for: a row goes to the table of the subchunk its stored subChunkId names
// and to the overlap table of each other requested subchunk whose dilated
// bounds contain it — and only the handful of subchunks the chunker finds
// around the row by arithmetic are put to that test
// (partition.SubChunkNeighbours). Every table is emitted sorted by
// declination — rows whose declination is NULL, not finite or off the
// sphere first — and says so (sqlengine.Table.MarkSorted), which is what
// lets a near-neighbour statement join it by declination band.
func (w *Worker) generateSubchunks(id chunkstore.Unit, subs []partition.SubChunkID) (map[subchunkKey]*sqlengine.Table, sqlengine.ExecStats, error) {
	var total sqlengine.ExecStats
	base, chunk := id.Table, partition.ChunkID(id.Chunk)
	info, err := w.registry.Table(base)
	if err != nil {
		return nil, total, err
	}
	chunkTable, err := w.db.Table(meta.ChunkTableName(base, chunk))
	if err != nil {
		return nil, total, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	overlapTable, err := w.db.Table(meta.OverlapTableName(base, chunk))
	if err != nil {
		return nil, total, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}

	raCol := info.Schema.ColIndex(info.RAColumn)
	declCol := info.Schema.ColIndex(info.DeclColumn)
	subCol := info.Schema.ColIndex("subChunkId")
	if raCol < 0 || declCol < 0 || subCol < 0 {
		return nil, total, fmt.Errorf("worker %s: table %s lacks partition columns", w.cfg.Name, base)
	}

	// Every requested subchunk — a header may list one twice — is a target
	// with two tables to fill, numbered 2*target (the subchunk table) and
	// 2*target+1 (its overlap table).
	subs = slices.Compact(slices.Sorted(slices.Values(subs)))
	margin := w.registry.Chunker.Config().Overlap
	neighbours, err := w.registry.Chunker.SubChunkNeighbours(chunk)
	if err != nil {
		return nil, total, err
	}
	dilated := make([]sphgeom.Box, len(subs))
	for i, sub := range subs {
		b, err := w.registry.Chunker.SubChunkBounds(chunk, sub) // refuses an id the chunk has no subchunk for
		if err != nil {
			return nil, total, err
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
	// by declination, and fill the table: cells are copied column by column,
	// never boxed.
	for t := 1; t < len(counts); t++ {
		counts[t] += counts[t-1] // counts[t] is where table t's rows start
	}
	byTable, next := make([]assignment, len(assigned)), slices.Clone(counts)
	for _, a := range assigned {
		byTable[next[a.table]] = a
		next[a.table]++
	}
	tables := make(map[subchunkKey]*sqlengine.Table, 2*len(subs))
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
		key := subchunkKey{info.Name, meta.SubChunkTable, subs[t/2]}
		if t%2 == 1 {
			key.kind = meta.SubChunkOverlapTable
		}
		ref := meta.TableRef{Info: info, Kind: key.kind, Chunk: chunk, Sub: key.sub}
		tbl := sqlengine.NewTable(ref.Name(), info.Schema)
		tbl.AppendFrom(chunkTable, overlapTable, positions)
		// The declination column is a DOUBLE of this schema by the catalog's
		// own validation; were it not, the table would just stay unmarked.
		_ = tbl.MarkSorted(info.DeclColumn, -90, 90)
		tables[key] = tbl
	}
	return tables, total, nil
}
