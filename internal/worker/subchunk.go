package worker

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// subchunkKey names one table a job built: the subchunk or the
// overlap-subchunk table (kind) of subchunk sub of the job's chunk of a
// catalog table.
type subchunkKey struct {
	table string
	kind  meta.NameKind
	sub   partition.SubChunkID
}

// subchunkIndex says where a chunk unit's rows go among the subchunks of
// its chunk: for every subchunk s, the positions of the rows of its
// subchunk table (table 2s) and of its overlap table (table 2s+1), each
// list in the order the table is emitted in. A position counts the chunk
// table's rows and then the overlap table's: chunkLen is the overlap
// table's first row. The index stands for the two tables it was built from
// at the lengths it records — tables only grow, so same objects at the same
// lengths are the same rows — and lives on the unit's record (units.go)
// until those tables change.
type subchunkIndex struct {
	chunkID              partition.ChunkID
	chunk, overlap       *sqlengine.Table
	chunkLen, overlapLen int
	starts               []int32 // table t's positions are pos[starts[t]:starts[t+1]]
	pos                  []int32
}

// fits reports whether x stands for the unit's tables as they are now.
func (x *subchunkIndex) fits(chunk, overlap *sqlengine.Table) bool {
	return x != nil && x.chunk == chunk && x.overlap == overlap &&
		x.chunkLen == chunk.Len() && x.overlapLen == overlap.Len()
}

// bytes is the memory the index holds, charged to its unit.
func (x *subchunkIndex) bytes() int64 { return int64(cap(x.starts)+cap(x.pos)) * 4 }

// stats is the I/O a job's subchunk tables stand for, whoever built the
// index: a scan of the chunk and overlap rows the index was built from.
func (x *subchunkIndex) stats() sqlengine.ExecStats {
	return sqlengine.ExecStats{
		SeqBytes:    int64(x.chunkLen)*int64(x.chunk.Schema.RowWidth()) + int64(x.overlapLen)*int64(x.overlap.Schema.RowWidth()),
		RowsScanned: int64(x.chunkLen + x.overlapLen),
	}
}

// indexSubchunks builds a chunk unit's subchunk index from its chunk table
// and its stored overlap table, reading each at the length it has when the
// build starts. The build is two passes, one over each table, linear in its
// rows: a row goes to the table of the subchunk its stored subChunkId names
// and to the overlap table of each other subchunk whose dilated bounds
// contain it — and only the handful of subchunks the chunker finds around
// the row by arithmetic are put to that test (partition.SubChunkNeighbours).
// Each table's rows are in declination order — rows whose declination is
// NULL, not finite or off the sphere first, then the others ascending — which
// is what lets a near-neighbour statement join the tables by declination band.
func (w *Worker) indexSubchunks(info *meta.TableInfo, chunk partition.ChunkID, chunkTable, overlapTable *sqlengine.Table) (*subchunkIndex, error) {
	x := &subchunkIndex{chunkID: chunk, chunk: chunkTable, overlap: overlapTable, chunkLen: chunkTable.Len(), overlapLen: overlapTable.Len()}
	if x.chunkLen+x.overlapLen > math.MaxInt32 {
		return nil, fmt.Errorf("worker %s: chunk %d of %s has too many rows to index", w.cfg.Name, chunk, info.Name)
	}
	raCol := info.Schema.ColIndex(info.RAColumn)
	declCol := info.Schema.ColIndex(info.DeclColumn)
	subCol := info.Schema.ColIndex("subChunkId")
	if raCol < 0 || declCol < 0 || subCol < 0 {
		return nil, fmt.Errorf("worker %s: table %s lacks partition columns", w.cfg.Name, info.Name)
	}
	subs, err := w.registry.Chunker.AllSubChunks(chunk)
	if err != nil {
		return nil, err
	}
	neighbours, err := w.registry.Chunker.SubChunkNeighbours(chunk)
	if err != nil {
		return nil, err
	}
	margin := w.registry.Chunker.Config().Overlap
	dilated := make([]sphgeom.Box, len(subs))
	for _, sub := range subs { // 0, 1, ...: the ids of a chunk's subchunks
		b, err := w.registry.Chunker.SubChunkBounds(chunk, sub)
		if err != nil {
			return nil, err
		}
		dilated[sub] = b.Dilated(margin)
	}

	// An assignment puts one row into one table, where it sorts by decl.
	type assignment struct {
		decl       float64
		table, pos int32
	}
	assigned := make([]assignment, 0, x.chunkLen+x.overlapLen)
	x.starts = make([]int32, 2*len(subs)+1)
	var near []partition.SubChunkID
	route := func(t *sqlengine.Table, n, offset int, own func(i int) partition.SubChunkID) {
		for i := 0; i < n; i++ {
			// The row is routed by its position as a point on the sphere (RA
			// wrapped, declination clamped) and sorted by the cell it holds.
			decl := t.Float(i, declCol)
			p := sphgeom.NewPoint(t.Float(i, raCol), decl)
			if t.IsNull(i, declCol) || !(decl >= -90 && decl <= 90) {
				decl = math.Inf(-1) // sorts first, outside the run MarkSorted finds
			}
			pos := int32(offset + i)
			home := own(i)
			if home >= 0 && int(home) < len(subs) {
				assigned = append(assigned, assignment{decl, 2 * int32(home), pos})
				x.starts[2*home+1]++
			}
			near = neighbours.Candidates(p, near[:0])
			for _, sub := range near {
				if sub != home && dilated[sub].Contains(p) {
					assigned = append(assigned, assignment{decl, 2*int32(sub) + 1, pos})
					x.starts[2*sub+2]++
				}
			}
		}
	}
	// Pass 1: the chunk table. A row belongs to its own subchunk table and
	// to the overlap table of any other subchunk whose dilated bounds
	// contain it.
	route(chunkTable, x.chunkLen, 0, func(i int) partition.SubChunkID { return partition.SubChunkID(chunkTable.Int(i, subCol)) })
	// Pass 2: the chunk's stored overlap rows (from neighboring chunks),
	// which are of no subchunk of this chunk.
	route(overlapTable, x.overlapLen, x.chunkLen, func(int) partition.SubChunkID { return -1 })

	// Gather each table's assignments (a counting sort by table) and order
	// them by declination.
	for t := 1; t < len(x.starts); t++ {
		x.starts[t] += x.starts[t-1] // x.starts[t] is where table t's rows start
	}
	byTable, next := make([]assignment, len(assigned)), slices.Clone(x.starts)
	for _, a := range assigned {
		byTable[next[a.table]] = a
		next[a.table]++
	}
	x.pos = make([]int32, len(byTable))
	for t := 0; t+1 < len(x.starts); t++ {
		rows := byTable[x.starts[t]:x.starts[t+1]]
		slices.SortFunc(rows, func(a, b assignment) int { // no decl is a NaN
			switch {
			case a.decl < b.decl:
				return -1
			case a.decl > b.decl:
				return 1
			}
			return int(a.pos - b.pos)
		})
		for i, r := range rows {
			x.pos[int(x.starts[t])+i] = r.pos
		}
	}
	return x, nil
}

// generateSubchunks builds, for a job, the subchunk and overlap-subchunk
// tables of every requested subchunk of a chunk unit the job has pinned,
// with the columns of proj, and returns them with the I/O they stand for.
// They are the job's: in no catalog, garbage once it ends (paper section
// 5.4: the worker "is free to drop the tables afterwards"). Which rows they
// hold the unit's subchunk index says; the job builds it only when the unit
// keeps none that fits its tables (the first near-neighbour job over the
// unit, or the first since its tables changed), and otherwise only gathers.
func (w *Worker) generateSubchunks(u *unit, subs []partition.SubChunkID, proj projection) (map[subchunkKey]*sqlengine.Table, sqlengine.ExecStats, error) {
	base, chunk := u.id.Table, partition.ChunkID(u.id.Chunk)
	info, err := w.registry.Table(base)
	if err != nil {
		return nil, sqlengine.ExecStats{}, err
	}
	// The generation is read before the tables are: a change to them after
	// it is one the index this job may build does not survive.
	x, gen := w.units.subchunkIndex(u)
	chunkTable, err := w.db.Table(meta.ChunkTableName(base, chunk))
	if err != nil {
		return nil, sqlengine.ExecStats{}, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	overlapTable, err := w.db.Table(meta.OverlapTableName(base, chunk))
	if err != nil {
		return nil, sqlengine.ExecStats{}, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	if !x.fits(chunkTable, overlapTable) {
		if x, err = w.indexSubchunks(info, chunk, chunkTable, overlapTable); err != nil {
			return nil, sqlengine.ExecStats{}, err
		}
		w.units.keepIndex(u, x, gen)
	}

	tables, err := x.gather(info, subs, proj)
	return tables, x.stats(), err
}

// gather builds the subchunk and overlap-subchunk tables of the requested
// subchunks from the tables the index was built from, split where it
// recorded: rows appended to either since are in none of them. Each table
// is in declination order and says so (sqlengine.Table.MarkSorted).
func (x *subchunkIndex) gather(info *meta.TableInfo, subs []partition.SubChunkID, proj projection) (map[subchunkKey]*sqlengine.Table, error) {
	subs = slices.Compact(slices.Sorted(slices.Values(subs))) // a header may list one twice
	tables := make(map[subchunkKey]*sqlengine.Table, 2*len(subs))
	for _, sub := range subs {
		if sub < 0 || int(sub) >= len(x.starts)/2 {
			return nil, fmt.Errorf("partition: subchunk id %d out of range for chunk %d", sub, x.chunkID)
		}
		for k, kind := range [2]meta.NameKind{meta.SubChunkTable, meta.SubChunkOverlapTable} {
			t := 2*int(sub) + k
			ref := meta.TableRef{Info: info, Kind: kind, Chunk: x.chunkID, Sub: sub}
			tbl := sqlengine.NewTable(ref.Name(), proj.schema)
			tbl.AppendFrom(x.chunk, x.overlap, x.chunkLen, x.pos[x.starts[t]:x.starts[t+1]], proj.cols)
			// The declination column is a DOUBLE of this schema by the
			// catalog's own validation; were it not, the table would just
			// stay unmarked.
			_ = tbl.MarkSorted(info.DeclColumn, -90, 90)
			tables[subchunkKey{info.Name, kind, sub}] = tbl
		}
	}
	return tables, nil
}

// projection is the columns of a catalog table that a transaction's
// statements can read of its subchunk tables, in catalog order: the schema
// those tables get and, per column, the catalog column it is copied from.
type projection struct {
	schema sqlengine.Schema
	cols   []int
}

// columnSet is the columns statements read: names, case-folded, or all.
type columnSet struct {
	names map[string]bool
	all   bool
}

// columnsRead is the columns statements name in their select items, WHERE,
// GROUP BY and ORDER BY; a select item that is * or t.* reads all of them.
// A star that is a function's argument, as in COUNT(*), reads none.
func columnsRead(sels []*sqlparse.Select) columnSet {
	set := columnSet{names: map[string]bool{}}
	visit := func(e sqlparse.Expr) bool {
		if c, ok := e.(*sqlparse.ColumnRef); ok {
			set.names[strings.ToLower(c.Column)] = true
		}
		return true
	}
	for _, sel := range sels {
		for _, it := range sel.Items {
			if _, ok := it.Expr.(*sqlparse.Star); ok {
				set.all = true
			}
			sqlparse.WalkExpr(it.Expr, visit)
		}
		sqlparse.WalkExpr(sel.Where, visit)
		for _, g := range sel.GroupBy {
			sqlparse.WalkExpr(g, visit)
		}
		for _, o := range sel.OrderBy {
			sqlparse.WalkExpr(o.Expr, visit)
		}
	}
	return set
}

// project is the projection of a catalog table onto the set's columns and
// its position columns, which the subchunk tables are sorted and joined by.
func (set columnSet) project(info *meta.TableInfo) projection {
	var p projection
	for i, c := range info.Schema {
		if set.all || set.names[strings.ToLower(c.Name)] ||
			strings.EqualFold(c.Name, info.RAColumn) || strings.EqualFold(c.Name, info.DeclColumn) {
			p.cols = append(p.cols, i)
		}
	}
	if set.all {
		p.schema = info.Schema // the catalog's own slice, as the chunk tables have it
		return p
	}
	p.schema = make(sqlengine.Schema, len(p.cols))
	for i, ci := range p.cols {
		p.schema[i] = info.Schema[ci]
	}
	return p
}
