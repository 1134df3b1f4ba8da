package meta

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/partition"
)

// This file is the one place that spells worker-side table names (paper
// sections 5.2 and 5.4) and the one place that reads them back. A
// partitioned table Object is stored per chunk as Object_CC with an
// overlap companion ObjectFullOverlap_CC, and near-neighbour jobs derive
// Object_CC_SS and ObjectFullOverlap_CC_SS from those on the fly; a
// replicated table keeps its own name. Table names may themselves contain
// digits and underscores (Station_7), so a name is only decodable against
// the set of declared tables: Registry.ResolveTable.

// overlapSuffix marks the overlap companion of a chunk or subchunk table;
// lowerOverlapSuffix is how it reads in a lower-cased name.
const overlapSuffix = "FullOverlap"

var lowerOverlapSuffix = strings.ToLower(overlapSuffix)

// ChunkTableName returns the worker-side table name for a chunk
// (Object_CC, section 5.2).
func ChunkTableName(table string, chunk partition.ChunkID) string {
	return table + "_" + strconv.Itoa(int(chunk))
}

// SubChunkTableName returns the worker-side on-the-fly subchunk table
// name (Object_CC_SS).
func SubChunkTableName(table string, chunk partition.ChunkID, sub partition.SubChunkID) string {
	return ChunkTableName(table, chunk) + "_" + strconv.Itoa(int(sub))
}

// OverlapTableName returns the worker-side overlap companion of a chunk
// table (ObjectFullOverlap_CC): rows within the overlap margin outside
// the chunk.
func OverlapTableName(table string, chunk partition.ChunkID) string {
	return ChunkTableName(table+overlapSuffix, chunk)
}

// SubChunkOverlapTableName returns the on-the-fly overlap subchunk table
// name (ObjectFullOverlap_CC_SS): rows within the margin of a subchunk,
// outside it.
func SubChunkOverlapTableName(table string, chunk partition.ChunkID, sub partition.SubChunkID) string {
	return SubChunkTableName(table+overlapSuffix, chunk, sub)
}

// NameKind says which of the convention's five forms a worker-side table
// name has.
type NameKind int

const (
	// SharedTable is a replicated table under its own name.
	SharedTable NameKind = iota
	// ChunkTable is Object_CC.
	ChunkTable
	// ChunkOverlapTable is ObjectFullOverlap_CC.
	ChunkOverlapTable
	// SubChunkTable is Object_CC_SS.
	SubChunkTable
	// SubChunkOverlapTable is ObjectFullOverlap_CC_SS.
	SubChunkOverlapTable
)

// TableRef is a worker-side table name, decoded: which catalog table it
// stores a piece of, and which piece.
type TableRef struct {
	Info *TableInfo
	Kind NameKind
	// Chunk is set for every kind but SharedTable, Sub for the two
	// subchunk kinds.
	Chunk partition.ChunkID
	Sub   partition.SubChunkID
}

// Subchunk reports whether the kind is one of the two a near-neighbour job
// derives per subchunk.
func (k NameKind) Subchunk() bool { return k == SubChunkTable || k == SubChunkOverlapTable }

// Name spells the worker-side name of the piece r decodes to: ResolveTable
// read backwards.
func (r TableRef) Name() string {
	switch r.Kind {
	case ChunkTable:
		return ChunkTableName(r.Info.Name, r.Chunk)
	case ChunkOverlapTable:
		return OverlapTableName(r.Info.Name, r.Chunk)
	case SubChunkTable:
		return SubChunkTableName(r.Info.Name, r.Chunk, r.Sub)
	case SubChunkOverlapTable:
		return SubChunkOverlapTableName(r.Info.Name, r.Chunk, r.Sub)
	}
	return r.Info.Name
}

// nameSplit is one way a name could have been built: from base, with or
// without the overlap suffix, followed by n id groups.
type nameSplit struct {
	base    string
	overlap bool
	n       int
	tail    [2]int // the id groups, last first
}

// nameSplits lists every way a lower-cased name could have been built by
// the functions above, longest base first: the name itself, then with one
// and with two trailing _<id> groups taken off, each also with the overlap
// suffix removed. An id group is the decimal a builder prints — digits, no
// sign, no leading zero — so object_007 splits no further than itself.
func nameSplits(lower string) (out [6]nameSplit, count int) {
	sp := nameSplit{base: lower}
	for {
		out[count] = sp
		count++
		if base, ok := strings.CutSuffix(sp.base, lowerOverlapSuffix); ok && base != "" {
			out[count] = sp
			out[count].base, out[count].overlap = base, true
			count++
		}
		i := strings.LastIndexByte(sp.base, '_')
		if sp.n == len(sp.tail) || i <= 0 {
			return out, count
		}
		id, ok := parseID(sp.base[i+1:])
		if !ok {
			return out, count
		}
		sp.tail[sp.n] = id
		sp.n++
		sp.base = sp.base[:i]
	}
}

// parseID reads an id group: the decimal a builder prints.
func parseID(s string) (int, bool) {
	if s == "" || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	id, err := strconv.Atoi(s)
	return id, err == nil
}

// ResolveTable decodes a worker-side table name (case-insensitive, as
// table names are everywhere) against the declared tables; false means it
// names no piece of any. Where several splits are possible the longest
// declared base wins — Station_7_58 is chunk 58 of Station_7, not subchunk
// 58 of chunk 7 of Station — and spec validation (nameCollision) refuses
// catalogs in which two readings could both name stored tables. A
// partitioned table's bare name is not a worker-side table and does not
// resolve.
func (r *Registry) ResolveTable(name string) (TableRef, bool) {
	splits, count := nameSplits(strings.ToLower(name))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, sp := range splits[:count] {
		info := r.tables[sp.base]
		if info == nil || info.Partitioned != (sp.n > 0) || (sp.overlap && sp.n == 0) {
			continue
		}
		ref := TableRef{Info: info}
		switch {
		case sp.n == 1 && sp.overlap:
			ref.Kind = ChunkOverlapTable
		case sp.n == 1:
			ref.Kind = ChunkTable
		case sp.n == 2 && sp.overlap:
			ref.Kind = SubChunkOverlapTable
		case sp.n == 2:
			ref.Kind = SubChunkTable
		}
		if sp.n > 0 {
			// Groups come off the end; the chunk id is written first.
			ref.Chunk = partition.ChunkID(sp.tail[sp.n-1])
		}
		if sp.n == 2 {
			ref.Sub = partition.SubChunkID(sp.tail[0])
		}
		return ref, true
	}
	return TableRef{}, false
}

// nameCollision reports a pair of tables that cannot coexist under the
// naming convention: a table whose name is what another, partitioned table
// would call one of its chunk, overlap or subchunk tables (Obj beside
// Obj_7: chunk 12 of one and subchunk 12 of chunk 7 of the other are both
// Obj_7_12), or its overlap prefix (Obj beside ObjFullOverlap). partitioned
// maps every lower-cased table name of the catalog to whether it is
// partitioned.
func nameCollision(partitioned map[string]bool) error {
	for name := range partitioned {
		splits, count := nameSplits(name)
		for _, sp := range splits[1:count] {
			if partitioned[sp.base] {
				return fmt.Errorf("meta: table names %q and %q collide: %q would also name a worker-side table of %q",
					sp.base, name, name, sp.base)
			}
		}
	}
	return nil
}
