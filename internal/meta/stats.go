package meta

import (
	"strings"
	"sync"

	"repro/internal/partition"
)

// This file holds the per-chunk column statistics recorded at ingest:
// for every numeric column of every chunk table, the min/max of the values
// actually stored there. The routing tier (internal/planopt) uses them for
// cost-based chunk pruning of non-spatial range predicates — a conjunct
// like `rFlux_PS < 0.02` can eliminate every chunk whose recorded range is
// disjoint from the predicate's. Statistics live alongside placement in the
// frontend metadata, mirroring the paper's section 5.5 "metadata database".

// ColStats summarizes one numeric column within one chunk table.
type ColStats struct {
	// Min and Max bound the non-NULL values stored in the chunk.
	Min, Max float64
	// Rows counts the non-NULL values observed.
	Rows int64
}

// ChunkStats holds per-table, per-chunk, per-column min/max summaries.
// A whole table's statistics are installed atomically at the end of its
// ingest (SetTable), so queries — admitted only once the ingest gate
// lifts — never observe a half-accumulated table.
type ChunkStats struct {
	mu     sync.RWMutex
	tables map[string]map[partition.ChunkID]map[string]ColStats
}

// NewChunkStats creates an empty statistics store.
func NewChunkStats() *ChunkStats {
	return &ChunkStats{tables: map[string]map[partition.ChunkID]map[string]ColStats{}}
}

// SetTable installs one table's statistics, replacing any prior set.
// Column names are matched case-insensitively.
func (s *ChunkStats) SetTable(table string, per map[partition.ChunkID]map[string]ColStats) {
	norm := make(map[partition.ChunkID]map[string]ColStats, len(per))
	for c, cols := range per {
		m := make(map[string]ColStats, len(cols))
		for col, cs := range cols {
			m[strings.ToLower(col)] = cs
		}
		norm[c] = m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[strings.ToLower(table)] = norm
}

// Get returns the recorded summary for one (table, chunk, column).
func (s *ChunkStats) Get(table string, c partition.ChunkID, col string) (ColStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cols, ok := s.tables[strings.ToLower(table)][c]
	if !ok {
		return ColStats{}, false
	}
	cs, ok := cols[strings.ToLower(col)]
	return cs, ok
}

// MayMatch reports whether a chunk can hold rows satisfying a range
// restriction [lo, hi] on a column (either bound optional). Missing
// statistics — unknown table, chunk, or column — answer true: pruning
// is only ever an optimization, never a correctness bet. NULL values
// never satisfy a range predicate, so a chunk whose recorded (non-NULL)
// range is disjoint is safe to drop even when it stores NULLs.
func (s *ChunkStats) MayMatch(table string, c partition.ChunkID, col string, lo, hi float64, hasLo, hasHi bool) bool {
	cs, ok := s.Get(table, c, col)
	if !ok {
		return true
	}
	if cs.Rows == 0 {
		// The chunk table stores no non-NULL value in this column, so no
		// row can satisfy the range.
		return false
	}
	if hasLo && cs.Max < lo {
		return false
	}
	if hasHi && cs.Min > hi {
		return false
	}
	return true
}

// Tables returns how many tables have statistics installed.
func (s *ChunkStats) Tables() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}
