// Package meta holds Qserv's frontend metadata: which tables exist and
// how they are partitioned, where each chunk lives (placement with
// replication), and the objectId secondary index that maps each object
// to its (chunkId, subChunkId) — the "three-column table in the
// frontend's metadata database" of paper section 5.5.
package meta

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// TableInfo describes one catalog table.
type TableInfo struct {
	Name   string
	Schema sqlengine.Schema
	// Kind is the spec classification (replicated / director / child).
	Kind TableKind
	// Partitioned marks spatially sharded tables (director and child
	// kinds).
	Partitioned bool
	// RAColumn / DeclColumn are the position columns partitioning uses
	// (ra_PS/decl_PS for Object, ra/decl for Source).
	RAColumn, DeclColumn string
	// DirectorKey is the column covered by the secondary index
	// (objectId). Empty when the table has no director key.
	DirectorKey string
	// Director is the director table a child follows; empty otherwise.
	Director string
	// Overlap marks tables whose rows are also stored in nearby chunks'
	// overlap companion tables.
	Overlap bool
	// IndexColumns are extra worker-side hash-index columns maintained
	// during ingest, beyond the always-indexed director key.
	IndexColumns []string
	// PaperRows and PaperRowBytes record the paper's Table 1 estimates
	// for the final LSST data release (the Table 1 experiment).
	PaperRows     int64
	PaperRowBytes int64
	// EvalRows and EvalBytes record the paper's 150-node evaluation
	// dataset (section 6.1.2: Object 1.7e9 rows / ~1.824e12 bytes MYD,
	// Source 55e9 rows / 30 TB). The cost model scales to these.
	EvalRows  int64
	EvalBytes int64
}

// FootprintBytes returns the estimated raw storage of the paper-scale
// table (rows x row size), the quantity Table 1 reports.
func (t *TableInfo) FootprintBytes() int64 { return t.PaperRows * t.PaperRowBytes }

// Registry is the frontend's view of one sharded database.
type Registry struct {
	// DB is the catalog database name ("LSST").
	DB string
	// Chunker defines the partitioning geometry.
	Chunker *partition.Chunker

	mu        sync.RWMutex
	tables    map[string]*TableInfo
	ingesting map[string]bool
	gens      map[string]int64
	// generation counts AddTable calls: what a planner keeps from a table's
	// metadata is good while it stays put.
	generation atomic.Uint64
}

// NewRegistry creates a registry for a database partitioned by chunker.
func NewRegistry(db string, chunker *partition.Chunker) *Registry {
	return &Registry{DB: db, Chunker: chunker, tables: map[string]*TableInfo{},
		ingesting: map[string]bool{}, gens: map[string]int64{}}
}

// SetIngesting marks a table as having an ingest in flight. While set,
// the czar rejects queries referencing the table: worker-side chunk
// tables grow batch by batch during ingest, so reading them
// mid-stream would race with inserts and return partial rows.
//
// Each edge also advances the table's ingest generation, the
// per-table half of the result cache's validity stamp: any result
// computed (and cached) before an ingest carries an older generation
// and can never be served once the table's contents changed.
func (r *Registry) SetIngesting(name string, on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gens[strings.ToLower(name)]++
	if on {
		r.ingesting[strings.ToLower(name)] = true
	} else {
		delete(r.ingesting, strings.ToLower(name))
	}
}

// IngestGen returns a table's ingest generation: 0 before any ingest
// activity, advancing on every SetIngesting edge.
func (r *Registry) IngestGen(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gens[strings.ToLower(name)]
}

// Ingesting reports whether a table has an ingest in flight.
func (r *Registry) Ingesting(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ingesting[strings.ToLower(name)]
}

// AddTable registers a table.
func (r *Registry) AddTable(info *TableInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[strings.ToLower(info.Name)] = info
	r.generation.Add(1)
}

// Generation is the registry's table generation: it moves whenever
// AddTable adds or replaces a table.
func (r *Registry) Generation() uint64 { return r.generation.Load() }

// Table looks up a table by case-insensitive name.
func (r *Registry) Table(name string) (*TableInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("meta: unknown table %q in %s", name, r.DB)
	}
	return info, nil
}

// TableNames returns the registered table names, sorted.
func (r *Registry) TableNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tables))
	for _, t := range r.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ObjectSchema returns the PT1.1-style Object columns used by the
// paper's queries.
func ObjectSchema() sqlengine.Schema {
	return sqlengine.Schema{
		{Name: "objectId", Type: sqlparse.TypeInt},
		{Name: "ra_PS", Type: sqlparse.TypeFloat},
		{Name: "decl_PS", Type: sqlparse.TypeFloat},
		{Name: "uFlux_PS", Type: sqlparse.TypeFloat},
		{Name: "gFlux_PS", Type: sqlparse.TypeFloat},
		{Name: "rFlux_PS", Type: sqlparse.TypeFloat},
		{Name: "iFlux_PS", Type: sqlparse.TypeFloat},
		{Name: "zFlux_PS", Type: sqlparse.TypeFloat},
		{Name: "yFlux_PS", Type: sqlparse.TypeFloat},
		{Name: "uFlux_SG", Type: sqlparse.TypeFloat},
		{Name: "uRadius_PS", Type: sqlparse.TypeFloat},
		{Name: "chunkId", Type: sqlparse.TypeInt},
		{Name: "subChunkId", Type: sqlparse.TypeInt},
	}
}

// SourceSchema returns the PT1.1-style Source columns used by the
// paper's queries (time-series detections).
func SourceSchema() sqlengine.Schema {
	return sqlengine.Schema{
		{Name: "sourceId", Type: sqlparse.TypeInt},
		{Name: "objectId", Type: sqlparse.TypeInt},
		{Name: "taiMidPoint", Type: sqlparse.TypeFloat},
		{Name: "ra", Type: sqlparse.TypeFloat},
		{Name: "decl", Type: sqlparse.TypeFloat},
		{Name: "psfFlux", Type: sqlparse.TypeFloat},
		{Name: "psfFluxErr", Type: sqlparse.TypeFloat},
		{Name: "filterId", Type: sqlparse.TypeInt},
		{Name: "chunkId", Type: sqlparse.TypeInt},
		{Name: "subChunkId", Type: sqlparse.TypeInt},
	}
}

// ForcedSourceSchema returns the minimal ForcedSource columns (Table 1's
// third table; 30-byte rows in the paper).
func ForcedSourceSchema() sqlengine.Schema {
	return sqlengine.Schema{
		{Name: "objectId", Type: sqlparse.TypeInt},
		{Name: "exposureId", Type: sqlparse.TypeInt},
		{Name: "psfFlux", Type: sqlparse.TypeFloat},
		{Name: "chunkId", Type: sqlparse.TypeInt},
		{Name: "subChunkId", Type: sqlparse.TypeInt},
	}
}

// FilterSchema returns a small unpartitioned dimension table.
func FilterSchema() sqlengine.Schema {
	return sqlengine.Schema{
		{Name: "filterId", Type: sqlparse.TypeInt},
		{Name: "filterName", Type: sqlparse.TypeString},
	}
}

// Placement maps chunks to the workers storing them (with replication).
// Every mutation bumps the placement epoch, so observers (repair
// verification, Cluster.Status) can tell whether the chunk→worker map
// changed between two reads without diffing it.
type Placement struct {
	mu     sync.RWMutex
	assign map[partition.ChunkID][]string
	epoch  int64
	// sorted is the placed chunks, ascending, as Chunks last built them;
	// stale once an Assign adds a chunk, until the next Chunks rebuilds it.
	sorted []partition.ChunkID
	stale  bool
}

// NewPlacement creates an empty placement.
func NewPlacement() *Placement {
	return &Placement{assign: map[partition.ChunkID][]string{}}
}

// Workers returns the workers holding a chunk (primary first).
func (p *Placement) Workers(c partition.ChunkID) []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.assign[c]...)
}

// Assign sets the workers for a chunk.
func (p *Placement) Assign(c partition.ChunkID, workers ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.assign[c]; !ok {
		p.stale = true
	}
	p.assign[c] = append([]string(nil), workers...)
	p.epoch++
}

// Replace swaps old for new in a chunk's replica set, in place (the
// replica keeps its failover rank). When old is absent — including
// old == "" — new is appended instead, growing the set. The mutation
// is atomic per chunk: readers see either the old or the new replica
// set, never a partial one.
func (p *Placement) Replace(c partition.ChunkID, old, new string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.assign[c]
	replaced := false
	for i, w := range ws {
		if w == old {
			ws[i] = new
			replaced = true
			break
		}
	}
	if !replaced {
		p.assign[c] = append(ws, new)
	}
	p.epoch++
}

// Remove drops a worker from a chunk's replica set (graceful drain of
// an over-covered chunk).
func (p *Placement) Remove(c partition.ChunkID, worker string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.assign[c]
	kept := ws[:0]
	for _, w := range ws {
		if w != worker {
			kept = append(kept, w)
		}
	}
	p.assign[c] = kept
	p.epoch++
}

// Epoch returns the mutation counter: it advances on every Assign,
// Replace, and Remove.
func (p *Placement) Epoch() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

// Chunks returns all placed chunks in increasing order. The slice is shared
// by every caller until the chunk set changes, and must not be written to.
// It is sorted once per change of the chunk set, by the first Chunks after
// an Assign added a chunk, so reading it per query costs nothing however
// many chunks are placed, and an ingest that assigns thousands of chunks
// pays for one sort, not one per chunk.
func (p *Placement) Chunks() []partition.ChunkID {
	p.mu.RLock()
	out, stale := p.sorted, p.stale
	p.mu.RUnlock()
	if !stale {
		return out
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stale {
		out := make([]partition.ChunkID, 0, len(p.assign))
		for c := range p.assign {
			out = append(out, c)
		}
		slices.Sort(out)
		p.sorted, p.stale = out, false
	}
	return p.sorted
}

// ChunksOn returns the chunks assigned to a worker, in increasing order.
func (p *Placement) ChunksOn(worker string) []partition.ChunkID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []partition.ChunkID
	for c, ws := range p.assign {
		for _, w := range ws {
			if w == worker {
				out = append(out, c)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Counts returns how many chunks each worker holds, in one pass over
// the assignment map. Polled paths (Cluster.Status, repair target
// selection) use it instead of one ChunksOn scan per worker.
func (p *Placement) Counts() map[string]int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := map[string]int{}
	for _, ws := range p.assign {
		for _, w := range ws {
			out[w]++
		}
	}
	return out
}

// ChunkSub is one secondary-index entry value.
type ChunkSub struct {
	Chunk partition.ChunkID
	Sub   partition.SubChunkID
}

// ObjectIndex is the objectId secondary index: the frontend's
// three-column table mapping objectId to (chunkId, subChunkId).
type ObjectIndex struct {
	mu sync.RWMutex
	m  map[int64]ChunkSub
}

// NewObjectIndex creates an empty index.
func NewObjectIndex() *ObjectIndex {
	return &ObjectIndex{m: map[int64]ChunkSub{}}
}

// Put records an object's location.
func (ix *ObjectIndex) Put(objectID int64, loc ChunkSub) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.m[objectID] = loc
}

// Lookup returns the location of an object.
func (ix *ObjectIndex) Lookup(objectID int64) (ChunkSub, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	loc, ok := ix.m[objectID]
	return loc, ok
}

// Len returns the number of indexed objects.
func (ix *ObjectIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.m)
}

// MetaTableName is the name of the materialized secondary-index table.
const MetaTableName = "ObjectChunkIndex"

// Materialize writes the index into an engine as the paper's
// three-column metadata table and hash-indexes it by objectId, so index
// lookups are themselves SQL queries against the frontend database.
func (ix *ObjectIndex) Materialize(e *sqlengine.Engine, db string) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, err := e.Database(db)
	if err != nil {
		return err
	}
	t := sqlengine.NewTable(MetaTableName, sqlengine.Schema{
		{Name: "objectId", Type: sqlparse.TypeInt},
		{Name: "chunkId", Type: sqlparse.TypeInt},
		{Name: "subChunkId", Type: sqlparse.TypeInt},
	})
	rows := make([]sqlengine.Row, 0, len(ix.m))
	for id, loc := range ix.m {
		rows = append(rows, sqlengine.Row{id, int64(loc.Chunk), int64(loc.Sub)})
	}
	if err := t.Insert(rows...); err != nil {
		return err
	}
	if err := t.CreateIndex("objectId"); err != nil {
		return err
	}
	d.Put(t)
	return nil
}
