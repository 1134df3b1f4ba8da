package sqlengine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sqlparse"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type sqlparse.ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of a column by case-insensitive name,
// or -1 when absent.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// RowWidth estimates the storage bytes of one row, mirroring the paper's
// raw-bytes accounting (Table 1): 8 bytes per numeric column plus the
// declared or average width of string columns.
func (s Schema) RowWidth() int {
	w := 0
	for _, c := range s {
		switch c.Type {
		case sqlparse.TypeString:
			w += 16
		default:
			w += 8
		}
	}
	if w == 0 {
		w = 8
	}
	return w
}

// Row is one stored tuple, in schema order.
type Row []Value

// Table is a heap of rows with optional hash indexes, the stand-in for a
// MyISAM table. Tables are guarded by the owning Database's lock.
type Table struct {
	Name    string
	Schema  Schema
	Rows    []Row
	indexes map[string]*hashIndex // lower-cased column name -> index
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema, indexes: map[string]*hashIndex{}}
}

// hashIndex maps a column value's group key to row positions. It models
// the per-chunk objectId index the paper builds on workers (section 5.5).
type hashIndex struct {
	col     int
	buckets map[string][]int
}

func buildHashIndex(t *Table, col int) *hashIndex {
	idx := &hashIndex{col: col, buckets: make(map[string][]int, len(t.Rows))}
	idx.add(t.Rows, 0)
	return idx
}

// add posts rows, stored from position base on.
func (ix *hashIndex) add(rows []Row, base int) {
	var key []byte
	for i, r := range rows {
		key = appendKey(key[:0], r[ix.col])
		ix.buckets[string(key)] = append(ix.buckets[string(key)], base+i)
	}
}

// CreateIndex builds (or rebuilds) a hash index on the named column.
func (t *Table) CreateIndex(col string) error {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("sqlengine: table %s has no column %q", t.Name, col)
	}
	t.indexes[strings.ToLower(col)] = buildHashIndex(t, ci)
	return nil
}

// Index returns the hash index on the column, or nil.
func (t *Table) Index(col string) *hashIndex {
	return t.indexes[strings.ToLower(col)]
}

// HasIndex reports whether the column is indexed.
func (t *Table) HasIndex(col string) bool { return t.Index(col) != nil }

// lookup returns the row positions whose indexed column equals v. NULL
// equals nothing, the stored NULLs included: `col = NULL` finds no row
// through the index, as it finds none through a filter.
func (ix *hashIndex) lookup(v Value) []int {
	if IsNull(v) {
		return nil
	}
	return ix.buckets[string(appendKey(nil, v))]
}

// Insert appends rows, maintaining indexes. Rows must match the schema
// arity; values are stored as given.
func (t *Table) Insert(rows ...Row) error {
	for _, r := range rows {
		if len(r) != len(t.Schema) {
			return fmt.Errorf("sqlengine: row arity %d != schema arity %d for table %s",
				len(r), len(t.Schema), t.Name)
		}
	}
	base := len(t.Rows)
	t.Rows = append(t.Rows, rows...)
	for _, ix := range t.indexes {
		ix.add(rows, base)
	}
	return nil
}

// ByteSize returns the estimated on-disk footprint of the table, the
// quantity the paper uses to compute effective scan bandwidth (section
// 6.2, High Volume 2).
func (t *Table) ByteSize() int64 {
	return int64(len(t.Rows)) * int64(t.Schema.RowWidth())
}

// indexEntryBytes is the accounted cost of one hash-index posting: the
// bucket key reference plus the row position.
const indexEntryBytes = 16

// ResidentBytes estimates the table's in-memory footprint: the row heap
// plus every hash index's postings. This is the quantity a worker's
// residency manager charges against its memory budget, so it must grow
// with inserts and index creation (both only add entries).
func (t *Table) ResidentBytes() int64 {
	b := t.ByteSize()
	b += int64(len(t.indexes)) * int64(len(t.Rows)) * indexEntryBytes
	return b
}

// Database is a named collection of tables (e.g. "LSST" on workers).
type Database struct {
	Name   string
	mu     sync.RWMutex
	tables map[string]*Table // lower-cased name -> table
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: map[string]*Table{}}
}

// Table returns the named table (case-insensitive) or an error.
func (d *Database) Table(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: no table %q in database %s", name, d.Name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (d *Database) HasTable(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.tables[strings.ToLower(name)]
	return ok
}

// Put registers a table, replacing any previous table of the same name.
func (d *Database) Put(t *Table) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tables[strings.ToLower(t.Name)] = t
}

// Drop removes the named table; with ifExists, missing tables are not an
// error.
func (d *Database) Drop(name string, ifExists bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := d.tables[key]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("sqlengine: no table %q in database %s", name, d.Name)
	}
	delete(d.tables, key)
	return nil
}

// Detach removes the named table from the database and returns it,
// reporting whether it was present. Unlike Drop it hands the table
// object back: in-flight readers holding the pointer stay valid (tables
// are append-only, never mutated in place), while new lookups miss —
// the primitive a worker's residency manager evicts cold chunk tables
// with.
func (d *Database) Detach(name string) (*Table, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := d.tables[key]
	if ok {
		delete(d.tables, key)
	}
	return t, ok
}

// TableNames returns the sorted names of all tables.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ExecStats meters the I/O performed by one query execution. The
// simulation layer converts these into virtual time at paper scale.
type ExecStats struct {
	// SeqBytes is the number of bytes read by sequential scans.
	SeqBytes int64
	// SharedSeqBytes counts bytes delivered through a shared-scan
	// ScanSource instead of a private sequential read. The physical
	// read is accounted once by the scanshare.Scanner serving the
	// convoy, so these bytes are what an independent scan would have
	// cost — the savings baseline.
	SharedSeqBytes int64
	// RandReads is the number of random-access reads (index lookups),
	// each of which costs a disk seek in the cost model.
	RandReads int64
	// RandBytes is the number of bytes fetched by those random reads.
	RandBytes int64
	// RowsScanned counts tuples examined across all scans.
	RowsScanned int64
	// RowsOut counts tuples in the final result.
	RowsOut int64
	// ResultBytes estimates the size of the result (what must be shipped
	// back through the fabric via the mysqldump path).
	ResultBytes int64
	// PairsConsidered counts join pair evaluations, the quantity the
	// paper's O(n^2)-vs-O(kn) argument is about (section 4.4).
	PairsConsidered int64
}

// Add accumulates another stats record into s.
func (s *ExecStats) Add(o ExecStats) {
	s.SeqBytes += o.SeqBytes
	s.SharedSeqBytes += o.SharedSeqBytes
	s.RandReads += o.RandReads
	s.RandBytes += o.RandBytes
	s.RowsScanned += o.RowsScanned
	s.RowsOut += o.RowsOut
	s.ResultBytes += o.ResultBytes
	s.PairsConsidered += o.PairsConsidered
}

// TotalBytes returns all bytes touched.
func (s ExecStats) TotalBytes() int64 { return s.SeqBytes + s.RandBytes }

// Result is the output of a query: column names and rows, plus the
// execution's I/O metering.
type Result struct {
	Cols  []string
	Types []sqlparse.ColType
	Rows  []Row
	Stats ExecStats
}

// Schema derives a Schema from the result's columns.
func (r *Result) Schema() Schema {
	s := make(Schema, len(r.Cols))
	for i := range r.Cols {
		typ := sqlparse.TypeFloat
		if i < len(r.Types) {
			typ = r.Types[i]
		}
		s[i] = Column{Name: r.Cols[i], Type: typ}
	}
	return s
}
