package meta

import (
	"fmt"
	"strings"

	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// This file is the declarative data-definition layer: a catalog is
// described by a CatalogSpec — a set of TableSpecs classified by the
// paper's table kinds (section 5) — and a Registry is built from the
// spec instead of hand-assembled TableInfos. The spec is what rides the
// fabric's /load/spec transaction, so out-of-process workers learn the
// same catalog the czar plans against.

// TableKind classifies a catalog table for partitioning and placement.
type TableKind int

const (
	// KindReplicated tables are small dimension tables copied to every
	// worker (and the czar, which answers queries over them locally).
	KindReplicated TableKind = iota
	// KindDirector tables are spatially partitioned by their own
	// position columns and own the director key: the key every child
	// row follows, and the one the frontend's secondary index covers
	// (paper section 5.5). A catalog has at most one director table.
	KindDirector
	// KindChild tables are partitioned by the director key: each child
	// row is stored in the chunk its director row landed in, so
	// director-key joins never cross nodes.
	KindChild
)

// String renders the kind in the spec wire spelling.
func (k TableKind) String() string {
	switch k {
	case KindDirector:
		return "director"
	case KindChild:
		return "child"
	default:
		return "replicated"
	}
}

// ParseTableKind parses the wire spelling.
func ParseTableKind(s string) (TableKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "replicated", "":
		return KindReplicated, nil
	case "director":
		return KindDirector, nil
	case "child":
		return KindChild, nil
	}
	return KindReplicated, fmt.Errorf("meta: unknown table kind %q", s)
}

// Partition-column names appended to every partitioned table's schema.
const (
	ChunkIDColumn    = "chunkId"
	SubChunkIDColumn = "subChunkId"
)

// TableSpec declares one catalog table.
type TableSpec struct {
	// Name is the logical table name users query.
	Name string
	// Kind selects partitioning and placement.
	Kind TableKind
	// Columns are the user columns, in storage order. Partitioned
	// tables automatically gain trailing chunkId/subChunkId columns;
	// listing them explicitly (as the last two columns) is allowed.
	Columns sqlengine.Schema
	// RAColumn / DeclColumn are the position columns (degrees) spatial
	// partitioning and areaspec predicates use. Required for director
	// tables; optional for children (required when Overlap is set).
	RAColumn, DeclColumn string
	// DirectorKey is the director table's key column; on a child it
	// names the foreign-key column referencing that director.
	DirectorKey string
	// Director is the director table a child follows. Defaults to the
	// catalog's single director table.
	Director string
	// Overlap marks the table as participating in overlap storage:
	// each row is also copied into the overlap companion table of every
	// nearby chunk whose margin contains it (paper section 4.4).
	Overlap bool
	// IndexColumns are extra worker-side hash-index columns built
	// incrementally during ingest (the director key is always indexed).
	IndexColumns []string

	// PaperRows/PaperRowBytes and EvalRows/EvalBytes carry the paper's
	// Table 1 and section 6.1.2 size estimates for the cost model;
	// zero for tables outside the paper's catalog.
	PaperRows, PaperRowBytes int64
	EvalRows, EvalBytes      int64
}

// Partitioned reports whether the kind is spatially sharded.
func (s *TableSpec) Partitioned() bool {
	return s.Kind == KindDirector || s.Kind == KindChild
}

// CatalogSpec declares one sharded catalog database.
type CatalogSpec struct {
	// Database is the catalog database name.
	Database string
	// Tables are the catalog's tables.
	Tables []TableSpec
}

// storageSchema returns the worker-side schema: the user columns plus —
// for partitioned tables — the trailing chunkId/subChunkId columns.
func (s *TableSpec) storageSchema() sqlengine.Schema {
	if !s.Partitioned() || s.hasPartitionCols() {
		return append(sqlengine.Schema(nil), s.Columns...)
	}
	out := append(sqlengine.Schema(nil), s.Columns...)
	out = append(out,
		sqlengine.Column{Name: ChunkIDColumn, Type: sqlparse.TypeInt},
		sqlengine.Column{Name: SubChunkIDColumn, Type: sqlparse.TypeInt},
	)
	return out
}

// hasPartitionCols reports whether the user columns already end with
// chunkId, subChunkId.
func (s *TableSpec) hasPartitionCols() bool {
	n := len(s.Columns)
	return n >= 2 &&
		strings.EqualFold(s.Columns[n-2].Name, ChunkIDColumn) &&
		strings.EqualFold(s.Columns[n-1].Name, SubChunkIDColumn)
}

// UserColumns returns the columns an ingested row must supply: the
// storage schema minus the system-computed chunkId/subChunkId pair.
func (t *TableInfo) UserColumns() sqlengine.Schema {
	if !t.Partitioned {
		return t.Schema
	}
	return t.Schema[:len(t.Schema)-2]
}

// NewIngestTable creates an empty table of this metadata under the
// given name with the director key and declared index columns
// hash-indexed, so inserts maintain the indexes incrementally. Every
// ingest target — worker chunk tables, replicated copies (workers and
// czar), the single-node oracle — is built through this one helper.
func (t *TableInfo) NewIngestTable(name string) (*sqlengine.Table, error) {
	tbl := sqlengine.NewTable(name, t.Schema)
	if t.DirectorKey != "" {
		if err := tbl.CreateIndex(t.DirectorKey); err != nil {
			return nil, err
		}
	}
	for _, col := range t.IndexColumns {
		if err := tbl.CreateIndex(col); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// validate checks one table spec in isolation.
func (s *TableSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("meta: table spec with empty name")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_') {
			// Table names ride fabric paths (/load/t/<table>/<chunk>)
			// and worker-side chunk-table names.
			return fmt.Errorf("meta: table name %q: only letters, digits and _ are allowed", s.Name)
		}
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("meta: table %s: no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("meta: table %s: column with empty name", s.Name)
		}
		key := strings.ToLower(c.Name)
		if seen[key] {
			return fmt.Errorf("meta: table %s: duplicate column %q", s.Name, c.Name)
		}
		seen[key] = true
	}
	has := func(col string) bool { return col != "" && s.Columns.ColIndex(col) >= 0 }
	if s.Partitioned() {
		// The partition columns are system-managed: either absent (they
		// are appended) or exactly the trailing pair.
		if (seen[strings.ToLower(ChunkIDColumn)] || seen[strings.ToLower(SubChunkIDColumn)]) && !s.hasPartitionCols() {
			return fmt.Errorf("meta: table %s: %s/%s must be the trailing column pair (or omitted)",
				s.Name, ChunkIDColumn, SubChunkIDColumn)
		}
		if s.DirectorKey == "" {
			return fmt.Errorf("meta: %s table %s: DirectorKey is required", s.Kind, s.Name)
		}
		if !has(s.DirectorKey) {
			return fmt.Errorf("meta: table %s: director key column %q not in schema", s.Name, s.DirectorKey)
		}
		if ci := s.Columns.ColIndex(s.DirectorKey); s.Columns[ci].Type != sqlparse.TypeInt {
			return fmt.Errorf("meta: table %s: director key column %q must be integer", s.Name, s.DirectorKey)
		}
	}
	hasPos := s.RAColumn != "" || s.DeclColumn != ""
	if hasPos {
		if !has(s.RAColumn) || !has(s.DeclColumn) {
			return fmt.Errorf("meta: table %s: position columns %q/%q not both in schema",
				s.Name, s.RAColumn, s.DeclColumn)
		}
	}
	switch s.Kind {
	case KindDirector:
		if !hasPos {
			return fmt.Errorf("meta: director table %s: RAColumn and DeclColumn are required", s.Name)
		}
		if s.Director != "" {
			return fmt.Errorf("meta: director table %s: Director must be empty", s.Name)
		}
	case KindChild:
		if s.Overlap && !hasPos {
			return fmt.Errorf("meta: child table %s: Overlap requires position columns", s.Name)
		}
	case KindReplicated:
		if s.DirectorKey != "" || s.Director != "" || s.Overlap {
			return fmt.Errorf("meta: replicated table %s: partitioning fields must be empty", s.Name)
		}
	default:
		return fmt.Errorf("meta: table %s: unknown kind %d", s.Name, s.Kind)
	}
	for _, ix := range s.IndexColumns {
		if s.storageSchema().ColIndex(ix) < 0 {
			return fmt.Errorf("meta: table %s: index column %q not in schema", s.Name, ix)
		}
	}
	return nil
}

// Validate checks the spec: per-table validity, unique names that stay
// apart under the worker-side naming convention, at most one director
// table, and resolvable child→director references.
func (s *CatalogSpec) Validate() error {
	if s.Database == "" {
		return fmt.Errorf("meta: catalog spec with empty database name")
	}
	names := map[string]*TableSpec{}
	director := ""
	for i := range s.Tables {
		t := &s.Tables[i]
		if err := t.validate(); err != nil {
			return err
		}
		key := strings.ToLower(t.Name)
		if names[key] != nil {
			return fmt.Errorf("meta: duplicate table %q in spec", t.Name)
		}
		names[key] = t
		if t.Kind == KindDirector {
			if director != "" {
				return fmt.Errorf("meta: multiple director tables (%s, %s); the secondary index covers one", director, t.Name)
			}
			director = t.Name
		}
	}
	partitioned := map[string]bool{}
	for key, t := range names {
		partitioned[key] = t.Partitioned()
	}
	if err := nameCollision(partitioned); err != nil {
		return err
	}
	for i := range s.Tables {
		t := &s.Tables[i]
		if t.Kind != KindChild {
			continue
		}
		want := t.Director
		if want == "" {
			want = director
		}
		if want == "" {
			return fmt.Errorf("meta: child table %s: no director table in spec", t.Name)
		}
		d := names[strings.ToLower(want)]
		if d == nil || d.Kind != KindDirector {
			return fmt.Errorf("meta: child table %s: director %q is not a director table in this spec", t.Name, want)
		}
	}
	return nil
}

// tableInfo converts the spec into the registry's per-table metadata.
// director is the catalog's director table name (resolved for children
// declaring no explicit Director).
func (s *TableSpec) tableInfo(director string) *TableInfo {
	info := &TableInfo{
		Name:          s.Name,
		Schema:        s.storageSchema(),
		Kind:          s.Kind,
		Partitioned:   s.Partitioned(),
		RAColumn:      s.RAColumn,
		DeclColumn:    s.DeclColumn,
		DirectorKey:   s.DirectorKey,
		Overlap:       s.Overlap,
		IndexColumns:  append([]string(nil), s.IndexColumns...),
		PaperRows:     s.PaperRows,
		PaperRowBytes: s.PaperRowBytes,
		EvalRows:      s.EvalRows,
		EvalBytes:     s.EvalBytes,
	}
	if s.Kind == KindChild {
		info.Director = s.Director
		if info.Director == "" {
			info.Director = director
		}
	}
	return info
}

// ApplySpec validates the spec and installs its tables into the
// registry. The spec's database must name the registry's (an empty
// database inherits it). Re-declaring a table replaces its metadata —
// worker-side data is unaffected; use ingest to load rows.
func (r *Registry) ApplySpec(spec CatalogSpec) error {
	if spec.Database == "" {
		spec.Database = r.DB
	}
	if !strings.EqualFold(spec.Database, r.DB) {
		return fmt.Errorf("meta: spec database %q does not match catalog %q", spec.Database, r.DB)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	// The single-director invariant spans prior ApplySpec calls: the
	// frontend keeps one secondary index.
	director := ""
	for _, t := range spec.Tables {
		if t.Kind == KindDirector {
			director = t.Name
		}
	}
	// So does the naming convention: a table added later must stay apart
	// from the worker-side names of those already declared.
	partitioned := map[string]bool{}
	for _, t := range spec.Tables {
		partitioned[strings.ToLower(t.Name)] = t.Partitioned()
	}
	r.mu.Lock()
	for key, info := range r.tables {
		if _, redeclared := partitioned[key]; !redeclared {
			partitioned[key] = info.Partitioned
		}
		if info.Kind != KindDirector {
			continue
		}
		if director != "" && !strings.EqualFold(director, info.Name) {
			r.mu.Unlock()
			return fmt.Errorf("meta: catalog %s already has director table %s", r.DB, info.Name)
		}
		director = info.Name
	}
	r.mu.Unlock()
	if err := nameCollision(partitioned); err != nil {
		return err
	}
	for i := range spec.Tables {
		r.AddTable(spec.Tables[i].tableInfo(director))
	}
	return nil
}

// NewRegistryFromSpec builds a registry for the spec's database.
func NewRegistryFromSpec(spec CatalogSpec, chunker *partition.Chunker) (*Registry, error) {
	r := NewRegistry(spec.Database, chunker)
	if err := r.ApplySpec(spec); err != nil {
		return nil, err
	}
	return r, nil
}
