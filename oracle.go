package qserv

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// Oracle is a single-node reference database: the same catalog spec and
// row sources ingested into one plain SQL engine, with no partitioning,
// fabric, or merge involved. It is the correctness oracle distributed
// answers are compared against (and the mainstream-RDBMS baseline of
// paper section 3). Build it with the ClusterConfig of the cluster
// under test so chunkId/subChunkId column values agree.
type Oracle struct {
	engine   *sqlengine.Engine
	registry *meta.Registry
	chunker  *partition.Chunker
	index    *meta.ObjectIndex
	ingested map[string]bool
}

// NewOracle builds an empty oracle sharing the cluster configuration's
// partition geometry and database name.
func NewOracle(cfg ClusterConfig) (*Oracle, error) {
	chunker, err := partition.NewChunker(cfg.Partition)
	if err != nil {
		return nil, err
	}
	db := cfg.Database
	if db == "" {
		db = defaultDatabase
	}
	return &Oracle{
		engine:   sqlengine.New(db),
		registry: meta.NewRegistry(db, chunker),
		chunker:  chunker,
		index:    meta.NewObjectIndex(),
		ingested: map[string]bool{},
	}, nil
}

// CreateTables installs a catalog spec, mirroring Cluster.CreateTables.
func (o *Oracle) CreateTables(spec CatalogSpec) error {
	mspec, err := spec.toMeta()
	if err != nil {
		return err
	}
	if mspec.Database == "" {
		mspec.Database = o.registry.DB
	}
	return o.registry.ApplySpec(mspec)
}

// Ingest streams rows into one whole (unpartitioned) table, applying
// the same per-row logic as the cluster — chunkId/subChunkId columns,
// director-key index feed, child placement by director key — so query
// answers over system columns also agree.
func (o *Oracle) Ingest(table string, src RowSource) error {
	info, err := o.registry.Table(table)
	if err != nil {
		return err
	}
	key := strings.ToLower(info.Name)
	if o.ingested[key] {
		return fmt.Errorf("qserv: oracle table %s is already ingested", info.Name)
	}
	if info.Kind == meta.KindChild && !o.ingested[strings.ToLower(info.Director)] {
		return fmt.Errorf("qserv: ingest director table %s before child table %s", info.Director, info.Name)
	}
	o.ingested[key] = true

	db, err := o.engine.Database(o.registry.DB)
	if err != nil {
		return err
	}
	t, err := info.NewIngestTable(info.Name)
	if err != nil {
		return err
	}

	// Rows are collected and inserted at once: every Insert publishes a
	// new table state, which is per-batch work, not per-row work.
	var rows []sqlengine.Row
	if info.Partitioned {
		placer, err := newRowPlacer(info, o.chunker, o.index)
		if err != nil {
			return err
		}
		for {
			row, ok := src.Next()
			if !ok {
				break
			}
			pl, err := placer.place(row)
			if err != nil {
				return err
			}
			full := make(sqlengine.Row, 0, len(row)+2)
			rows = append(rows, append(append(full, row...), int64(pl.chunk), int64(pl.sub)))
		}
	} else {
		n := int64(0)
		for {
			row, ok := src.Next()
			if !ok {
				break
			}
			n++
			if len(row) != len(info.Schema) {
				return fmt.Errorf("qserv: ingest %s row %d: got %d columns, schema has %d",
					info.Name, n, len(row), len(info.Schema))
			}
			rows = append(rows, sqlengine.Row(row))
		}
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("qserv: ingest %s: row source: %w", info.Name, err)
	}
	if err := t.Insert(rows...); err != nil {
		return err
	}
	db.Put(t)
	return nil
}

// Load installs the synthetic LSST catalog — the single-node
// counterpart of Cluster.Load.
func (o *Oracle) Load(cat *Catalog) error {
	if err := o.CreateTables(LSSTSpec()); err != nil {
		return err
	}
	if err := o.Ingest("Object", objectSource(cat)); err != nil {
		return err
	}
	if err := o.Ingest("Source", sourceSource(cat)); err != nil {
		return err
	}
	return o.Ingest("Filter", filterSource())
}

// Query runs one statement against the oracle. It accepts the same
// dialect the cluster does: qserv_areaspec_* pseudo-functions are
// rewritten into the point-in-region UDF predicate (the same rewrite
// the czar applies) before execution.
func (o *Oracle) Query(sql string) (*Result, error) {
	if sel, err := sqlparse.ParseSelect(sql); err == nil {
		if a, aerr := core.Analyze(sel, o.registry); aerr == nil {
			sql = a.Stmt.SQL()
		}
	}
	res, err := o.engine.Query(sql)
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: append([]string(nil), res.Cols...)}
	out.Rows = make([]Row, len(res.Rows))
	for i, r := range res.Rows {
		out.Rows[i] = Row(r)
	}
	return out, nil
}

// ---------- datagen catalog adapters (the deprecated Load path) ----------

// funcSource adapts an index-driven generator to RowSource.
type funcSource struct {
	n    int
	next func(i int) Row
	len  int
}

func (f *funcSource) Next() (Row, bool) {
	if f.n >= f.len {
		return nil, false
	}
	r := f.next(f.n)
	f.n++
	return r, true
}

func (f *funcSource) Err() error { return nil }

func objectSource(cat *Catalog) RowSource {
	return &funcSource{len: len(cat.Objects), next: func(i int) Row {
		return Row(datagen.ObjectUserRow(cat.Objects[i]))
	}}
}

func sourceSource(cat *Catalog) RowSource {
	return &funcSource{len: len(cat.Sources), next: func(i int) Row {
		return Row(datagen.SourceUserRow(cat.Sources[i]))
	}}
}

func filterSource() RowSource {
	rows := datagen.FilterRows()
	return &funcSource{len: len(rows), next: func(i int) Row { return Row(rows[i]) }}
}
