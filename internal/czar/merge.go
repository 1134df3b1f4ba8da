package czar

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
)

// mergeSession holds one user query's chunk results — the paper's session
// result table (sections 5.3-5.4), kept as the bytes the workers wrote.
// Dispatch goroutines absorb result streams concurrently: a stream is
// walked by a sink that checks it and keeps nothing (dump's
// Stream.Encoded), and its rows join the session as one encoded batch, no
// cell opened or converted. A pass-through session holds no rows, only
// their count and kinds: they go on to the query's row stream. Rows are
// only ever combined by the czar's engine running a statement of the plan
// over the held batches: the merge statement, once, at the end; and, for a
// plan that has one, the combine statement, whenever the session has grown
// past compactRows and past twice what the last combine left — its answer
// replaces the batches, so a top-K query holds about K rows and an
// aggregate about a row per group however many chunks answer (the
// collection step the paper names its bottleneck, section 7.6).
type mergeSession struct {
	plan   *core.Plan
	engine *sqlengine.Engine
	// compactRows is the least number of held rows worth a combine.
	compactRows int
	pass        bool // a pass-through session: absorb's caller forwards the rows

	mu      sync.Mutex
	schema  sqlengine.Schema // the first arriving chunk result's
	batches []rowcodec.Batch // the held rows, in arrival order
	// kinds joins, per column, the kinds of cell the absorbed rows hold:
	// what types the session table.
	kinds []rowcodec.Kinds
	rows  int // held, or passed through
	floor int // rows the last combine left
}

// compactRows is the threshold every czar ships with: a few megabytes of
// partial rows, far above any group count or LIMIT the paper's queries
// have, so that a combine (which types, fills and scans a table) runs when
// a session would otherwise grow with the chunk count, and never for the
// few hundred rows of a query it cannot shrink.
const compactRows = 1 << 16

func newMergeSession(plan *core.Plan, engine *sqlengine.Engine, compactRows int, pass bool) *mergeSession {
	return &mergeSession{plan: plan, engine: engine, compactRows: compactRows, pass: pass}
}

// mergeError marks the failure of a statement the session ran: the
// query's, not the chunk's whose arrival started it.
type mergeError struct{ error }

func (e mergeError) Unwrap() error { return e.error }

// absorb takes in one chunk's result stream and returns its rows, encoded:
// the batch the session keeps, or a pass-through session's caller forwards.
// The first arrival fixes the column names, later ones must agree in arity
// (chunk results all come from the same worker statement template). If the
// append trips the plan's combine, it runs here, as a span under sp. It is
// safe to call from many dispatch goroutines at once.
func (s *mergeSession) absorb(data []byte, sp *telemetry.Span) (rowcodec.Batch, error) {
	st, err := dump.Open(data)
	if err != nil {
		return rowcodec.Batch{}, err
	}
	b, kinds, err := st.Encoded()
	if err != nil {
		return rowcodec.Batch{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.schema == nil {
		if want := len(s.plan.ResultColumns); want > 0 && len(st.Schema) != want {
			return rowcodec.Batch{}, fmt.Errorf("result arity %d does not match plan arity %d", len(st.Schema), want)
		}
		s.schema = st.Schema
		s.kinds = make([]rowcodec.Kinds, len(st.Schema))
	}
	if len(st.Schema) != len(s.schema) {
		return rowcodec.Batch{}, fmt.Errorf("result arity mismatch: %d vs %d", len(st.Schema), len(s.schema))
	}
	s.hold(b, kinds)
	if s.plan.Combine != nil && s.rows >= max(s.compactRows, 2*s.floor) {
		cs := sp.Child("merge combine")
		cs.SetAttr("rows_in", s.rows)
		_, out, kinds, err := s.run(s.plan.Combine)
		cs.Finish()
		if err != nil {
			return rowcodec.Batch{}, mergeError{fmt.Errorf("combine: %w", err)}
		}
		cs.SetAttr("rows_out", out.Len())
		s.batches, s.rows = nil, 0
		clear(s.kinds)
		s.hold(out, kinds)
		s.floor = s.rows
	}
	return b, nil
}

// hold counts a checked batch in, and keeps it unless it passes through.
func (s *mergeSession) hold(b rowcodec.Batch, kinds []rowcodec.Kinds) {
	s.rows += b.Len()
	if b.Len() > 0 && !s.pass {
		s.batches = append(s.batches, b)
	}
	for i, k := range kinds {
		s.kinds[i] |= k
	}
}

// tableSchema types the session table. Column names are the first arriving
// chunk result's; a column's type is the narrowest that holds every cell
// the absorbed rows have in it — BIGINT if all are integers, DOUBLE if all
// are numbers, VARCHAR if any is a string — because what a chunk result
// declares for a column no compiled statement could type is a guess from
// its own rows, and a typed table converts what it is given. A column with
// no cell keeps the declared type. With no chunk result at all the schema
// is the plan's, so zero-chunk string/int queries still merge correctly.
func (s *mergeSession) tableSchema() sqlengine.Schema {
	if s.schema == nil {
		schema := make(sqlengine.Schema, len(s.plan.ResultColumns))
		for i, col := range s.plan.ResultColumns {
			schema[i] = sqlengine.Column{Name: col, Type: s.plan.ResultType(i)}
		}
		return schema
	}
	schema := slices.Clone(s.schema)
	for i, k := range s.kinds {
		if typ, ok := k.ColType(); ok {
			schema[i].Type = typ
		}
	}
	return schema
}

// run executes one of the plan's statements over the held batches: they
// decode straight into the columns of a table typed by tableSchema, the
// engine is handed that table for the statement's one FROM entry (it is in
// no catalog, so nothing is left to drop), and the answer leaves the engine
// encoded — no row is boxed on the way in or out. It returns
// the answer's columns, types and stats (no Rows), and its rows as a
// checked batch with their kinds. The caller holds s.mu, or is finish.
func (s *mergeSession) run(stmt *sqlparse.Select) (*sqlengine.Result, rowcodec.Batch, []rowcodec.Kinds, error) {
	t := sqlengine.NewTable(core.MergeTablePlaceholder, s.tableSchema())
	app := t.Appender()
	for _, b := range s.batches {
		if err := b.Decode(app); err != nil {
			return nil, rowcodec.Batch{}, nil, err
		}
	}
	app.Commit()

	tables := []*sqlengine.Table{t}
	prep, err := s.engine.Prepare(stmt, tables)
	if err != nil {
		return nil, rowcodec.Batch{}, nil, err
	}
	var enc rowcodec.Encoder
	res, err := prep.Run(tables, sqlengine.ExecOptions{Sink: &enc})
	if err != nil {
		return nil, rowcodec.Batch{}, nil, err
	}
	out, kinds, err := rowcodec.ScanBatch(enc.Buf, enc.Rows, len(res.Cols))
	return res, out, kinds, err
}

// finish returns the query's answer: its columns, types and stats, and its
// rows, encoded. A pass-through session's rows have all gone by: its answer
// is its schema and row count. Every other plan's merge statement runs over
// the held batches.
func (s *mergeSession) finish() (*sqlengine.Result, rowcodec.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pass {
		schema := s.tableSchema()
		res := &sqlengine.Result{Cols: schema.Names()}
		for _, col := range schema {
			res.Types = append(res.Types, col.Type)
		}
		res.Stats.RowsOut = int64(s.rows)
		return res, rowcodec.Batch{}, nil
	}
	res, out, _, err := s.run(s.plan.Merge)
	return res, out, err
}
