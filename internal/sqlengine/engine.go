package sqlengine

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/sqlparse"
)

// Engine is an embedded SQL engine holding named databases. It is safe
// for concurrent use: reads (SELECT) run concurrently, writes (DDL/DML)
// exclusively — mirroring MyISAM's table-level locking discipline.
type Engine struct {
	mu        sync.RWMutex
	dbs       map[string]*Database
	defaultDB string
	funcs     map[string]function
	// funcsGen counts RegisterFunc calls: a Prepared compiled before one
	// may hold the function it replaced.
	funcsGen int
}

// New creates an engine with one (default) database and the built-in
// function set (fluxToAbMag, qserv_angSep, qserv_ptInSphericalBox, math
// helpers) registered.
func New(defaultDB string) *Engine {
	e := &Engine{
		dbs:       map[string]*Database{},
		defaultDB: strings.ToLower(defaultDB),
		funcs:     map[string]function{},
	}
	e.dbs[e.defaultDB] = NewDatabase(defaultDB)
	registerBuiltins(e)
	return e
}

// DefaultDB returns the default database name.
func (e *Engine) DefaultDB() string { return e.defaultDB }

// RegisterFunc installs a scalar function under a case-insensitive name,
// the stand-in for installing a UDF on a worker's database instance
// (paper section 5.3). The args slice fn receives is a buffer the compiled
// call reuses for every row: it is valid only until fn returns, so a
// function that keeps an argument must copy the value out, not the slice.
func (e *Engine) RegisterFunc(name string, fn Func) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.funcs[strings.ToLower(name)] = function{call: fn}
	e.funcsGen++
}

// CreateDatabase adds a database if absent and returns it.
func (e *Engine) CreateDatabase(name string) *Database {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if db, ok := e.dbs[key]; ok {
		return db
	}
	db := NewDatabase(name)
	e.dbs[key] = db
	return db
}

// Database returns a database by case-insensitive name.
func (e *Engine) Database(name string) (*Database, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	db, ok := e.dbs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: no database %q", name)
	}
	return db, nil
}

// lookupTable resolves a possibly database-qualified table name. The
// caller must hold e.mu (either mode): it reads the database map without
// locking so it can be used from both read and write paths.
func (e *Engine) lookupTable(db, table string) (*Table, error) {
	d, err := e.resolveDB(db)
	if err != nil {
		return nil, err
	}
	return d.Table(table)
}

// Execute parses and runs a script of one or more statements and returns
// the result of the last statement that produced one (SELECTs do; DDL
// returns an empty result).
func (e *Engine) Execute(sql string) (*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sqlengine: empty statement")
	}
	res := &Result{}
	var agg ExecStats
	for _, st := range stmts {
		r, err := e.ExecuteStmt(st)
		if err != nil {
			return nil, err
		}
		agg.Add(r.Stats)
		if len(r.Cols) > 0 || len(r.Rows) > 0 {
			res = r
		}
	}
	res.Stats = agg
	return res, nil
}

// Query runs a single SELECT statement.
func (e *Engine) Query(sql string) (*Result, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStmt(sel)
}

// ExecOptions are per-statement execution hooks.
type ExecOptions struct {
	// Interrupt aborts the statement between rows once the channel is
	// closed; execution then fails with ErrInterrupted. nil disables
	// interruption. This is the seam query cancellation reaches the
	// engine through: a killed chunk query stops consuming its executor
	// slot without waiting for the scan to finish.
	Interrupt <-chan struct{}
	// Sink, when set, is where a SELECT writes its result rows, cell by
	// cell and unboxed wherever the compiler knew a cell's type: the
	// returned Result then carries columns, types and stats but no Rows.
	// nil boxes the rows into Result.Rows.
	Sink Sink
}

// ExecuteStmtOpts runs one parsed statement under the given execution
// hooks. Zero-value options are identical to ExecuteStmt. A SELECT is
// prepared and run once (see Prepared, for a caller with more runs in mind).
func (e *Engine) ExecuteStmtOpts(st sqlparse.Statement, opts ExecOptions) (*Result, error) {
	if sel, ok := st.(*sqlparse.Select); ok {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.execSelectOpts(sel, nil, opts)
	}
	return e.ExecuteStmt(st)
}

// ExecuteStmt runs one parsed statement.
func (e *Engine) ExecuteStmt(st sqlparse.Statement) (*Result, error) {
	switch s := st.(type) {
	case *sqlparse.Select:
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.execSelectOpts(s, nil, ExecOptions{})

	case *sqlparse.CreateTable:
		return e.execCreateTable(s)

	case *sqlparse.DropTable:
		e.mu.RLock()
		db, err := e.resolveDB(s.DB)
		e.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		if err := db.Drop(s.Name, s.IfExists); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *sqlparse.Insert:
		return e.execInsert(s)

	case *sqlparse.CreateIndex:
		e.mu.Lock()
		defer e.mu.Unlock()
		t, err := e.lookupTable(s.DB, s.Table)
		if err != nil {
			return nil, err
		}
		if err := t.CreateIndex(s.Col); err != nil {
			return nil, err
		}
		return &Result{}, nil

	default:
		return nil, fmt.Errorf("sqlengine: unsupported statement %T", st)
	}
}

func (e *Engine) resolveDB(name string) (*Database, error) {
	if name == "" {
		name = e.defaultDB
	}
	db, ok := e.dbs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: no database %q", name)
	}
	return db, nil
}

func (e *Engine) execCreateTable(ct *sqlparse.CreateTable) (*Result, error) {
	// CREATE TABLE ... AS SELECT must run the select under a read lock
	// first, then install the table under the write lock.
	var newTable *Table
	if ct.AsSelect != nil {
		e.mu.RLock()
		res, err := e.execSelectOpts(ct.AsSelect, nil, ExecOptions{})
		e.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		newTable = NewTable(ct.Name, FitSchema(res.Schema(), res.Rows))
		if err := newTable.Insert(res.Rows...); err != nil {
			return nil, err
		}
		out := &Result{Stats: res.Stats}
		e.mu.Lock()
		defer e.mu.Unlock()
		db, err := e.resolveDB(ct.DB)
		if err != nil {
			return nil, err
		}
		if db.HasTable(ct.Name) && ct.IfNotExists {
			return out, nil
		}
		db.Put(newTable)
		return out, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	db, err := e.resolveDB(ct.DB)
	if err != nil {
		return nil, err
	}
	if db.HasTable(ct.Name) {
		if ct.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqlengine: table %q already exists in %s", ct.Name, db.Name)
	}
	schema := make(Schema, len(ct.Cols))
	for i, c := range ct.Cols {
		schema[i] = Column{Name: c.Name, Type: c.Type}
	}
	db.Put(NewTable(ct.Name, schema))
	return &Result{}, nil
}

func (e *Engine) execInsert(ins *sqlparse.Insert) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.lookupTable(ins.DB, ins.Table)
	if err != nil {
		return nil, err
	}
	// Map the insert column order onto schema positions.
	positions := make([]int, 0, len(t.Schema))
	if len(ins.Cols) == 0 {
		for i := range t.Schema {
			positions = append(positions, i)
		}
	} else {
		for _, c := range ins.Cols {
			ci := t.Schema.ColIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("sqlengine: table %s has no column %q", t.Name, c)
			}
			positions = append(positions, ci)
		}
	}
	c := compiler{funcs: e.funcs}
	rows := make([]Row, 0, len(ins.Rows))
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("sqlengine: INSERT row has %d values, expected %d",
				len(exprRow), len(positions))
		}
		row := make(Row, len(t.Schema))
		for i, ex := range exprRow {
			v, err := c.constValue(ex)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		rows = append(rows, row)
	}
	if err := t.Insert(rows...); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// MustExecute runs a script and panics on error; intended for tests and
// examples where the SQL is a constant.
func (e *Engine) MustExecute(sql string) *Result {
	res, err := e.Execute(sql)
	if err != nil {
		panic(fmt.Sprintf("sqlengine: MustExecute(%q): %v", sql, err))
	}
	return res
}
