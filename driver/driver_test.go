package qservdriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/czar"
	"repro/internal/frontend"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// engineBackend serves sessions from a local SQL engine through the
// Submit-shaped API, with an optional per-query hook replacing the
// engine.
type engineBackend struct {
	engine *sqlengine.Engine
	seq    atomic.Int64
	// hook, when set, drives the session instead of the engine.
	hook func(sql string, feed *czar.QueryFeed)
}

func newEngineBackend(t *testing.T) *engineBackend {
	t.Helper()
	e := sqlengine.New("LSST")
	tbl := sqlengine.NewTable("Object", sqlengine.Schema{
		{Name: "objectId", Type: sqlparse.TypeInt}, {Name: "ra_PS", Type: sqlparse.TypeFloat}, {Name: "note", Type: sqlparse.TypeString}})
	if err := tbl.Insert(sqlengine.Row{int64(1), 10.5, "a"}, sqlengine.Row{int64(2), 20.25, nil}, sqlengine.Row{int64(3), 30.0, "it's"}); err != nil {
		t.Fatal(err)
	}
	db, _ := e.Database("LSST")
	db.Put(tbl)
	return &engineBackend{engine: e}
}

func (b *engineBackend) Submit(ctx context.Context, sql string, opts czar.Options) (*czar.Query, error) {
	q, feed := czar.NewQueryHandle(b.seq.Add(1), sql, core.Interactive)
	go func() {
		select {
		case <-ctx.Done():
			q.Cancel()
		case <-feed.Context().Done():
		}
	}()
	go func() {
		if b.hook != nil {
			b.hook(sql, feed)
			return
		}
		res, err := b.engine.Query(sql)
		feed.Finish(res, err)
	}()
	return q, nil
}

func openDB(t *testing.T, cfg frontend.Config, b frontend.Backend) *sql.DB {
	t.Helper()
	srv, err := frontend.Serve("127.0.0.1:0", cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	db, err := sql.Open("qserv", "qserv://tester@"+srv.Addr()+"/LSST")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDSNParse(t *testing.T) {
	c, err := NewConnector("qserv://alice@db.example:4040/LSST")
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr != "db.example:4040" || c.User != "alice" || c.DB != "LSST" {
		t.Fatalf("connector = %+v", c)
	}
	// Defaults: port 4040, user anonymous, db LSST.
	c, err = NewConnector("qserv://db.example")
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr != "db.example:4040" || c.User != "anonymous" || c.DB != "LSST" {
		t.Fatalf("defaulted connector = %+v", c)
	}
	for _, bad := range []string{"mysql://h/db", "qserv:///db", "://x"} {
		if _, err := NewConnector(bad); err == nil {
			t.Errorf("DSN %q should fail", bad)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	db := openDB(t, frontend.Config{}, newEngineBackend(t))
	if err := db.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	rows, err := db.Query("SELECT objectId, ra_PS, note FROM Object WHERE objectId <= ? ORDER BY objectId", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, _ := rows.Columns()
	if strings.Join(cols, ",") != "objectId,ra_PS,note" {
		t.Fatalf("cols = %v", cols)
	}
	var got []string
	for rows.Next() {
		var id int64
		var ra float64
		var note sql.NullString
		if err := rows.Scan(&id, &ra, &note); err != nil {
			t.Fatal(err)
		}
		got = append(got, sqlengine.FormatValue(id)+"/"+note.String)
		if id == 2 && note.Valid {
			t.Fatalf("NULL not preserved: %v", note)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "1/a" {
		t.Fatalf("rows = %v", got)
	}
}

// TestQuotedPlaceholder: a '?' inside a string literal is data; the
// real placeholder after it still binds, and quoted values round-trip.
func TestQuotedPlaceholder(t *testing.T) {
	db := openDB(t, frontend.Config{}, newEngineBackend(t))
	var n int64
	err := db.QueryRow("SELECT COUNT(*) FROM Object WHERE note = '?' OR note = ?", "it's").Scan(&n)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d, want 1 (the escaped-quote row)", n)
	}
}

// TestStreaming: sql.Rows.Next must deliver rows while the server-side
// query is still running.
func TestStreaming(t *testing.T) {
	release := make(chan struct{})
	b := newEngineBackend(t)
	b.hook = func(_ string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		feed.Push(sqlengine.Row{int64(1)})
		select {
		case <-release:
		case <-feed.Context().Done():
		}
		feed.Push(sqlengine.Row{int64(2)})
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	}
	db := openDB(t, frontend.Config{}, b)

	rows, err := db.Query("SELECT x FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	var x int64
	if err := rows.Scan(&x); err != nil || x != 1 {
		t.Fatalf("first row = %d, %v", x, err)
	}
	// First row arrived while the producer is parked on release:
	// streaming, not buffering.
	close(release)
	if !rows.Next() {
		t.Fatalf("no second row: %v", rows.Err())
	}
	if rows.Next() {
		t.Fatal("expected end of stream")
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
}

// TestMidStreamError: a failure after streamed rows surfaces from
// rows.Err, not as silent truncation.
func TestMidStreamError(t *testing.T) {
	b := newEngineBackend(t)
	b.hook = func(_ string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		feed.Push(sqlengine.Row{int64(1)})
		feed.Finish(nil, context.DeadlineExceeded)
	}
	db := openDB(t, frontend.Config{}, b)
	rows, err := db.Query("SELECT x FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("rows before error = %d", n)
	}
	if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("rows.Err() = %v, want the deadline failure", err)
	}
}

// TestContextCancelKillsQuery: canceling the query context kills the
// server-side session.
func TestContextCancelKillsQuery(t *testing.T) {
	started := make(chan struct{})
	killed := make(chan struct{})
	b := newEngineBackend(t)
	b.hook = func(_ string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		close(started)
		<-feed.Context().Done()
		close(killed)
		feed.Finish(nil, nil)
	}
	db := openDB(t, frontend.Config{}, b)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, "SELECT x FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	<-started
	cancel()
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("backend session not killed after ctx cancel")
	}
}

// TestBusyShedSurfaces: admission rejection comes back as a distinct
// busy error without killing the pooled connection.
func TestBusyShedSurfaces(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	b := newEngineBackend(t)
	b.hook = func(_ string, feed *czar.QueryFeed) {
		feed.SetColumns("x")
		select {
		case <-block:
		case <-feed.Context().Done():
		}
		feed.Finish(&sqlengine.Result{Cols: []string{"x"}}, nil)
	}
	db := openDB(t, frontend.Config{MaxSessions: 8, PerUserSessions: 1}, b)
	db.SetMaxOpenConns(4)

	rows, err := db.Query("SELECT x FROM Object") // occupies tester's quota
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	_, err = db.Query("SELECT x FROM Object")
	if !frontend.IsBusy(err) {
		t.Fatalf("second query err = %v, want busy", err)
	}
}

func TestReadOnly(t *testing.T) {
	db := openDB(t, frontend.Config{}, newEngineBackend(t))
	if _, err := db.Exec("INSERT INTO Object VALUES (9, 1.0, 'x')"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Exec err = %v, want read-only", err)
	}
	if _, err := db.Begin(); err == nil {
		t.Fatal("Begin should fail on a read-only driver")
	}
}

func TestInterpolate(t *testing.T) {
	args := func(vs ...driver.Value) []driver.NamedValue {
		out := make([]driver.NamedValue, len(vs))
		for i, v := range vs {
			out[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
		}
		return out
	}
	cases := []struct {
		q    string
		args []driver.NamedValue
		want string
	}{
		{"SELECT ?", args(int64(42)), "SELECT 42"},
		{"SELECT ?", args(nil), "SELECT NULL"},
		{"SELECT ?", args(2.5), "SELECT 2.5"},
		{"SELECT ?", args(true), "SELECT 1"},
		{"SELECT ?", args("o'brien\\"), `SELECT 'o\'brien\\'`},
		{"SELECT '?' , ?", args(int64(1)), "SELECT '?' , 1"},
		{`SELECT "a?b", ?`, args(int64(1)), `SELECT "a?b", 1`},
		{"SELECT `a?b`, ?", args(int64(1)), "SELECT `a?b`, 1"},
		{`SELECT 'it''s ?', ?`, args(int64(1)), `SELECT 'it''s ?', 1`},
		{`SELECT '\'?', ?`, args(int64(1)), `SELECT '\'?', 1`},
	}
	for _, tc := range cases {
		got, err := interpolate(tc.q, tc.args)
		if err != nil {
			t.Errorf("interpolate(%q): %v", tc.q, err)
			continue
		}
		if got != tc.want {
			t.Errorf("interpolate(%q) = %q, want %q", tc.q, got, tc.want)
		}
	}
	if _, err := interpolate("SELECT ?", nil); err == nil {
		t.Error("missing arg should fail")
	}
	if _, err := interpolate("SELECT 1", args(int64(1))); err == nil {
		t.Error("extra arg should fail")
	}
	if _, err := interpolate("SELECT 'unterminated", nil); err == nil {
		t.Error("unterminated literal should fail")
	}
	if n, err := numInput("SELECT ? FROM t WHERE a = ? AND b = '?'"); err != nil || n != 2 {
		t.Errorf("numInput = %d, %v", n, err)
	}
}
