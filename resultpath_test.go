package qserv

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/czar"
	"repro/internal/frontend"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// This file follows result rows end to end: from a worker's column slices
// to a protocol-v2 client, as bytes nobody in between opens. The oracle
// runs the same engine but none of that path, so whatever the client
// decodes — each cell's Go type included — must be the oracle's.

// mixedUDF types its result by the row: an integer for one, a float or a
// string for the next. No compiler can type an item built on it, so a
// result column of it holds cells of other types than its stream declares.
func mixedUDF(args []sqlengine.Value) (sqlengine.Value, error) {
	if x, ok := args[0].(int64); ok {
		switch x % 3 {
		case 0:
			return float64(x) / 2, nil
		case 1:
			return fmt.Sprint("ünï 星 ", x), nil
		}
	}
	return args[0], nil
}

// resultPathCluster ingests a table holding every kind of value a cell can
// have — NULLs, the int64 extremes, -0.0, NaN, the infinities, empty and
// multi-byte strings — into a cluster and an oracle, with mixedUDF on every
// engine.
func resultPathCluster(t *testing.T) (*Cluster, *Oracle) {
	t.Helper()
	spec := CatalogSpec{Database: "things", Tables: []TableSpec{{
		Name: "Thing", Kind: Director,
		Columns: []ColumnSpec{
			{Name: "thingId", Type: Integer}, {Name: "lon", Type: Double}, {Name: "lat", Type: Double},
			{Name: "n", Type: Integer}, {Name: "x", Type: Double}, {Name: "s", Type: Text},
		},
		RAColumn: "lon", DeclColumn: "lat", DirectorKey: "thingId",
	}}}
	ns := []any{int64(math.MaxInt64), int64(math.MinInt64), nil, int64(0), int64(-7)}
	xs := []any{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), nil, 1e-300, 2.5}
	ss := []any{"", "plain", "ünï 星", nil, "it's 'quoted'"}
	var rows []Row
	for i := int64(1); i <= 900; i++ {
		rows = append(rows, Row{i, float64(i*37%360) + 0.5, float64(i%120) - 60 + 0.25,
			ns[i%int64(len(ns))], xs[i%int64(len(xs))], ss[i%int64(len(ss))]})
	}
	cfg := DefaultClusterConfig(3)
	cfg.Database = "things"
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	oracle, err := NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []interface {
		CreateTables(CatalogSpec) error
	}{cl, oracle} {
		if err := db.CreateTables(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Ingest("Thing", RowsOf(rows)); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Ingest("Thing", RowsOf(rows)); err != nil {
		t.Fatal(err)
	}
	oracle.engine.RegisterFunc("mixed", mixedUDF)
	for _, w := range cl.Workers {
		w.Engine().RegisterFunc("mixed", mixedUDF)
	}
	return cl, oracle
}

// tcpFrontend serves a second czar over the cluster's workers, reached
// through the TCP fabric instead of in-process endpoints, behind a frontend
// of its own.
func tcpFrontend(t *testing.T, cl *Cluster) string {
	t.Helper()
	red := xrd.NewRedirector()
	for _, w := range cl.Workers {
		srv, err := xrd.Serve("127.0.0.1:0", w)
		if err != nil {
			t.Fatal(err)
		}
		ep := xrd.NewTCPEndpoint(w.Name(), srv.Addr())
		t.Cleanup(func() { ep.Close(); srv.Close() })
		exports := []string{"/result"}
		for _, c := range cl.Placement.ChunksOn(w.Name()) {
			exports = append(exports, xrd.QueryPath(int(c)))
		}
		red.Register(ep, exports...)
	}
	cz := czar.New(czar.DefaultConfig("czar-tcp"), cl.Registry, cl.Index, cl.Placement, red)
	fe, err := frontend.Serve("127.0.0.1:0", frontend.Config{}, cz)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close(); cz.Close() })
	return fe.Addr()
}

// clientAnswer runs sql over a protocol-v2 connection and collects what
// the client decodes.
func clientAnswer(t *testing.T, c *frontend.Client, sql string) *Result {
	t.Helper()
	st, err := c.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res := &Result{Cols: st.Cols()}
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		res.Rows = append(res.Rows, Row(row))
	}
	if st.Err() != nil {
		t.Fatalf("%s: %v", sql, st.Err())
	}
	if st.RowCount() != int64(len(res.Rows)) {
		t.Fatalf("%s: the trailer counts %d rows, %d arrived", sql, st.RowCount(), len(res.Rows))
	}
	return res
}

func TestResultPathEndToEnd(t *testing.T) {
	cl, oracle := resultPathCluster(t)
	local := startFrontend(t, cl, DefaultFrontendConfig()).Addr()
	for fabric, addr := range map[string]string{"LocalEndpoint": local, "TCP": tcpFrontend(t, cl)} {
		c, err := frontend.Dial(addr, "tester", "things")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, sql := range []string{
			"SELECT * FROM Thing",
			"SELECT thingId, mixed(thingId), mixed(n), s FROM Thing",
			// An integer for most rows, 0.5 for the rest: the czar used to
			// convert a column to the type its first cell happened to have,
			// and answered 0.
			"SELECT thingId, IFNULL(n, 0.5) FROM Thing WHERE lat < 0",
			// The same rows through a merge statement's session table and
			// through the top-K fold.
			"SELECT thingId, n, x, s FROM Thing WHERE lat > 30 ORDER BY thingId",
			"SELECT thingId, x, s FROM Thing ORDER BY thingId DESC LIMIT 9",
			// (No MAX(x): a NaN is the extreme only if it is read first.)
			"SELECT s, COUNT(*), MIN(n), MAX(lat) FROM Thing GROUP BY s",
			"SELECT thingId FROM Thing WHERE thingId < 0",
		} {
			got := clientAnswer(t, c, sql)
			want, err := oracle.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 && !strings.Contains(sql, "< 0") {
				t.Fatalf("%s: the oracle returns no rows", sql)
			}
			sameAnswer(t, got, want, fabric+": "+sql)
		}

		// EXPLAIN ANALYZE of a statement whose rows stream still renders
		// its trace, chunk folds and all.
		explain := clientAnswer(t, c, "EXPLAIN ANALYZE SELECT thingId, s FROM Thing WHERE lat > 0")
		var trace strings.Builder
		for _, r := range explain.Rows {
			trace.WriteString(r[0].(string) + "\n")
		}
		for _, span := range []string{"query", "plan", "chunk ", "merge fold", "czar merge"} {
			if !strings.Contains(trace.String(), span) {
				t.Errorf("%s: EXPLAIN ANALYZE renders no %q span:\n%s", fabric, span, trace.String())
			}
		}
	}
}

// TestKillMidStreamEndsInErrorFrame: a client that has row frames in hand
// and kills its query is told so — an E frame, not a D — and the connection
// serves the next statement.
func TestKillMidStreamEndsInErrorFrame(t *testing.T) {
	cl, _ := resultPathCluster(t)
	slowScans(cl, 200*time.Microsecond) // 900 rows: 180 ms of scanning, in chunk jobs of a few ms
	c, err := frontend.Dial(startFrontend(t, cl, DefaultFrontendConfig()).Addr(), "tester", "things")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Query(context.Background(), "SELECT thingId, s FROM Thing WHERE test_slow(lat) > -100")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("no first row: %v", st.Err())
	}
	if err := c.Kill(); err != nil {
		t.Fatal(err)
	}
	rows := 1
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		rows++
	}
	if st.Err() == nil || !strings.Contains(st.Err().Error(), "canceled") {
		t.Fatalf("killed after its first row, the stream ended with %d rows and error %v", rows, st.Err())
	}
	if rows >= 900 {
		t.Errorf("the kill let every row through")
	}
	if n := clientAnswer(t, c, "SELECT COUNT(*) FROM Thing").Rows[0][0]; n != int64(900) {
		t.Errorf("after the kill the connection answers COUNT(*) = %v", n)
	}
}
