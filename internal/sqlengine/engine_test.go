package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlparse"
)

// newTestEngine builds an engine with a small Object-like table.
func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := New("LSST")
	mustExec(t, e, `CREATE TABLE Object (objectId BIGINT, ra_PS DOUBLE, decl_PS DOUBLE, zFlux_PS DOUBLE, chunkId BIGINT)`)
	mustExec(t, e, `INSERT INTO Object VALUES
		(1, 10.0, 0.0, 3e-28, 100),
		(2, 10.5, 0.05, 5e-28, 100),
		(3, 50.0, 20.0, 1e-29, 200),
		(4, 50.2, 20.1, 2e-29, 200),
		(5, 180.0, -45.0, 7e-30, 300),
		(6, 180.1, -45.05, NULL, 300)`)
	return e
}

func mustExec(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT * FROM Object")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	if len(res.Cols) != 5 || res.Cols[0] != "objectId" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelectWhere(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId FROM Object WHERE decl_PS > 0")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestSelectBetweenAndArith(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId, ra_PS * 2 FROM Object WHERE ra_PS BETWEEN 10 AND 11")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if got := res.Rows[0][1].(float64); got != 20.0 {
		t.Errorf("ra*2 = %v", got)
	}
}

func TestNullSemantics(t *testing.T) {
	e := newTestEngine(t)
	// NULL flux must not satisfy any comparison.
	res := mustQuery(t, e, "SELECT objectId FROM Object WHERE zFlux_PS > 0")
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5 (NULL excluded)", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE zFlux_PS IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 6 {
		t.Errorf("IS NULL: %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE zFlux_PS IS NOT NULL")
	if len(res.Rows) != 5 {
		t.Errorf("IS NOT NULL rows = %d", len(res.Rows))
	}
	// Arithmetic with NULL propagates.
	res = mustQuery(t, e, "SELECT zFlux_PS + 1 FROM Object WHERE objectId = 6")
	if !IsNull(res.Rows[0][0]) {
		t.Errorf("NULL + 1 = %v, want NULL", res.Rows[0][0])
	}
}

func TestAggregatesBasic(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT COUNT(*), COUNT(zFlux_PS), SUM(chunkId), AVG(ra_PS), MIN(decl_PS), MAX(decl_PS) FROM Object")
	r := res.Rows[0]
	if r[0].(int64) != 6 {
		t.Errorf("COUNT(*) = %v", r[0])
	}
	if r[1].(int64) != 5 {
		t.Errorf("COUNT(col) = %v, want 5 (NULL skipped)", r[1])
	}
	if r[2].(int64) != 1200 {
		t.Errorf("SUM = %v", r[2])
	}
	wantAvg := (10.0 + 10.5 + 50.0 + 50.2 + 180.0 + 180.1) / 6
	if math.Abs(r[3].(float64)-wantAvg) > 1e-9 {
		t.Errorf("AVG = %v, want %v", r[3], wantAvg)
	}
	if r[4].(float64) != -45.05 || r[5].(float64) != 20.1 {
		t.Errorf("MIN/MAX = %v/%v", r[4], r[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT COUNT(*), SUM(ra_PS), AVG(ra_PS) FROM Object WHERE objectId = 999")
	r := res.Rows[0]
	if r[0].(int64) != 0 {
		t.Errorf("COUNT over empty = %v", r[0])
	}
	if !IsNull(r[1]) || !IsNull(r[2]) {
		t.Errorf("SUM/AVG over empty = %v/%v, want NULLs", r[1], r[2])
	}
}

func TestGroupBy(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY chunkId ORDER BY chunkId")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 100 || res.Rows[0][1].(int64) != 2 {
		t.Errorf("group 100: %v", res.Rows[0])
	}
	if got := res.Rows[1][2].(float64); math.Abs(got-50.1) > 1e-9 {
		t.Errorf("avg of chunk 200 = %v", got)
	}
}

func TestGroupByAliasAndOrderDesc(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT chunkId AS c, COUNT(*) AS n FROM Object GROUP BY c ORDER BY n DESC, c DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// All groups have n=2, so order falls back to chunkId DESC.
	if res.Rows[0][0].(int64) != 300 {
		t.Errorf("order: %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT COUNT(DISTINCT chunkId) FROM Object")
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("COUNT DISTINCT = %v", res.Rows[0][0])
	}
}

func TestSelectDistinct(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT DISTINCT chunkId FROM Object ORDER BY chunkId")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows = %d", len(res.Rows))
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId, zFlux_PS FROM Object ORDER BY zFlux_PS")
	if !IsNull(res.Rows[0][1]) {
		t.Errorf("NULL should sort first: %v", res.Rows[0])
	}
	// Ascending after the NULL.
	prev := -math.MaxFloat64
	for _, r := range res.Rows[1:] {
		f := r[1].(float64)
		if f < prev {
			t.Errorf("not ascending: %v", res.Rows)
		}
		prev = f
	}
}

func TestLimit(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId FROM Object ORDER BY objectId LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[1][0].(int64) != 2 {
		t.Errorf("limit: %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT objectId FROM Object LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 gave %d rows", len(res.Rows))
	}
	// One-row answers, two of them made by shortcuts that skip the row loop
	// (the stored row count, a FROM-less select): LIMIT applies to all.
	total := mustQuery(t, e, "SELECT objectId FROM Object").Stats.RowsOut
	for _, shape := range []struct {
		sql  string
		want Value
	}{
		{"SELECT COUNT(*) FROM Object", total},
		{"SELECT COUNT(objectId) FROM Object", total},
		{"SELECT COUNT(*) FROM Object WHERE objectId > 0", total},
		{"SELECT 1 + 1", int64(2)},
	} {
		for _, limit := range []int{0, 1} {
			sql := fmt.Sprintf("%s LIMIT %d", shape.sql, limit)
			res := mustQuery(t, e, sql)
			if len(res.Cols) != 1 || len(res.Rows) != limit || res.Stats.RowsOut != int64(limit) {
				t.Errorf("%s: columns %v, rows %v, RowsOut %d", sql, res.Cols, res.Rows, res.Stats.RowsOut)
			} else if limit == 1 && res.Rows[0][0] != shape.want {
				t.Errorf("%s: %v, want %v", sql, res.Rows[0][0], shape.want)
			}
		}
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := newTestEngine(t)
	// Pairs of distinct objects in the same chunk.
	res := mustQuery(t, e, `SELECT o1.objectId, o2.objectId FROM Object o1, Object o2
		WHERE o1.chunkId = o2.chunkId AND o1.objectId < o2.objectId`)
	if len(res.Rows) != 3 {
		t.Fatalf("pairs = %d, want 3", len(res.Rows))
	}
}

func TestSelfJoinWithoutAliasFails(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Query("SELECT * FROM Object, Object"); err == nil {
		t.Error("self join without aliases should fail")
	}
}

func TestHashJoinTwoTables(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE Source (sourceId BIGINT, objectId BIGINT, psfFlux DOUBLE)")
	mustExec(t, e, `INSERT INTO Source VALUES
		(11, 1, 1.0), (12, 1, 1.1), (13, 2, 2.0), (14, 999, 9.9)`)
	res := mustQuery(t, e, `SELECT o.objectId, s.sourceId FROM Object o, Source s
		WHERE o.objectId = s.objectId ORDER BY s.sourceId`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d, want 3", len(res.Rows))
	}
	// Hash join must not degrade to full cartesian pair counting.
	if res.Stats.PairsConsidered >= int64(6*4) {
		t.Errorf("pairs considered = %d; hash join expected fewer than cartesian 24", res.Stats.PairsConsidered)
	}
}

func TestJoinOnSyntax(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE S2 (objectId BIGINT, v DOUBLE)")
	mustExec(t, e, "INSERT INTO S2 VALUES (1, 0.5), (3, 0.7)")
	res := mustQuery(t, e, "SELECT o.objectId, s.v FROM Object o JOIN S2 s ON o.objectId = s.objectId ORDER BY o.objectId")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestIndexLookup(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE INDEX idx_obj ON Object (objectId)")
	res := mustQuery(t, e, "SELECT * FROM Object WHERE objectId = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 3 {
		t.Fatalf("index lookup: %v", res.Rows)
	}
	if res.Stats.RandReads != 1 {
		t.Errorf("RandReads = %d, want 1", res.Stats.RandReads)
	}
	if res.Stats.SeqBytes != 0 {
		t.Errorf("SeqBytes = %d, want 0 (no scan)", res.Stats.SeqBytes)
	}
	// Without an index the same query scans.
	e2 := newTestEngine(t)
	res2 := mustQuery(t, e2, "SELECT * FROM Object WHERE objectId = 3")
	if res2.Stats.SeqBytes == 0 || res2.Stats.RandReads != 0 {
		t.Errorf("unindexed stats: %+v", res2.Stats)
	}
}

func TestIndexInList(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE INDEX idx_obj ON Object (objectId)")
	res := mustQuery(t, e, "SELECT objectId FROM Object WHERE objectId IN (1, 3, 5) ORDER BY objectId")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.RandReads != 3 {
		t.Errorf("RandReads = %d, want 3", res.Stats.RandReads)
	}
}

// NULL equals nothing: a NULL key must not dive to the rows whose indexed
// column is NULL.
func TestIndexDiveNullKey(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "INSERT INTO Object VALUES (NULL, 1.0, 1.0, 1e-28, 400)")
	mustExec(t, e, "CREATE INDEX idx_obj ON Object (objectId)")
	for sql, want := range map[string]int{
		"SELECT chunkId FROM Object WHERE objectId = NULL":       0,
		"SELECT chunkId FROM Object WHERE objectId IN (NULL)":    0,
		"SELECT chunkId FROM Object WHERE objectId IN (1, NULL)": 1,
		"SELECT chunkId FROM Object WHERE objectId IS NULL":      1,
	} {
		if res := mustQuery(t, e, sql); len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", sql, len(res.Rows), want)
		}
	}
}

func TestIndexAfterInsert(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE INDEX idx_obj ON Object (objectId)")
	mustExec(t, e, "INSERT INTO Object VALUES (7, 1.0, 1.0, 1e-28, 400)")
	res := mustQuery(t, e, "SELECT * FROM Object WHERE objectId = 7")
	if len(res.Rows) != 1 {
		t.Fatalf("index not maintained on insert: %v", res.Rows)
	}
}

func TestIndexFloatKeyNormalization(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE INDEX idx_obj ON Object (objectId)")
	// 3.0 must find the integer key 3.
	res := mustQuery(t, e, "SELECT * FROM Object WHERE objectId = 3.0")
	if len(res.Rows) != 1 {
		t.Errorf("float literal did not match int key: %v", res.Rows)
	}
}

func TestSlowIdentity(t *testing.T) {
	for _, d := range []time.Duration{-time.Second, 0, 50 * time.Microsecond, 2 * time.Millisecond} {
		f := SlowIdentity(d)
		start := time.Now()
		for i := 0; i < 20; i++ {
			v, err := f([]Value{int64(i)})
			if err != nil || v != int64(i) {
				t.Fatalf("SlowIdentity(%v)(%d) = %v, %v", d, i, v, err)
			}
		}
		if took := time.Since(start); took < 20*d {
			t.Errorf("SlowIdentity(%v): 20 calls took %v", d, took)
		}
		if _, err := f(nil); err == nil {
			t.Errorf("SlowIdentity(%v) accepted no argument", d)
		}
	}
}

func TestUDFs(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT fluxToAbMag(3e-28) FROM Object LIMIT 1")
	want := -2.5*math.Log10(3e-28) - 48.6
	if got := res.Rows[0][0].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("fluxToAbMag = %v, want %v", got, want)
	}
	res = mustQuery(t, e, "SELECT qserv_angSep(0, 0, 0, 1) FROM Object LIMIT 1")
	if got := res.Rows[0][0].(float64); math.Abs(got-1) > 1e-9 {
		t.Errorf("angSep = %v", got)
	}
	res = mustQuery(t, e, "SELECT qserv_ptInSphericalBox(5, 5, 0, 0, 10, 10) FROM Object LIMIT 1")
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("ptInSphericalBox = %v", res.Rows[0][0])
	}
	// RA-wrapping box.
	res = mustQuery(t, e, "SELECT qserv_ptInSphericalBox(1, 0, 358, -7, 365, 7) FROM Object LIMIT 1")
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("wrapping ptInSphericalBox = %v", res.Rows[0][0])
	}
}

// A compiled call reuses one args buffer across rows (see RegisterFunc).
// What a UDF may rely on: the values it reads or returns are its own, a
// call nested in another has a buffer of its own, and so does every
// compile of the statement — concurrent runs do not share one.
func TestUDFArgsBuffer(t *testing.T) {
	e := newTestEngine(t)
	var mu sync.Mutex
	var kept []Value
	e.RegisterFunc("keep", func(args []Value) (Value, error) {
		mu.Lock()
		kept = append(kept, args[0]) // the value, not the slice
		mu.Unlock()
		return args[0], nil
	})
	e.RegisterFunc("pair", func(args []Value) (Value, error) {
		return args[0].(int64)*1000 + args[1].(int64), nil
	})
	res := mustQuery(t, e, "SELECT keep(objectId), pair(pair(objectId, 1), pair(2, objectId)) FROM Object")
	for i, r := range res.Rows {
		id := int64(i + 1)
		if r[0] != id || kept[i] != id {
			t.Errorf("row %d: keep returned %v and kept %v", id, r[0], kept[i])
		}
		if want := (id*1000+1)*1000 + 2000 + id; r[1] != want {
			t.Errorf("row %d: nested pair = %v, want %v", id, r[1], want)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				res, err := e.Query("SELECT SUM(pair(objectId, chunkId)) FROM Object")
				if err != nil || res.Rows[0][0] != int64(21*1000+1200) {
					t.Errorf("concurrent pair: %v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNearNeighborSelfJoin(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, `SELECT COUNT(*) FROM Object o1, Object o2
		WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1
		AND o1.objectId < o2.objectId`)
	// Only pair (5,6) is within 0.1 deg: (10.0,0) vs (10.5,0.05) is 0.5 apart,
	// (50.0,20) vs (50.2,20.1) is ~0.21 apart, (180.0,-45) vs (180.1,-45.05) ~0.087.
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("near pairs = %v, want 1", res.Rows[0][0])
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE Bright AS SELECT objectId, ra_PS FROM Object WHERE zFlux_PS > 1e-29")
	res := mustQuery(t, e, "SELECT COUNT(*) FROM Bright")
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("CTAS rows = %v", res.Rows[0][0])
	}
	// Subchunk-style CTAS from a WHERE on a generated column.
	mustExec(t, e, "DROP TABLE Bright")
	if e.MustExecute("SELECT 1").Rows[0][0].(int64) != 1 {
		t.Error("engine broken after drop")
	}
}

func TestDropTable(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "DROP TABLE Object")
	if _, err := e.Query("SELECT * FROM Object"); err == nil {
		t.Error("query after drop should fail")
	}
	if _, err := e.Execute("DROP TABLE Object"); err == nil {
		t.Error("double drop should fail")
	}
	mustExec(t, e, "DROP TABLE IF EXISTS Object") // no error
}

func TestMultiDatabase(t *testing.T) {
	e := New("qservMeta")
	e.CreateDatabase("LSST")
	mustExec(t, e, "CREATE TABLE LSST.Object_77 (objectId BIGINT, ra DOUBLE)")
	mustExec(t, e, "INSERT INTO LSST.Object_77 VALUES (1, 2.0)")
	res := mustQuery(t, e, "SELECT * FROM LSST.Object_77")
	if len(res.Rows) != 1 {
		t.Fatalf("qualified query rows = %d", len(res.Rows))
	}
	// Unqualified name resolves against the default database only.
	if _, err := e.Query("SELECT * FROM Object_77"); err == nil {
		t.Error("unqualified name should not see other databases")
	}
}

func TestInsertColumnSubsetAndCoercion(t *testing.T) {
	e := New("test")
	mustExec(t, e, "CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR)")
	mustExec(t, e, "INSERT INTO t (b, a) VALUES (1.5, 2)")
	res := mustQuery(t, e, "SELECT a, b, c FROM t")
	if res.Rows[0][0].(int64) != 2 || res.Rows[0][1].(float64) != 1.5 || !IsNull(res.Rows[0][2]) {
		t.Errorf("insert subset: %v", res.Rows[0])
	}
	// Coercion: float into BIGINT column, number into VARCHAR.
	mustExec(t, e, "INSERT INTO t VALUES (3.7, 2, 42)")
	res = mustQuery(t, e, "SELECT a, c FROM t WHERE b = 2")
	if res.Rows[0][0].(int64) != 3 || res.Rows[0][1].(string) != "42" {
		t.Errorf("coercion: %v", res.Rows[0])
	}
}

func TestStringsAndLike(t *testing.T) {
	e := New("test")
	mustExec(t, e, "CREATE TABLE s (name VARCHAR)")
	mustExec(t, e, "INSERT INTO s VALUES ('alpha'), ('beta'), ('ALPHARD'), ('gamma')")
	res := mustQuery(t, e, "SELECT name FROM s WHERE name LIKE 'alpha%'")
	if len(res.Rows) != 2 {
		t.Errorf("LIKE rows = %d, want 2 (case-insensitive)", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT name FROM s WHERE name LIKE '_eta'")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "beta" {
		t.Errorf("underscore LIKE: %v", res.Rows)
	}
}

func TestStatsScanAccounting(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT * FROM Object")
	db, _ := e.Database("LSST")
	tbl, _ := db.Table("Object")
	if res.Stats.SeqBytes != tbl.ByteSize() {
		t.Errorf("SeqBytes = %d, want %d", res.Stats.SeqBytes, tbl.ByteSize())
	}
	if res.Stats.RowsScanned != 6 || res.Stats.RowsOut != 6 {
		t.Errorf("rows scanned/out = %d/%d", res.Stats.RowsScanned, res.Stats.RowsOut)
	}
	if res.Stats.ResultBytes <= 0 {
		t.Error("ResultBytes not accounted")
	}
}

func TestConstantFalsePredicate(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT * FROM Object WHERE 1 = 2")
	if len(res.Rows) != 0 {
		t.Errorf("constant-false returned rows: %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT COUNT(*) FROM Object WHERE 1 = 1")
	if res.Rows[0][0].(int64) != 6 {
		t.Errorf("constant-true: %v", res.Rows[0][0])
	}
}

func TestSelectNoFrom(t *testing.T) {
	e := New("test")
	res := mustQuery(t, e, "SELECT 1 + 2, 'x'")
	if res.Rows[0][0].(int64) != 3 || res.Rows[0][1].(string) != "x" {
		t.Errorf("no-from select: %v", res.Rows[0])
	}
}

func TestErrorCases(t *testing.T) {
	e := newTestEngine(t)
	for _, sql := range []string{
		"SELECT nosuch FROM Object",
		"SELECT * FROM NoSuchTable",
		"SELECT nosuchfunc(1) FROM Object",
		"SELECT o.x FROM Object o",
		"SELECT objectId FROM Object WHERE bad.ref = 1",
		"INSERT INTO Object VALUES (1)",
		"INSERT INTO Object (nocol) VALUES (1)",
		"CREATE INDEX i ON Object (nocol)",
		"SELECT SUM(ra_PS, decl_PS) FROM Object",
	} {
		if _, err := e.Execute(sql); err == nil {
			t.Errorf("Execute(%q) should fail", sql)
		}
	}
	// Creating an existing table fails without IF NOT EXISTS.
	if _, err := e.Execute("CREATE TABLE Object (a BIGINT)"); err == nil {
		t.Error("duplicate CREATE should fail")
	}
	mustExec(t, e, "CREATE TABLE IF NOT EXISTS Object (a BIGINT)")
}

func TestAmbiguousColumn(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE Other (objectId BIGINT)")
	mustExec(t, e, "INSERT INTO Other VALUES (1)")
	if _, err := e.Query("SELECT objectId FROM Object o, Other x WHERE o.objectId = x.objectId"); err == nil {
		t.Error("ambiguous unqualified column should fail")
	}
}

func TestExpressionInGroupBy(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT FLOOR(decl_PS / 10), COUNT(*) FROM Object GROUP BY FLOOR(decl_PS / 10) ORDER BY 1")
	// Note: ORDER BY 1 is parsed as the literal 1 (constant), so grouping
	// order is insertion order; just check group count.
	if len(res.Rows) != 3 {
		t.Errorf("expression groups = %d: %v", len(res.Rows), res.Rows)
	}
}

func TestAggregateArithmetic(t *testing.T) {
	// The merge-side form of AVG: SUM(x)/SUM(n).
	e := New("test")
	mustExec(t, e, "CREATE TABLE parts (s DOUBLE, n BIGINT)")
	mustExec(t, e, "INSERT INTO parts VALUES (10.0, 2), (20.0, 3)")
	res := mustQuery(t, e, "SELECT SUM(s) / SUM(n) FROM parts")
	if got := res.Rows[0][0].(float64); math.Abs(got-6) > 1e-12 {
		t.Errorf("SUM/SUM = %v, want 6", got)
	}
}

func TestScriptExecution(t *testing.T) {
	e := New("test")
	res := mustExec(t, e, `
		CREATE TABLE t (a BIGINT);
		INSERT INTO t VALUES (1), (2), (3);
		SELECT SUM(a) FROM t;
	`)
	if res.Rows[0][0].(int64) != 6 {
		t.Errorf("script result = %v", res.Rows[0][0])
	}
}

func TestConcurrentReads(t *testing.T) {
	e := newTestEngine(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := e.Query("SELECT COUNT(*) FROM Object WHERE decl_PS > 0"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	e := newTestEngine(t)
	done := make(chan error, 4)
	for i := 0; i < 2; i++ {
		go func(k int) {
			for j := 0; j < 30; j++ {
				sql := "CREATE TABLE tmp_" + string(rune('a'+k)) + " AS SELECT * FROM Object WHERE chunkId = 100"
				if _, err := e.Execute(sql); err != nil {
					done <- err
					return
				}
				if _, err := e.Execute("DROP TABLE tmp_" + string(rune('a'+k))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 2; i++ {
		go func() {
			for j := 0; j < 60; j++ {
				if _, err := e.Query("SELECT AVG(ra_PS) FROM Object"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestResultSchemaTypes(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId, ra_PS FROM Object LIMIT 1")
	if res.Types[0] != sqlparse.TypeInt || res.Types[1] != sqlparse.TypeFloat {
		t.Errorf("types = %v", res.Types)
	}
	s := res.Schema()
	if s[0].Name != "objectId" || s[0].Type != sqlparse.TypeInt {
		t.Errorf("schema = %v", s)
	}
}

func TestDisplayNames(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY objectId LIMIT 1")
	if res.Cols[0] != "objectId" || res.Cols[1] != "n" {
		t.Errorf("cols = %v", res.Cols)
	}
	if !strings.Contains(res.Cols[2], "AVG") {
		t.Errorf("unaliased aggregate heading = %q", res.Cols[2])
	}
}

func TestGroupKeyInjective(t *testing.T) {
	pairs := [][2][]Value{
		{{int64(1), "a"}, {int64(1), "a|"}},
		{{"ab", "c"}, {"a", "bc"}},
		{{nil}, {""}},
		{{int64(12)}, {"12"}},
		{{int64(1), int64(2)}, {int64(12)}},
	}
	for _, p := range pairs {
		if GroupKey(p[0]) == GroupKey(p[1]) {
			t.Errorf("GroupKey collision: %v vs %v", p[0], p[1])
		}
	}
	if GroupKey([]Value{int64(5)}) != GroupKey([]Value{int64(5)}) {
		t.Error("GroupKey not deterministic")
	}
}

func BenchmarkFullScanFilter(b *testing.B) {
	e := New("bench")
	e.MustExecute("CREATE TABLE t (id BIGINT, x DOUBLE)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 10000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(")
		sb.WriteString(FormatValue(int64(i)))
		sb.WriteString(", ")
		sb.WriteString(FormatValue(float64(i) * 0.5))
		sb.WriteString(")")
	}
	e.MustExecute(sb.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query("SELECT COUNT(*) FROM t WHERE x BETWEEN 100 AND 200"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexPointLookup(b *testing.B) {
	e := New("bench")
	e.MustExecute("CREATE TABLE t (id BIGINT, x DOUBLE)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 10000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(")
		sb.WriteString(FormatValue(int64(i)))
		sb.WriteString(", 1.0)")
	}
	e.MustExecute(sb.String())
	e.MustExecute("CREATE INDEX i ON t (id)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query("SELECT * FROM t WHERE id = 5000"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCountStarFastPath(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT COUNT(*) FROM Object")
	if res.Rows[0][0].(int64) != 6 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// MyISAM-style: answered from table metadata, no scan.
	if res.Stats.SeqBytes != 0 || res.Stats.RowsScanned != 0 {
		t.Errorf("COUNT(*) fast path scanned: %+v", res.Stats)
	}
	// With a WHERE clause the fast path must not apply.
	res = mustQuery(t, e, "SELECT COUNT(*) FROM Object WHERE decl_PS > 0")
	if res.Stats.SeqBytes == 0 {
		t.Error("filtered count must scan")
	}
	// Alias respected.
	res = mustQuery(t, e, "SELECT COUNT(*) AS n FROM Object")
	if res.Cols[0] != "n" {
		t.Errorf("alias: %v", res.Cols)
	}
}

// TestInterruptAbortsStatement checks the cancellation seam: a closed
// interrupt channel makes execution fail with ErrInterrupted instead of
// returning rows, for heap scans and joins alike.
func TestInterruptAbortsStatement(t *testing.T) {
	e := newTestEngine(t)
	closed := make(chan struct{})
	close(closed)
	for _, sql := range []string{
		"SELECT * FROM Object WHERE ra_PS > 0",
		"SELECT o1.objectId FROM Object AS o1, Object AS o2 WHERE o1.chunkId = o2.chunkId",
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecuteStmtOpts(sel, ExecOptions{Interrupt: closed}); !errors.Is(err, ErrInterrupted) {
			t.Errorf("%s: err = %v, want ErrInterrupted", sql, err)
		}
		// A nil interrupt leaves the statement untouched.
		if _, err := e.ExecuteStmtOpts(sel, ExecOptions{}); err != nil {
			t.Errorf("%s without interrupt: %v", sql, err)
		}
	}
}

// TestInterruptLandsWithinPairsOfANestedLoop: a nested-loop join used to
// look at its interrupt once per interruptCheckRows outer rows, that is
// once per 512 * |inner| pairs — ten million predicate calls after the kill
// on this 20,000-row self-join. The kill must land within
// interruptCheckRows pairs, however long the inner table.
func TestInterruptLandsWithinPairsOfANestedLoop(t *testing.T) {
	const rows, killAt = 20000, 1000
	e := New("db")
	db, _ := e.Database("db")
	tbl := NewTable("t", Schema{{Name: "x", Type: sqlparse.TypeInt}})
	cells := make([]Row, rows)
	for i := range cells {
		cells[i] = Row{int64(i)}
	}
	if err := tbl.Insert(cells...); err != nil {
		t.Fatal(err)
	}
	db.Put(tbl)
	// test_slow is the pair predicate: it counts its calls and fires the
	// kill at the killAt-th.
	interrupt, calls := make(chan struct{}), 0
	e.RegisterFunc("test_slow", func(args []Value) (Value, error) {
		if calls++; calls == killAt {
			close(interrupt)
		}
		return args[0], nil
	})
	sel := mustParse(t, "SELECT COUNT(*) FROM t a, t b WHERE test_slow(a.x + b.x) < 0")
	_, err := e.ExecuteStmtOpts(sel, ExecOptions{Interrupt: interrupt})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v after %d predicate calls, want ErrInterrupted", err, calls)
	}
	if calls > killAt+interruptCheckRows {
		t.Errorf("the join made %d predicate calls after the kill, want at most %d", calls-killAt, interruptCheckRows)
	}
}

// TestFloatModulo: `x % 0.5` used to truncate the divisor to an int and
// crash the scan lane with an integer divide by zero. Fractional
// divisors must use floating modulo; only a true zero divisor is NULL.
func TestFloatModulo(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(t, e, "SELECT objectId, ra_PS % 0.5 FROM Object WHERE objectId = 2")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if got := res.Rows[0][1].(float64); math.Abs(got) > 1e-9 {
		t.Errorf("10.5 %% 0.5 = %v, want 0", got)
	}
	res = mustQuery(t, e, "SELECT ra_PS % 3.25 FROM Object WHERE objectId = 1")
	if got := res.Rows[0][0].(float64); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("10.0 %% 3.25 = %v, want 0.25", got)
	}
	// A genuinely zero divisor is NULL, not a panic and not an error —
	// and a NULL predicate excludes the row.
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE ra_PS % 0.0 > -1")
	if len(res.Rows) != 0 {
		t.Errorf("x %% 0 comparison matched %d rows, want 0", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT ra_PS % 0.25 FROM Object WHERE objectId = 5")
	if got := res.Rows[0][0].(float64); math.Abs(got) > 1e-9 {
		t.Errorf("180.0 %% 0.25 = %v, want 0", got)
	}
}

// TestInListNullSemantics: SQL three-valued logic for IN lists holding
// NULL. `x NOT IN (..., NULL)` is NULL when x matches nothing — it must
// never become TRUE and resurrect rows.
func TestInListNullSemantics(t *testing.T) {
	e := newTestEngine(t)
	// Plain IN with a NULL in the list: matches still match.
	res := mustQuery(t, e, "SELECT objectId FROM Object WHERE objectId IN (1, NULL, 3)")
	if len(res.Rows) != 2 {
		t.Fatalf("IN (1, NULL, 3) matched %d rows, want 2", len(res.Rows))
	}
	// No match + NULL in list = UNKNOWN: the row is excluded...
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE objectId IN (99, NULL)")
	if len(res.Rows) != 0 {
		t.Errorf("IN (99, NULL) matched %d rows, want 0", len(res.Rows))
	}
	// ...and crucially NOT IN (99, NULL) is also UNKNOWN, not TRUE.
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE objectId NOT IN (99, NULL)")
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN (99, NULL) matched %d rows, want 0 (UNKNOWN)", len(res.Rows))
	}
	// NOT IN with a real match is definitely FALSE for that row and the
	// NULL never flips the others to TRUE.
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE objectId NOT IN (1, NULL)")
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN (1, NULL) matched %d rows, want 0", len(res.Rows))
	}
	// Without a NULL, NOT IN behaves two-valued.
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE objectId NOT IN (1, 2)")
	if len(res.Rows) != 4 {
		t.Errorf("NOT IN (1, 2) matched %d rows, want 4", len(res.Rows))
	}
	// NULL on the left is UNKNOWN both ways.
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE zFlux_PS IN (NULL, 3e-28)")
	if len(res.Rows) != 1 {
		t.Errorf("flux IN: %d rows, want 1", len(res.Rows))
	}
	res = mustQuery(t, e, "SELECT objectId FROM Object WHERE zFlux_PS NOT IN (99.0)")
	if len(res.Rows) != 5 {
		t.Errorf("flux NOT IN: %d rows, want 5 (NULL row excluded)", len(res.Rows))
	}
}
