package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// The scan-layer benches run the chunk statements a worker receives for
// the paper's section 6.2 classes (as bench/ issues them, after the
// czar's rewrite) over one chunk-sized table: 2,400 rows of the
// 13-column Object schema. `make bench-layers` runs them.

const benchChunkRows = 2400

var benchObjectSchema = Schema{
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

// benchObjectRows synthesizes n Object rows in a 2 x 2 degree patch.
// Magnitudes spread evenly over 18..27 per band, with the bands out of
// step, so the classes' cuts keep their selectivities: i - z runs over
// -9..9.
func benchObjectRows(n int) []Row {
	flux := func(mag float64) float64 { return math.Pow(10, -(mag+48.6)/2.5) }
	mag := func(i, step int) float64 { return 18 + 9*float64((i*step)%n)/float64(n) }
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			int64(1000 + i),
			10 + 2*float64(i%49)/49, -1 + 2*float64(i%51)/51,
			flux(mag(i, 7)), flux(mag(i, 11)), flux(mag(i, 13)),
			flux(mag(i, 17)), flux(mag(i, 19)), flux(mag(i, 23)),
			flux(mag(i, 29)), 0.5 + float64(i%10)/10,
			int64(221), int64(i % 40),
		}
	}
	return rows
}

// benchRandomRows is benchObjectRows with every flux drawn as the catalog
// generator (internal/datagen) draws it: a magnitude uniform over 16..27,
// from a seeded source. A filter's branches on these cells follow no
// pattern, where benchObjectRows' stepped magnitudes repeat one a branch
// predictor learns.
func benchRandomRows(n int) []Row {
	rows := benchObjectRows(n)
	r := rand.New(rand.NewSource(42))
	for _, row := range rows {
		for c := 3; c <= 9; c++ { // uFlux_PS .. yFlux_PS, uFlux_SG
			row[c] = math.Pow(10, -(16+11*r.Float64()+48.6)/2.5)
		}
	}
	return rows
}

// benchShellRows is benchObjectRows with every cell the classes' guards
// look at moved inside the guard's shell, where it decides nothing and the
// function is called for every row: r fluxes at the flux of magnitude 24.1
// (benchHV1's cut), i fluxes at the z flux times the ratio of an i - z
// colour of 6 (benchHV2's), declinations within the join's 0.02 degrees.
func benchShellRows(n int) []Row { return benchShellRowsAt(n, 6) }

// benchShellRowsAt is benchShellRows with the i fluxes in the shell of the
// i - z colour given.
func benchShellRowsAt(n int, colour float64) []Row {
	rows := benchObjectRows(n)
	k, ratio := math.Pow(10, (24.1+48.6)/-2.5), math.Pow(10, colour/-2.5)
	for i, r := range rows {
		in := 1 + guardShell*float64(i%19-9)/10
		r[5], r[6], r[2] = k*in, ratio*r[7].(float64)*in, -0.5+float64(i%7)/1000
	}
	return rows
}

// benchEngine holds the chunk table Object_221 and, for the near
// neighbour join, one subchunk's worth of it as Object_221_0 and its
// overlap table.
func benchEngine(tb testing.TB, chunkRows int) *Engine {
	return benchEngineOf(tb, benchObjectRows(chunkRows))
}

func benchEngineOf(tb testing.TB, rows []Row) *Engine {
	tb.Helper()
	e := New("LSST")
	db, err := e.Database("LSST")
	if err != nil {
		tb.Fatal(err)
	}
	for name, part := range map[string][]Row{
		"Object_221":              rows,
		"Object_221_0":            rows[:60],
		"ObjectFullOverlap_221_0": rows[60:90],
	} {
		t := NewTable(name, benchObjectSchema)
		if err := t.Insert(part...); err != nil {
			tb.Fatal(err)
		}
		db.Put(t)
	}
	if err := db.tables["object_221"].CreateIndex("objectId"); err != nil {
		tb.Fatal(err)
	}
	return e
}

const (
	benchBare = "SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_221 AS Object WHERE (ra_PS BETWEEN 10.5 AND 11.5)"
	benchLV1  = "SELECT * FROM LSST.Object_221 AS Object WHERE (objectId = 2200)"
	benchLV3  = "SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_221 AS Object WHERE ((ra_PS BETWEEN 10.5 AND 11.5) AND ((decl_PS BETWEEN -0.5 AND 0.5) AND (fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30.000001)))"
	benchHV1  = "SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_221 AS Object WHERE (fluxToAbMag(rFlux_PS) < 24.1)"
	benchHV3  = "SELECT COUNT(*) AS qserv_c0, SUM(ra_PS) AS qserv_c1, MIN(decl_PS) AS qserv_c2, MAX(decl_PS) AS qserv_c3, chunkId AS qserv_c4 FROM LSST.Object_221 AS Object WHERE (fluxToAbMag(rFlux_PS) < 26.1) GROUP BY chunkId"
	benchHV2  = "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM LSST.Object_221 AS Object WHERE ((fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS)) > 6)"
	benchHV2s = "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM LSST.Object_221 AS Object WHERE ((fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS)) > 8.9)"
	benchJoin = "SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_221_0 AS o1, LSST.ObjectFullOverlap_221_0 AS o2 WHERE ((qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 9, -2, 13, 2) = 1) AND (qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.02))"
)

func mustParse(tb testing.TB, sql string) *sqlparse.Select {
	tb.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return sel
}

// benchStatement executes one parsed statement b.N times and reports the
// time per row the statement scanned.
func benchStatement(b *testing.B, sql string) {
	benchStatementOn(b, benchEngine(b, benchChunkRows), sql)
}

func benchStatementOn(b *testing.B, e *Engine, sql string) {
	sel := mustParse(b, sql)
	var scanned int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.ExecuteStmt(sel)
		if err != nil {
			b.Fatal(err)
		}
		scanned = res.Stats.RowsScanned
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*scanned), "ns/row")
}

func BenchmarkScanBare(b *testing.B)         { benchStatement(b, benchBare) }
func BenchmarkScanHV1(b *testing.B)          { benchStatement(b, benchHV1) }
func BenchmarkScanHV3(b *testing.B)          { benchStatement(b, benchHV3) }
func BenchmarkScanHV2(b *testing.B)          { benchStatement(b, benchHV2) }
func BenchmarkScanHV2s(b *testing.B)         { benchStatement(b, benchHV2s) }
func BenchmarkScanLV3(b *testing.B)          { benchStatement(b, benchLV3) }
func BenchmarkScanSubchunkJoin(b *testing.B) { benchStatement(b, benchJoin) }

// BenchmarkScanHV1Random and BenchmarkScanHV2sRandom run HV1 and HV2s over
// benchRandomRows: the branch pattern of the repository benchmark's catalog.
func BenchmarkScanHV1Random(b *testing.B) {
	benchStatementOn(b, benchEngineOf(b, benchRandomRows(benchChunkRows)), benchHV1)
}

func BenchmarkScanHV2sRandom(b *testing.B) {
	benchStatementOn(b, benchEngineOf(b, benchRandomRows(benchChunkRows)), benchHV2s)
}

// BenchmarkScanHV1InShell is the guards' worst case: every cell is inside
// the shell, so every row pays for the guard and for the call. It is to be
// read against BenchmarkScanHV1 at the commit before the guards, which paid
// for the call alone.
func BenchmarkScanHV1InShell(b *testing.B) {
	benchStatementOn(b, benchEngineOf(b, benchShellRows(benchChunkRows)), benchHV1)
}

// benchNullRows is benchObjectRows with the columns cols NULL in one row of
// every hundred, so that each carries a NULL bitmap.
func benchNullRows(n int, cols ...int) []Row {
	rows := benchObjectRows(n)
	for i := 0; i < len(rows); i += 100 {
		for _, c := range cols {
			rows[i][c] = nil
		}
	}
	return rows
}

// BenchmarkScanHV1Nulls prices the NULL path of the filter: HV1 over a table
// whose rFlux_PS has a NULL bitmap, which the filter reads for every row.
func BenchmarkScanHV1Nulls(b *testing.B) {
	benchStatementOn(b, benchEngineOf(b, benchNullRows(benchChunkRows, 5)), benchHV1)
}

// BenchmarkScanHV3Nulls prices the NULL path of the aggregate fold: HV3 over
// a table whose ra_PS and decl_PS, the columns it sums and takes the extremes
// of, have NULL bitmaps, which the fold reads for every row it takes.
func BenchmarkScanHV3Nulls(b *testing.B) {
	benchStatementOn(b, benchEngineOf(b, benchNullRows(benchChunkRows, 1, 2)), benchHV3)
}

// TestGuardSkipsTheCall counts what the guards are for: over the bench
// tables the classes' statements call their function for next to no row
// (every row, before the guards), and over a table whose cells all sit in
// the shell they call it for every row, as before.
func TestGuardSkipsTheCall(t *testing.T) {
	clear, shell := benchEngine(t, benchChunkRows), benchEngineOf(t, benchShellRows(benchChunkRows))
	// HV2s's colour cut has shell rows of its own.
	shell89 := benchEngineOf(t, benchShellRowsAt(benchChunkRows, 8.9))
	for _, tc := range []struct {
		fn, sql string
		percent int64 // of the rows (of the pairs, for the join) that may reach the function
		shell   *Engine
	}{
		{"fluxToAbMag", benchHV1, 1, shell},
		{"fluxToAbMag", strings.Replace(benchHV3, "26.1", "24.1", 1), 1, shell},
		{"fluxToAbMag", benchHV2, 1, shell},
		{"fluxToAbMag", benchHV2s, 1, shell89},
		// The r fluxes of the shell rows are in the shell of the upper bound.
		{"fluxToAbMag", "SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_221 AS Object WHERE (fluxToAbMag(rFlux_PS) BETWEEN 16 AND 24.1)", 1, shell},
		{"qserv_angSep", benchJoin, 5, shell},
	} {
		sel := mustParse(t, tc.sql)
		run := func(e *Engine) (calls, rows int64) {
			n := CountTypedCalls(e, tc.fn)
			res, err := e.ExecuteStmt(sel)
			if err != nil {
				t.Fatal(err)
			}
			if rows = res.Stats.PairsConsidered; rows == 0 {
				rows = res.Stats.RowsScanned
			}
			return *n, rows
		}
		if calls, rows := run(clear); calls*100 > rows*tc.percent {
			t.Errorf("%d calls of %s for %d rows (at most %d%% may reach it): %s", calls, tc.fn, rows, tc.percent, tc.sql)
		}
		if calls, rows := run(tc.shell); calls != rows {
			t.Errorf("in the shell: %d calls of %s for %d rows, want one each: %s", calls, tc.fn, rows, tc.sql)
		}
	}
}

// benchWorkingSet is how many chunk tables the WorkingSet benches rotate
// through: the 94 chunks of the repository benchmark's catalog (bench/),
// about 23 MB of cells, where one chunk table alone (250 KB) sits in
// cache and flatters whatever chases pointers through it.
const benchWorkingSet = 94

// benchWorkingSetStatement runs the statement over benchWorkingSet chunk
// tables in turn, as a full-sky query does, and reports the time per row
// scanned.
func benchWorkingSetStatement(b *testing.B, sql string) {
	e := New("LSST")
	db, err := e.Database("LSST")
	if err != nil {
		b.Fatal(err)
	}
	sels := make([]*sqlparse.Select, benchWorkingSet)
	for i := range sels {
		name := fmt.Sprintf("Object_%d", 300+i)
		t := NewTable(name, benchObjectSchema)
		if err := t.Insert(benchObjectRows(benchChunkRows)...); err != nil {
			b.Fatal(err)
		}
		db.Put(t)
		sels[i] = mustParse(b, strings.ReplaceAll(sql, "Object_221", name))
	}
	var scanned int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.ExecuteStmt(sels[i%benchWorkingSet])
		if err != nil {
			b.Fatal(err)
		}
		scanned = res.Stats.RowsScanned
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*scanned), "ns/row")
}

func BenchmarkScanBareWorkingSet(b *testing.B) { benchWorkingSetStatement(b, benchBare) }
func BenchmarkScanHV1WorkingSet(b *testing.B)  { benchWorkingSetStatement(b, benchHV1) }
func BenchmarkScanHV3WorkingSet(b *testing.B)  { benchWorkingSetStatement(b, benchHV3) }

// BenchmarkScanCompile prices bind + compile alone on the statement where
// it is the largest share of the work: an LV1 index dive.
func BenchmarkScanCompile(b *testing.B) {
	e := benchEngine(b, benchChunkRows)
	sel := mustParse(b, benchLV1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := compileOnly(e, sel); err != nil {
			b.Fatal(err)
		}
	}
}

func compileOnly(e *Engine, sel *sqlparse.Select) error {
	_, err := e.Prepare(sel, nil)
	return err
}

// TestScanAllocBudget pins what the single-pass pipeline allocates.
// testing.AllocsPerRun counts repeat exactly, so these gate in tier-1: a
// filter that only counts and a GROUP BY allocate per statement, never
// per row scanned; a pass-through SELECT whose caller names no sink, and
// so gets boxed rows, allocates per row it returns — the row, its share of
// the result's growth, and one box per number it projects, since columns
// hold numbers unboxed. (Into an encoding sink it allocates nothing per
// row: TestSinkAllocBudget.)
func TestScanAllocBudget(t *testing.T) {
	run := func(e *Engine, sql string) (allocs float64, out int64) {
		sel := mustParse(t, sql)
		allocs = testing.AllocsPerRun(20, func() {
			res, err := e.ExecuteStmt(sel)
			if err != nil {
				t.Fatal(err)
			}
			out = res.Stats.RowsOut
		})
		return allocs, out
	}
	e, half := benchEngine(t, benchChunkRows), benchEngine(t, benchChunkRows/2)
	// HV3 over NULL bitmaps (BenchmarkScanHV3Nulls) too.
	nulls := benchEngineOf(t, benchNullRows(benchChunkRows, 1, 2))
	halfNulls := benchEngineOf(t, benchNullRows(benchChunkRows/2, 1, 2))
	const fixed = 64
	for _, tc := range []struct {
		e, half *Engine
		sql     string
	}{{e, half, benchHV1}, {e, half, benchHV3}, {e, half, benchLV3}, {nulls, halfNulls, benchHV3}} {
		allocs, _ := run(tc.e, tc.sql)
		if tc.sql != benchLV3 && allocs > fixed {
			t.Errorf("%.0f allocations (budget %d) for %s", allocs, fixed, tc.sql)
		}
		if fewer, _ := run(tc.half, tc.sql); fewer != allocs {
			t.Errorf("%.0f allocations over %d rows, %.0f over %d: they grow with the rows scanned by %s",
				allocs, benchChunkRows, fewer, benchChunkRows/2, tc.sql)
		}
	}
	allocs, out := run(e, benchHV2)
	if out < benchChunkRows/20 {
		t.Fatalf("HV2 returned %d of %d rows: the bench table lost its colour spread", out, benchChunkRows)
	}
	const hv2Cells = 9 // the numeric columns benchHV2 projects
	if budget := float64((2+hv2Cells)*out + fixed); allocs > budget {
		t.Errorf("HV2 into the boxing sink: %.0f allocations for %d output rows (budget %.0f)", allocs, out, budget)
	}
	sel := mustParse(t, benchLV1)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := compileOnly(e, sel); err != nil {
			t.Fatal(err)
		}
	}); allocs > 40 {
		t.Errorf("compiling the LV1 statement: %.0f allocations (budget 40)", allocs)
	}
}
