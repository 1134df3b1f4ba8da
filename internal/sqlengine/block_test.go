package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// blockSchema is what the block-form tests read: four DOUBLE columns, which
// the guarded calls take as (f), (f, g) and (f, g, h, m), and two BIGINT.
var blockSchema = Schema{
	{Name: "f", Type: sqlparse.TypeFloat}, {Name: "g", Type: sqlparse.TypeFloat},
	{Name: "h", Type: sqlparse.TypeFloat}, {Name: "m", Type: sqlparse.TypeFloat},
	{Name: "i", Type: sqlparse.TypeInt}, {Name: "j", Type: sqlparse.TypeInt},
}

// blockFamily is one kind of conjunct with a block form: what is compared,
// and constants (pairs, for BETWEEN) the shape has a block form against.
type blockFamily struct {
	lhs    string
	consts [][2]string
}

var blockFamilies = []blockFamily{
	{"fluxToAbMag(f)", [][2]string{{"24.1", "25.6"}, {"(20 + 4.1)", "-5.25"}, {"16", "30.000001"}}},
	{"fluxToAbMag(i)", [][2]string{{"-40", "-45.5"}}}, // an integer column widens
	// The magnitudes of 7 and 3: a BETWEEN over integer cells, some on the
	// shells' thresholds and some between them.
	{"fluxToAbMag(i)", [][2]string{{"-50.71274510003564", "-49.79280313679916"}}},
	{"fluxToAbMag(f) - fluxToAbMag(g)", [][2]string{{"6", "8.9"}, {"-9", "0"}}},
	// An integer cell in a pair, first or second; a colour of 0 puts the
	// shell where f is near i.
	{"fluxToAbMag(i) - fluxToAbMag(f)", [][2]string{{"0", "3"}, {"6", "-5.25"}}},
	{"fluxToAbMag(f) - fluxToAbMag(i)", [][2]string{{"0", "3"}, {"6", "-5.25"}}},
	{"qserv_angSep(f, g, h, m)", [][2]string{{"0.5", "1.25"}, {"0.02", "(0.01 * 3)"}, {"0", "1e-12"}, {"-1", "90"}}},
	{"scisql_angSep(h, m, f, g)", [][2]string{{"0.5", "179"}}},
	{"f", [][2]string{{"24.1", "25.6"}, {"0", "-0.0"}, {"1e-310", "(1e308 * 10)"}, {"3", "-2"}}},
	{"i", [][2]string{{"3", "-2"}, {"0", "9223372036854775807"}, {"(-9223372036854775807 - 1)", "7"}, {"2.5", "-0.5"}, {"(1e308 * 10)", "-1e300"}}},
}

// noBlockForm are conjuncts a block form must not be built for: a call
// argument that is no column leaf, or a constant one; two columns; a
// BETWEEN betweenNode leaves generic; a constant no guard is built against.
var noBlockForm = []string{
	"fluxToAbMag(f + 0) < 24.1", "qserv_angSep(f, g, 10, m) < 0.5", "f < g", "i BETWEEN 2 AND 7.5",
	"fluxToAbMag(f) < 730", "f + 1 < 3", "1 < 2", "f < NULL", "f < 1 / 0", "NOT f < 3", "i = i",
}

// blockFloats are the float cells every column draws from besides those near
// a threshold: NaN, the infinities, both zeros, subnormals, the ends of the
// normal range, the edges of the sphere.
var blockFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -1e-310, minNormal,
	math.MaxFloat64, -math.MaxFloat64, 90, -90, 91, -90.0000001, 1e-30, 3e-28}

var blockInts = []int64{math.MinInt64, math.MaxInt64, 0, 1, -1, 2, 3, -2, 7, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}

// blockConst folds a constant's text to the float64 the shapes compare with.
func blockConst(t testing.TB, eng *Engine, text string) float64 {
	c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", blockSchema}}}
	n, err := c.compile(mustParseExpr(t, text))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := n.constFloat()
	return v
}

// blockRows draws n rows whose cells sit on, inside, at the edges of and
// clear of the shells of the thresholds cs for every family — as fluxes, as
// flux ratios, as declination differences, as the column values themselves
// — a share of them NULL when nulls is set.
func blockRows(r *rand.Rand, n int, cs []float64, nulls bool) []Row {
	// jiggle moves x by a relative amount from the last bit to clear of the shell.
	jiggle := func(x float64) float64 {
		switch r.Intn(4) {
		case 0:
			return x
		case 1:
			return around(x)[r.Intn(3)]
		}
		d := math.Pow(10, -16+14*r.Float64())
		if r.Intn(2) == 0 {
			d = -d
		}
		return x * (1 + d)
	}
	float := func() float64 {
		c := cs[r.Intn(len(cs))]
		switch r.Intn(6) {
		case 0:
			return blockFloats[r.Intn(len(blockFloats))]
		case 1:
			return jiggle(math.Pow(10, (c+48.6)/-2.5)) // a flux at the threshold of fluxToAbMag(f) ? c
		case 2:
			return jiggle(c)
		case 3:
			return jiggle(c * (1 + guardShell)) // the edge of a shell, as the angSep guard's band draws it
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-30))
	}
	rows := make([]Row, n)
	for k := range rows {
		c := cs[r.Intn(len(cs))]
		f, g, h, m := float(), float(), float(), float()
		switch r.Intn(4) {
		case 0: // f / g at the ratio fluxToAbMag(f) - fluxToAbMag(g) ? c turns on
			g = 1e-30 + 1e-27*r.Float64()
			f = jiggle(math.Pow(10, c/-2.5) * g)
		case 1: // declinations c apart, at the margin the angSep guard keeps
			g = -90 + 180*r.Float64()
			m = g + jiggle(c*(1+guardShell)+guardShell)
		}
		ci := int64(c)
		if !(c >= math.MinInt64 && c < math.MaxInt64) {
			ci = 0
		}
		ints := append(slices.Clone(blockInts), ci-1, ci, ci+1, r.Int63n(21)-10)
		row := Row{f, g, h, m, ints[r.Intn(len(ints))], ints[r.Intn(len(ints))]}
		for x := range row {
			if nulls && r.Intn(20) == 0 {
				row[x] = nil
			}
		}
		rows[k] = row
	}
	return rows
}

// blockFormAgrees compiles text over t's columns and, where it has a block
// form, holds it to the row form: over every position in order, and over a
// random subset in a random order (a dive's order), the block form keeps
// exactly the positions the row form calls TRUE, in the order given; and the
// aggregates over the rows it keeps, folded, are the row loop's
// (foldStatementsAgree). It reports whether there was a block form.
func blockFormAgrees(t testing.TB, eng *Engine, tbl *Table, text string, r *rand.Rand) bool {
	t.Helper()
	c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", blockSchema}}}
	n, err := c.compile(mustParseExpr(t, text))
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	if n.block == nil {
		return false
	}
	d := tbl.data.Load()
	truth, fr := n.truth(), &frame{cur: []cursor{{cols: d.cols}}}
	all := make([]int32, d.n)
	for p := range all {
		all[p] = int32(p)
	}
	some := slices.Clone(all)
	r.Shuffle(len(some), func(i, j int) { some[i], some[j] = some[j], some[i] })
	some = some[:r.Intn(len(some)+1)]
	for _, sel := range [][]int32{all, some} {
		var want []int32
		for _, p := range sel {
			fr.cur[0].pos = int(p)
			v, null, err := truth(fr)
			if err != nil {
				t.Fatalf("%s: the row form of a conjunct with a block form failed: %v", text, err)
			}
			if !null && v != 0 {
				want = append(want, p)
			}
		}
		if got := n.block(d.cols, slices.Clone(sel)); !slices.Equal(got, want) {
			for _, p := range sel {
				if slices.Contains(got, p) != slices.Contains(want, p) {
					t.Fatalf("%s on row %v: the block form keeps it %v, the row form %v", text, tbl.Row(int(p)), slices.Contains(got, p), slices.Contains(want, p))
				}
			}
			t.Fatalf("%s: the block form keeps %v, the row form %v", text, got, want)
		}
	}
	foldStatementsAgree(t, eng, tbl, text)
	return true
}

func blockTable(t testing.TB, name string, rows []Row) *Table {
	t.Helper()
	tbl := NewTable(name, blockSchema)
	if err := tbl.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestBlockFormIsTheRowForm holds every block form to its conjunct's row
// form: each shape with one — a guarded call of column leaves, a numeric
// column against constants, under all six operators with the constant on
// either side, BETWEEN and NOT BETWEEN — over random columns with and
// without a NULL bitmap, holding NaN, the infinities, both zeros,
// subnormals and cells on, inside and at the edges of each guard's shell.
// Every such shape must have a block form (the test would pass without
// them), and the shapes noBlockForm lists must not.
func TestBlockFormIsTheRowForm(t *testing.T) {
	eng := New("LSST")
	r := rand.New(rand.NewSource(25))
	for _, fam := range blockFamilies {
		for _, cc := range fam.consts {
			cs := []float64{blockConst(t, eng, cc[0]), blockConst(t, eng, cc[1])}
			for _, nulls := range []bool{false, true} {
				tbl := blockTable(t, "t", blockRows(r, 400, cs, nulls))
				if got := tbl.data.Load().cols[0].nulls != nil; got != nulls {
					t.Fatalf("NULL bitmap %v, want %v", got, nulls)
				}
				for _, shape := range guardedShapes(fam.lhs, cc[0], cc[1]) {
					if !blockFormAgrees(t, eng, tbl, shape, r) {
						t.Errorf("%s has no block form", shape)
					}
				}
			}
		}
	}
	tbl := blockTable(t, "t", blockRows(r, 50, []float64{24.1, 0.5}, true))
	for _, text := range noBlockForm {
		if blockFormAgrees(t, eng, tbl, text, r) {
			t.Errorf("%s has a block form", text)
		}
	}
}

// TestBlockFormCallsOffTheNormalRange holds a log-affine block form to the
// cells its guard must leave to the call: a cell — or a pair's second cell —
// that is NaN, infinite, zero, negative or subnormal, where the shell's bound
// does not hold. On such rows the block form makes exactly one call per row,
// in every shape, single and pair, float and integer. The answers alone
// would not show a cell decided there: the call returns the same side of the
// threshold for an infinity or a subnormal as a guard that took it for a
// cell beyond or below the shell would answer.
func TestBlockFormCallsOffTheNormalRange(t *testing.T) {
	eng := New("LSST")
	calls := CountTypedCalls(eng, "fluxToAbMag")
	off := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		1e-310, math.Nextafter(minNormal, 0), -math.SmallestNonzeroFloat64, -1e-30, -math.MaxFloat64}
	offInts := []int64{0, -1, math.MinInt64}
	var rows []Row
	for k, x := range off {
		rows = append(rows, Row{x, 1e-29, 0.0, 0.0, offInts[k%len(offInts)], int64(k)})
	}
	tbl := blockTable(t, "t", rows)
	d := tbl.data.Load()
	c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", blockSchema}}}
	for _, lhs := range []string{"fluxToAbMag(f)", "fluxToAbMag(i)", "fluxToAbMag(f) - fluxToAbMag(g)",
		"fluxToAbMag(g) - fluxToAbMag(f)", "fluxToAbMag(i) - fluxToAbMag(g)", "fluxToAbMag(g) - fluxToAbMag(i)"} {
		for _, shape := range guardedShapes(lhs, "24.1", "-5.25") {
			n, err := c.compile(mustParseExpr(t, shape))
			if err != nil {
				t.Fatalf("%s: %v", shape, err)
			}
			if n.block == nil {
				t.Fatalf("%s has no block form", shape)
			}
			all := make([]int32, d.n)
			for p := range all {
				all[p] = int32(p)
			}
			before := *calls
			n.block(d.cols, all)
			if got := *calls - before; got != int64(d.n) {
				t.Errorf("%s: %d calls over %d rows off the normal range, want one each", shape, got, d.n)
			}
		}
	}
}

// FuzzBlockFilter lets the fuzzer pick the constant and the cells, bit for
// bit, and the shape: whatever it picks, a block form keeps the rows the
// row form calls TRUE.
func FuzzBlockFilter(f *testing.F) {
	k := math.Pow(10, (24.1+48.6)/-2.5)
	f.Add(24.1, k, 3e-28, 10.0, 0.5, int64(3), uint16(0), uint8(0))
	f.Add(6.0, k*(1+guardShell), k, 359.99, 24.1, int64(math.MinInt64), uint16(40), uint8(3))
	f.Add(0.5, 90.0, 89.5, 0.01, -90.0, int64(1<<53+1), uint16(77), uint8(5))
	f.Add(math.NaN(), math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 91.0, int64(-1), uint16(100), uint8(255))
	f.Add(2.5, 1e-310, 3.7e-308, math.MaxFloat64, math.Inf(-1), int64(2), uint16(120), uint8(9))
	eng := New("LSST")
	f.Fuzz(func(t *testing.T, c, x1, x2, x3, x4 float64, i int64, shape uint16, nulls uint8) {
		r := rand.New(rand.NewSource(int64(shape)<<8 | int64(nulls))) // the subset blockFormAgrees draws
		// Statement text cannot spell a NaN or an infinity.
		lit := (&sqlparse.Literal{Val: c}).SQL()
		if c != c || math.IsInf(c, 0) {
			lit = "24.1"
		}
		var shapes []string
		for _, fam := range blockFamilies {
			shapes = append(shapes, guardedShapes(fam.lhs, lit, "(1 + "+lit+")")...)
			shapes = append(shapes, guardedShapes(fam.lhs, fmt.Sprint(i), lit)...)
		}
		// The cells as given, in every order, and NULL where the mask says.
		cells := []float64{x1, x2, x3, x4}
		var rows []Row
		for k := range cells {
			row := Row{cells[k], cells[(k+1)%4], cells[(k+2)%4], cells[(k+3)%4], i, i ^ int64(k)}
			for x := range row {
				if nulls>>(uint(k+x)%8)&1 == 1 && k > 0 {
					row[x] = nil
				}
			}
			rows = append(rows, row)
		}
		blockFormAgrees(t, eng, blockTable(t, "t", rows), shapes[int(shape)%len(shapes)], r)
	})
}

// blockScanEngine holds t_<n> for each size of boundaryRows — rows of
// blockRows, ids 0..n-1 in j, an index on i — and u, another 700 rows.
func blockScanEngine(t *testing.T, sizes []int) *Engine {
	e := New("db")
	db, _ := e.Database("db")
	r := rand.New(rand.NewSource(26))
	put := func(name string, n int, index bool) {
		rows := blockRows(r, n, []float64{24.1, 0.5, 3}, true)
		for k := range rows {
			rows[k][5] = int64(k) // j: the row's id
			if k%3 > 0 {
				rows[k][4] = int64(k % 7) // i: keys a dive finds hundreds of
			}
		}
		tbl := blockTable(t, name, rows)
		if index {
			if err := tbl.CreateIndex("i"); err != nil {
				t.Fatal(err)
			}
		}
		db.Put(tbl)
	}
	for _, n := range sizes {
		put(fmt.Sprintf("t_%d", n), n, true)
		put(fmt.Sprintf("plain_%d", n), n, false)
	}
	put("u", 700, false)
	e.RegisterFunc("test_fail", func(args []Value) (Value, error) {
		if args[0] == int64(600) {
			return nil, errors.New("test_fail: row 600")
		}
		return args[0], nil
	})
	return e
}

// TestScanBlocksAcrossBoundaries runs statements with block forms over
// tables of 0, 1, 511, 512, 513 and 1,025 rows — blocks of interruptCheckRows
// and the rows either side of them — and over index dives whose positions
// span blocks, and holds rows, their order, types, errors and ExecStats to
// the same statements with every filter run, and every aggregate taken, row
// by row.
func TestScanBlocksAcrossBoundaries(t *testing.T) {
	sizes := []int{0, 1, 511, 512, 513, 1025}
	e := blockScanEngine(t, sizes)
	statements := []string{
		"SELECT j FROM %s x WHERE f BETWEEN -1 AND 30",
		"SELECT COUNT(*), SUM(f), MIN(g), MAX(j) FROM %s x WHERE fluxToAbMag(f) < 24.1 AND i >= 2",
		"SELECT i, COUNT(*), SUM(j), MIN(f), MAX(h) FROM %s x WHERE g > 0 AND fluxToAbMag(f) - fluxToAbMag(g) BETWEEN -3 AND 3 GROUP BY i ORDER BY i",
		"SELECT j, f, i FROM %s x WHERE qserv_angSep(f, g, h, m) < 0.5 AND j %% 3 = 0 AND h != 3",
		"SELECT j FROM %s x WHERE h < 3 AND j %% 5 = 1 AND i < 5 LIMIT 100",
		"SELECT j, i FROM %s x WHERE i = 3 AND f < 24.1",                   // a dive, then a block form
		"SELECT j FROM %s x WHERE f > 0 AND i IN (0, 1, 2, 3, 4, 5, 6, 7)", // a dive over hundreds of rows
		"SELECT j FROM %s x WHERE g >= -90 AND i = 6 AND m <= 90",
		"SELECT j FROM %s x WHERE f > -1e300 AND test_fail(j) >= 0", // fails at row 600, in the second block
		"SELECT a.j, b.j FROM %s a, u b WHERE a.f < 3 AND b.i = 2 AND a.j = b.j",
		"SELECT DISTINCT i FROM %s x WHERE i BETWEEN 1 AND 5 ORDER BY i DESC",
		"SELECT COUNT(*) FROM %s x WHERE i < 3 AND i > 1 AND i = 2",
		// Folded aggregates: over a dive, whose positions come in runs of
		// one key, and over a scan whose keys change every few rows, NULL
		// keys among them.
		"SELECT i, f, COUNT(*), SUM(h), MIN(f), MAX(g), AVG(j) FROM %s x WHERE i IN (6, 0, 3, 1) GROUP BY i",
		"SELECT i, j, COUNT(*), COUNT(f), SUM(f), MIN(h), MAX(j), AVG(g) FROM %s x WHERE m > -1e300 GROUP BY i",
	}
	db, _ := e.Database("db")
	run := func(sel *sqlparse.Select, names []string) string {
		var res *Result
		var err error
		if names == nil {
			res, err = e.ExecuteStmt(sel)
		} else {
			tables := make([]*Table, len(names))
			for i, name := range names {
				if tables[i], err = db.Table(name); err != nil {
					t.Fatal(err)
				}
			}
			var p *Prepared
			if p, err = e.Prepare(sel, nil); err == nil {
				res, err = p.Run(tables, ExecOptions{})
			}
		}
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v %v %+v\n%s", res.Cols, res.Types, res.Stats, render(res))
	}
	dives := 0
	for _, n := range sizes {
		for _, sql := range statements {
			for _, table := range []string{"t_%d", "plain_%d"} {
				name := fmt.Sprintf(table, n)
				sel := mustParse(t, fmt.Sprintf(sql, name))
				// Over the indexed table, and prepared there but run over the
				// one without the index: the dive's conjunct goes back into its
				// WHERE slot, before or after the block forms.
				renamed := []string{fmt.Sprintf("plain_%d", n), "u"}[:len(sel.From)]
				for _, names := range [][]string{nil, renamed} {
					got := run(sel, names)
					var want string
					withBlockFormsOff(func() { want = run(sel, names) })
					if got != want {
						t.Fatalf("%s over %v:\nblock forms:\n%s\nrow by row:\n%s", sel.SQL(), names, got, want)
					}
					if strings.Contains(got, "RandReads:0 ") {
						continue
					}
					dives++
				}
			}
		}
	}
	if dives < 20 {
		t.Errorf("%d runs dove into an index: too few to have tested dives", dives)
	}
}

// TestBlockFormsLeadOnly: only the leading run of conjuncts with a block
// form runs a block at a time. Behind a conjunct without one, a conjunct of
// a block-form shape runs row by row, interleaved with it; in front of it,
// over the whole block first.
func TestBlockFormsLeadOnly(t *testing.T) {
	e := New("db")
	db, _ := e.Database("db")
	k := math.Pow(10, (24.1+48.6)/-2.5)
	rows := make([]Row, 40)
	for i := range rows {
		rows[i] = Row{k, 0.0, 0.0, 0.0, int64(i), int64(i)} // every flux on the threshold: the call is made
	}
	db.Put(blockTable(t, "t", rows))
	var log strings.Builder
	e.RegisterFunc("test_log", func(args []Value) (Value, error) {
		log.WriteString("g")
		return args[0], nil
	})
	typed := e.funcs["fluxtoabmag"].typed
	call := typed.call
	typed.call = func(a *[maxTypedArgs]float64) (float64, bool) {
		log.WriteString("f")
		return call(a)
	}
	for _, tc := range []struct{ where, want string }{
		{"test_log(j) >= 0 AND fluxToAbMag(f) <= 24.1", strings.Repeat("gf", 40)},
		{"fluxToAbMag(f) <= 24.1 AND test_log(j) >= 0", strings.Repeat("f", 40) + strings.Repeat("g", 40)},
	} {
		log.Reset()
		res, err := e.ExecuteStmt(mustParse(t, "SELECT COUNT(*) FROM t WHERE "+tc.where))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0] != int64(40) || log.String() != tc.want {
			t.Errorf("WHERE %s: %v rows, calls %s, want 40 rows, calls %s", tc.where, res.Rows[0][0], log.String(), tc.want)
		}
	}
}
