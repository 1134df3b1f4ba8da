package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlparse"
)

// The differential tests hold the compiled expressions to the reference
// evaluator (reference_test.go): every form a node can be consumed
// through — generic, truth, group key and the typed form of its kind —
// must agree with it on value, NULL-ness and error-ness, row by row.

// The two bindings expressions are checked against. Declared types and
// cells disagree on purpose in places: the tables convert them on the way
// in (TestInsertCoerces pins how), and the reference is fed the rows the
// tables hold. `s` is in both tables, so unqualified it is ambiguous.
var (
	diffT = Schema{
		{Name: "i", Type: sqlparse.TypeInt}, {Name: "f", Type: sqlparse.TypeFloat},
		{Name: "s", Type: sqlparse.TypeString}, {Name: "m", Type: sqlparse.TypeFloat},
		{Name: "x", Type: sqlparse.TypeInt},
	}
	diffU = Schema{
		{Name: "j", Type: sqlparse.TypeInt}, {Name: "g", Type: sqlparse.TypeFloat},
		{Name: "s", Type: sqlparse.TypeString},
	}
	diffTRows = []Row{
		{int64(1), 1.5, "abc", 2.5, int64(1)},
		{int64(0), 0.0, "", math.Copysign(0, -1), int64(2)},
		{nil, nil, nil, nil, nil},
		{int64(-7), -3.25, "12", int64(3), int64(0)},
		{int64(1<<53 + 1), float64(1 << 53), "1.5", "7", int64(-1)},
		{int64(math.MaxInt64), math.Inf(1), "NULL", true, int64(5)},
		{int64(math.MinInt64), math.Inf(-1), "a%", "-2.5", 0.5},
		{int64(2), math.NaN(), "ABC", 1e300, "9"},
		{true, int64(4), int64(12), math.NaN(), false},
		{int64(3), 3e-28, "beta", 5e-28, nil},
	}
	diffURows = []Row{
		{int64(2), 0.5, "abc"},
		{nil, nil, nil},
		{int64(1<<53 + 2), -1.0, int64(1)},
	}

	// diffTables holds the two row sets as tables t and u.
	diffTables = sync.OnceValue(func() [2]*Table {
		t, u := NewTable("t", diffT), NewTable("u", diffU)
		if err := errors.Join(t.Insert(diffTRows...), u.Insert(diffURows...)); err != nil {
			panic(err)
		}
		return [2]*Table{t, u}
	})
)

// exprTraps are the cases that have bitten this engine or are known to
// bite expression compilers; they seed the fuzz corpus and run as a test.
var exprTraps = []string{
	"x NOT IN (1, NULL)", "x IN (1, NULL)", "x NOT IN (1, 2)", "i IN (x, f, NULL)",
	"x % 0.5", "f % 0.5", "x % 0", "i % x", "x / 0", "f / 0.0", "i / x", "MOD(i, x)",
	"i = 9007199254740993", "i > 9007199254740992", "i < j", "i = f", "t.i >= u.j",
	"9007199254740993 = 9007199254740992.0", "i - 1 < i", "i + 1 > i", "i * 2 / 2 = i",
	"SQRT(-1)", "SQRT(f)", "SQRT(-1) IS NULL", "LOG10(0)", "LN(-1)", "POW(f, m)", "POW(s, NULL)",
	"-0.0", "-f", "-i", "-s", "- -x", "f = -0.0", "m < 0",
	"f < 1", "f <= 1", "f = f", "f != f", "f > m", "NOT (f > 1)", "f BETWEEN 0 AND 2", "f NOT BETWEEN m AND 2",
	"i BETWEEN 0 AND 2", "i BETWEEN 0 AND 2.5", "i BETWEEN f AND x", "x BETWEEN NULL AND 2",
	"t.s = 12", "t.s < 2", "t.s + 1", "t.s * f", "t.s = 'abc'", "t.s LIKE 'a%'", "t.s LIKE i", "m = '7'", "m + 1",
	"IFNULL(f, 0)", "IFNULL(NULL, x)", "GREATEST(i, f, x)", "LEAST(i, NULL)", "GREATEST(t.s, i)", "ROUND(f, x)",
	"nosuch", "t.nosuch", "nosuch.i", "s", "nosuchfunc(i)", "0 AND nosuchfunc(i)", "COUNT(i)", "ABS(*)",
	"ABS(i, f)", "fluxToAbMag()", "qserv_angSep(i, f, m)", "POW(i)",
	"fluxToAbMag(f)", "fluxToAbMag(m) - fluxToAbMag(f) > 0.5", "fluxToAbMag(i)", "fluxToAbMag(t.s)",
	"qserv_angSep(f, m, g, j) < 1", "qserv_angSep(f, t.s + 1, g, j)", "qserv_ptInSphericalBox(f, m, 0, 0, 10, 10) = 1",
	"qserv_ptInSphericalBox(f, m, 0, 0, 10, 10) AND x", "qserv_ptInSphericalCircle(f, m, g, j, 1)",
	"i > 1 AND x > 1", "NOT (i > 1 AND x > 1)", "(i > 1 AND x > 1) IS NULL", "i > 1 OR x > 1", "(i > 1 OR x > 1) IS NULL",
	"NULL AND 0", "NULL AND 1", "NULL OR 1", "NULL OR 0", "0 AND t.s + 1", "1 OR t.s + 1", "NULL AND t.s + 1",
	"f AND m", "NOT f", "NOT t.s", "x AND t.s", "i OR f", "(f * 2) AND 1", "NOT (i + x)",
	"f IS NULL", "f IS NOT NULL", "(f + m) IS NULL", "fluxToAbMag(f) IS NOT NULL", "(i + x) IS NULL",
	"TRUE", "FALSE = 0", "TRUE + TRUE", "(i > 0) + (x > 0)", "-(i > 0)", "(i > 0) = (x > 0)", "(f > 0) * 2.5",
}

func mustParseExpr(t testing.TB, text string) sqlparse.Expr {
	t.Helper()
	sel, err := sqlparse.ParseSelect("SELECT " + text + " FROM t")
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return sel.Items[0].Expr
}

// resolves is the reference's static check: what its Eval would reject
// wherever in the expression evaluation reached. The compiler must reject
// exactly these at compile time, reached or not.
func resolves(env *evalEnv, e sqlparse.Expr) error {
	var err error
	sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
		if err != nil {
			return false
		}
		switch v := n.(type) {
		case *sqlparse.ColumnRef:
			_, _, err = env.resolveColumn(v)
		case *sqlparse.Star:
			err = fmt.Errorf("star")
		case *sqlparse.FuncCall:
			if _, ok := env.funcs[strings.ToLower(v.Name)]; v.IsAggregate() || !ok {
				err = fmt.Errorf("function %s", v.Name)
			}
		}
		return true
	})
	return err
}

func sameValue(a, b Value) bool {
	x, xf := a.(float64)
	y, yf := b.(float64)
	if xf && yf {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	}
	return a == b
}

// checkExpr compares the compiled forms of e with the reference on every
// pairing of the differential tables' rows.
func checkExpr(t *testing.T, eng *Engine, e sqlparse.Expr) {
	t.Helper()
	checkExprOn(t, eng, e, diffTables())
}

// checkExprOn is checkExpr over any two tables, bound as t and u.
func checkExprOn(t *testing.T, eng *Engine, e sqlparse.Expr, tables [2]*Table) {
	t.Helper()
	tb, ub := &refBinding{name: "t", schema: tables[0].Schema}, &refBinding{name: "u", schema: tables[1].Schema}
	env := newEvalEnv([]*refBinding{tb, ub}, eng.funcs)
	c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", tables[0].Schema}, {"u", tables[1].Schema}}}
	n, cerr := c.compile(e)
	if rerr := resolves(env, e); rerr != nil || cerr != nil {
		if (rerr == nil) != (cerr == nil) {
			t.Errorf("%s: compile error %v, reference resolution error %v", e.SQL(), cerr, rerr)
		}
		return
	}
	generic, truth, key := n.valueForm(), n.truth(), n.key()
	// typed runs the typed form of the node's kind and boxes its answer.
	var typed valueFn
	switch n.kind {
	case kindInt:
		typed = boxed(n.intForm())
	case kindFloat:
		typed = boxed(n.floatForm())
	case kindString:
		typed = boxed(n.strForm())
	}
	td, ud := tables[0].data.Load(), tables[1].data.Load()
	fr := &frame{cur: []cursor{{cols: td.cols}, {cols: ud.cols}}}
	for ti := 0; ti < td.n; ti++ {
		for ui := 0; ui < ud.n; ui++ {
			tb.row, ub.row = tables[0].Row(ti), tables[1].Row(ui)
			fr.cur[0].pos, fr.cur[1].pos = ti, ui
			want, werr := env.Eval(e)
			for name, form := range map[string]valueFn{"generic": generic, "typed": typed} {
				if form == nil {
					continue
				}
				got, err := form(fr)
				if (err == nil) != (werr == nil) || (err == nil && !sameValue(got, want)) {
					t.Errorf("%s on %v %v: %s form = %#v, %v; reference = %#v, %v", e.SQL(), tb.row, ub.row, name, got, err, want, werr)
				}
			}
			v, null, err := truth(fr)
			switch {
			case (err == nil) != (werr == nil):
				t.Errorf("%s on %v %v: truth form error %v; reference error %v", e.SQL(), tb.row, ub.row, err, werr)
			case err == nil && (null != IsNull(want) || (!null && v != boolToInt(AsBool(want)))):
				t.Errorf("%s on %v %v: truth form = %d, null %v; reference = %#v", e.SQL(), tb.row, ub.row, v, null, want)
			}
			k, err := key(fr, nil)
			if (err == nil) != (werr == nil) || (err == nil && string(k) != string(appendKey(nil, want))) {
				t.Errorf("%s on %v %v: group key %q, %v; reference = %#v, %v", e.SQL(), tb.row, ub.row, k, err, want, werr)
			}
		}
	}
}

func TestCompiledExprTraps(t *testing.T) {
	eng := New("LSST")
	for _, text := range exprTraps {
		checkExpr(t, eng, mustParseExpr(t, text))
	}
}

// exprGen draws random expressions from the sqlparse grammar, biased
// towards the names, functions and constants of the differential tables.
type exprGen struct{ r *rand.Rand }

func (g exprGen) pick(opts ...string) string { return opts[g.r.Intn(len(opts))] }

func (g exprGen) leaf() sqlparse.Expr {
	switch g.r.Intn(10) {
	case 0:
		return &sqlparse.Literal{Val: []interface{}{nil, true, false, "abc", "12", "a%", ""}[g.r.Intn(7)]}
	case 1:
		return &sqlparse.Literal{Val: []int64{0, 1, 3, 2, 7, 1<<53 + 1, math.MaxInt64}[g.r.Intn(7)]}
	case 2:
		return &sqlparse.Literal{Val: []float64{0, 0.5, 1.5, 2.5, 1e300, 9007199254740992}[g.r.Intn(6)]}
	case 3:
		return &sqlparse.ColumnRef{Table: "t", Column: g.pick("i", "f", "s", "m", "x")}
	case 4:
		return &sqlparse.ColumnRef{Table: "u", Column: g.pick("j", "g", "s")}
	default:
		if g.r.Intn(40) == 0 { // unknown, ambiguous, unknown table
			return &sqlparse.ColumnRef{Table: g.pick("", "", "nosuch"), Column: g.pick("nosuch", "s")}
		}
		return &sqlparse.ColumnRef{Column: g.pick("i", "f", "m", "x", "j", "g")}
	}
}

func (g exprGen) expr(depth int) sqlparse.Expr {
	if depth <= 0 {
		return g.leaf()
	}
	sub := func() sqlparse.Expr { return g.expr(depth - 1 - g.r.Intn(2)) }
	switch g.r.Intn(12) {
	case 0, 1:
		return &sqlparse.BinaryExpr{Op: g.pick("+", "-", "*", "/", "%"), L: sub(), R: sub()}
	case 2, 3:
		return &sqlparse.BinaryExpr{Op: g.pick("=", "!=", "<", "<=", ">", ">="), L: sub(), R: sub()}
	case 4, 5:
		return &sqlparse.BinaryExpr{Op: g.pick("AND", "OR", "AND", "OR", "LIKE"), L: sub(), R: sub()}
	case 6:
		return &sqlparse.UnaryExpr{Op: g.pick("-", "NOT"), X: sub()}
	case 7:
		return &sqlparse.BetweenExpr{X: sub(), Lo: sub(), Hi: sub(), Not: g.r.Intn(2) == 0}
	case 8:
		list := make([]sqlparse.Expr, 1+g.r.Intn(3))
		for i := range list {
			list[i] = sub()
		}
		return &sqlparse.InExpr{X: sub(), List: list, Not: g.r.Intn(2) == 0}
	case 9:
		return &sqlparse.IsNullExpr{X: sub(), Not: g.r.Intn(2) == 0}
	default:
		name := g.pick("fluxToAbMag", "fluxtoabmag", "qserv_angSep", "qserv_ptInSphericalBox", "qserv_ptInSphericalCircle",
			"ABS", "SQRT", "FLOOR", "LOG10", "POW", "ROUND", "GREATEST", "LEAST", "IFNULL", "MOD")
		if g.r.Intn(30) == 0 {
			name = g.pick("nosuchfunc", "SUM")
		}
		arity := map[string]int{"qserv_angSep": 4, "qserv_ptInSphericalBox": 6, "qserv_ptInSphericalCircle": 5,
			"POW": 2, "GREATEST": 3, "LEAST": 2, "IFNULL": 2, "MOD": 2}[name]
		if arity == 0 {
			arity = 1
		}
		if g.r.Intn(12) == 0 {
			arity = g.r.Intn(4) // wrong on purpose, most of the time
		}
		args := make([]sqlparse.Expr, arity)
		for i := range args {
			args[i] = sub()
		}
		return sqlparse.NewFuncCall(name, args...)
	}
}

// TestCompiledExprRandom is the seeded, repeatable share of the fuzzing:
// the same few thousand generated expressions on every run.
func TestCompiledExprRandom(t *testing.T) {
	eng := New("LSST")
	g := exprGen{rand.New(rand.NewSource(13))}
	for i := 0; i < 4000 && !t.Failed(); i++ {
		e := g.expr(1 + i%4)
		checkExpr(t, eng, e)
		// The deparsed text must mean the same expression: this is how
		// chunk statements reach a worker.
		checkExpr(t, eng, mustParseExpr(t, e.SQL()))
	}
}

// FuzzCompiledExpr lets the fuzzer write the expression text. `make
// fuzz-smoke` runs it for ten seconds beside the decoder targets.
func FuzzCompiledExpr(f *testing.F) {
	for _, text := range exprTraps {
		f.Add(text)
	}
	eng := New("LSST")
	f.Fuzz(func(t *testing.T, text string) {
		sel, err := sqlparse.ParseSelect("SELECT " + text + " FROM t")
		if err != nil {
			return
		}
		for _, it := range sel.Items {
			checkExpr(t, eng, it.Expr)
		}
		if sel.Where != nil {
			checkExpr(t, eng, sel.Where)
		}
	})
}

// diveEngine holds the well-typed tables TestIndexDiveSameAnswers runs
// against, with or without their indexes.
func diveEngine(t *testing.T, indexed bool) *Engine {
	e := New("LSST")
	mustExec(t, e, "CREATE TABLE t (i BIGINT, f DOUBLE, s VARCHAR, m DOUBLE, x BIGINT)")
	mustExec(t, e, `INSERT INTO t VALUES (1, 1.5, 'abc', 2.5, 1), (0, 0.0, '', -0.0, 2), (NULL, NULL, NULL, NULL, NULL),
		(-7, -3.25, '12', 3, 0), (2, 0.5, 'ABC', 1e300, 7), (3, 3e-28, 'beta', 5e-28, NULL), (2, 2.0, 'a%', 7, 2)`)
	mustExec(t, e, "CREATE TABLE u (j BIGINT, g DOUBLE, s VARCHAR)")
	mustExec(t, e, "INSERT INTO u VALUES (2, 0.5, 'abc'), (NULL, NULL, NULL), (1, -1.0, '1'), (3, 2.0, 'beta')")
	if indexed {
		mustExec(t, e, "CREATE INDEX ti ON t (i)")
		mustExec(t, e, "CREATE INDEX tx ON t (x)")
		mustExec(t, e, "CREATE INDEX uj ON u (j)")
	}
	return e
}

// TestIndexDiveSameAnswers holds the statement planner to itself: an index
// only changes how rows are found, so random WHERE clauses — half of them
// led by a conjunct of the shape the dive planner looks for, with constant
// and row-reading operands alike — must select the same rows with the
// indexes as without, and must never take the engine down.
func TestIndexDiveSameAnswers(t *testing.T) {
	indexed, plain := diveEngine(t, true), diveEngine(t, false)
	g := exprGen{rand.New(rand.NewSource(7))}
	for n := 0; n < 6000; n++ {
		where := g.expr(1 + n%4)
		if n%2 == 0 {
			col := &sqlparse.ColumnRef{Column: g.pick("i", "x", "j")}
			operand := func() sqlparse.Expr { return g.expr(g.r.Intn(3)) }
			var lead sqlparse.Expr
			switch g.r.Intn(3) {
			case 0:
				lead = &sqlparse.BinaryExpr{Op: "=", L: col, R: operand()}
			case 1:
				lead = &sqlparse.BinaryExpr{Op: "=", L: operand(), R: col}
			default:
				lead = &sqlparse.InExpr{X: col, List: []sqlparse.Expr{operand(), operand()}}
			}
			where = &sqlparse.BinaryExpr{Op: "AND", L: lead, R: where}
		}
		sql := "SELECT COUNT(*), SUM(t.i), SUM(t.x), SUM(u.j) FROM " + g.pick("t, u", "u, t") + " WHERE " + where.SQL()
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		// An error is a row's to raise, and the two plans read different
		// rows: only answers are compared.
		got, err := indexed.ExecuteStmt(sel)
		if err != nil {
			continue
		}
		want, err := plain.ExecuteStmt(sel)
		if err != nil {
			continue
		}
		if !slices.Equal(got.Rows[0], want.Rows[0]) {
			t.Errorf("%s: %v with the indexes, %v without", sql, got.Rows[0], want.Rows[0])
		}
	}
}

// TestKleeneLogic: AND / OR used to collapse UNKNOWN to FALSE, so NOT
// over them resurrected rows and IS NULL over them never matched. The
// oracle shares the engine, so only a test that knows the answer sees it.
func TestKleeneLogic(t *testing.T) {
	e := New("test")
	mustExec(t, e, "CREATE TABLE t (a BIGINT, b BIGINT)")
	mustExec(t, e, "INSERT INTO t VALUES (NULL, 5), (0, 5), (3, 5)")
	for _, tc := range []struct {
		where string
		want  string // the a column of the rows returned
	}{
		{"NOT (a > 1 AND b > 1)", "[0]"},
		{"(a > 1 AND b > 1) IS NULL", "[<nil>]"},
		{"NOT (a > 1 OR b > 9)", "[0]"},
		{"(a > 1 OR b > 9) IS NULL", "[<nil>]"},
		// FALSE AND NULL is FALSE, TRUE OR NULL is TRUE: the NULL row decides.
		{"NOT (a > 1 AND b > 9)", "[<nil> 0 3]"},
		{"a > 1 OR b > 1", "[<nil> 0 3]"},
	} {
		res := mustQuery(t, e, "SELECT a FROM t WHERE "+tc.where)
		var got []Value
		for _, r := range res.Rows {
			got = append(got, r[0])
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("WHERE %s returned a = %v, want %s", tc.where, got, tc.want)
		}
	}
}

// ---------- guarded comparisons ----------
//
// A guard decides a comparison without the call, so these tests hold every
// shape a guard serves to the reference, which always makes the call, on
// the cells where the two could part: the edges of each guard's shell and
// the cells its domain excludes.

var (
	guardT = Schema{{Name: "f", Type: sqlparse.TypeFloat}, {Name: "m", Type: sqlparse.TypeFloat}}
	guardU = Schema{{Name: "g", Type: sqlparse.TypeFloat}, {Name: "h", Type: sqlparse.TypeFloat}}
)

func guardTables(t testing.TB, tRows, uRows []Row) [2]*Table {
	t.Helper()
	tt, tu := NewTable("t", guardT), NewTable("u", guardU)
	if err := errors.Join(tt.Insert(tRows...), tu.Insert(uRows...)); err != nil {
		t.Fatal(err)
	}
	return [2]*Table{tt, tu}
}

// guardedShapes spells a call against constants in every shape the
// compiler guards: the six operators with the constant on either side,
// BETWEEN and NOT BETWEEN (and BETWEEN with its bounds the wrong way round).
func guardedShapes(call, c, c2 string) []string {
	var out []string
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		out = append(out, call+" "+op+" "+c, c+" "+op+" "+call)
	}
	return append(out, call+" BETWEEN "+c+" AND "+c2, call+" NOT BETWEEN "+c+" AND "+c2, call+" BETWEEN "+c2+" AND "+c)
}

// around returns each x with its two neighbouring floats.
func around(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	return out
}

// shellCells are the cells a flux guard with threshold k could get wrong:
// k, the two edges of its shell, the neighbours of all three, and cells
// clear of the shell on both sides.
func shellCells(k float64) []float64 {
	return append(around(k, k*(1-guardShell), k*(1+guardShell)), k*(1-2*guardShell), k*(1+2*guardShell), k/2, 2*k)
}

// outOfDomain are the cells no flux guard may decide.
var outOfDomain = []Value{nil, 0.0, math.Copysign(0, -1), -1e-30, math.SmallestNonzeroFloat64, 1e-310,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}

func rowsOf(col int, width int, cells []Value) []Row {
	rows := make([]Row, len(cells))
	for i, c := range cells {
		rows[i] = make(Row, width)
		rows[i][col] = c
	}
	return rows
}

func boxFloats(dst []Value, xs []float64) []Value {
	for _, x := range xs {
		dst = append(dst, x)
	}
	return dst
}

// guardConstants are the constants the flux shapes are checked against, as
// text: literals (an integer among them), constant expressions the compiler
// folds, thresholds at the ends of the float range — for 720 the threshold
// is barely a normal number, for 730 and -830 it under- and overflows and
// no guard is built — and operands no guard takes: NULL, a string, a column.
var guardConstants = [][2]string{
	{"24.1", "25.6"}, {"16", "30.000001"}, {"-5.25", "(20 + 4.1)"}, {"0", "ABS(-0.5)"}, {"-ABS(2)", "POW(2, 3)"},
	{"720", "730"}, {"-830", "24.1"}, {"NULL", "24.1"}, {"'24.1'", "25"}, {"m", "25"}, {"24.1", "m"},
}

// constantValue evaluates a guardConstants text that is a number.
func constantValue(t *testing.T, eng *Engine, text string) (float64, bool) {
	c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", guardT}, {"u", guardU}}}
	n, err := c.compile(mustParseExpr(t, text))
	if err != nil {
		t.Fatal(err)
	}
	return n.constFloat()
}

// TestGuardedFluxExact: fluxToAbMag(x) against c, and the difference of two
// against c, in every guarded shape.
func TestGuardedFluxExact(t *testing.T) {
	eng := New("LSST")
	for _, cc := range guardConstants {
		// single: the thresholds of both constants; pair: those thresholds
		// times each second flux.
		fCells, gCells := slices.Clone(outOfDomain), slices.Clone(outOfDomain)
		// 2e-308, 1e-310 and the float below minNormal are subnormal, where
		// math.Log10 is off in the second decimal; k times 1e308 leaves the
		// normal range for most k.
		seconds := []float64{3e-28, 1e-30, 7.7e-29, 2.5e-308, 1e300, 2e-308,
			minNormal, math.Nextafter(minNormal, 0), 1e-310, 1e308}
		gCells = boxFloats(gCells, seconds)
		for _, text := range cc {
			c, ok := constantValue(t, eng, text)
			if !ok {
				c = 24.1 // not a guarded constant: any cells will do
			}
			fCells = boxFloats(fCells, shellCells(math.Pow(10, (c+48.6)/-2.5)))
			for _, x2 := range seconds {
				fCells = boxFloats(fCells, shellCells(math.Pow(10, c/-2.5)*x2))
			}
		}
		tRows := rowsOf(0, 2, fCells)
		for i := range tRows {
			tRows[i][1] = 24.0 + float64(i%3) // m, for the shapes that compare with a column
		}
		single := guardTables(t, tRows, []Row{{1.0, 1.0}})
		pair := guardTables(t, tRows, rowsOf(0, 2, gCells))
		for _, shape := range guardedShapes("fluxToAbMag(f)", cc[0], cc[1]) {
			checkExprOn(t, eng, mustParseExpr(t, shape), single)
		}
		for _, shape := range guardedShapes("fluxToAbMag(f) - fluxToAbMag(g)", cc[0], cc[1]) {
			checkExprOn(t, eng, mustParseExpr(t, shape), pair)
		}
	}
}

// TestGuardedAngSepExact: qserv_angSep (and its scisql alias) against r in
// every guarded shape, over declinations on and off the sphere, the RA
// wrap, and declination differences of exactly r and an ulp either side.
func TestGuardedAngSepExact(t *testing.T) {
	eng := New("LSST")
	ras1, ras2 := []Value{359.99, 10.0, nil, math.NaN()}, []Value{0.01, 10.0, math.Inf(1)}
	for _, rr := range [][2]string{{"0.5", "1.25"}, {"0.02", "(0.01 * 3)"}, {"0", "1e-12"}, {"-1", "90"}, {"179", "180"}, {"181", "NULL"}, {"1e-300", "h"}} {
		decl1 := []Value{nil, 90.0, -90.0, 91.0, -91.0, math.NaN(), 0.0, 10.25, 89.75}
		decl2 := []Value{nil, 0.0, 10.25, -90.0, 90.0, 91.0, math.NaN(), -89.75}
		for _, text := range rr {
			r, ok := constantValue(t, eng, text)
			if !ok || math.Abs(r) > 180 {
				continue
			}
			far := r*(1+guardShell) + guardShell
			for _, base := range []float64{0, 10.25, -90} {
				for _, d := range around(r, far) {
					decl1 = append(decl1, base+d, base-d)
				}
			}
		}
		var tRows, uRows []Row
		for _, d := range decl1 {
			for _, ra := range ras1 {
				tRows = append(tRows, Row{ra, d})
			}
		}
		for _, d := range decl2 {
			for _, ra := range ras2 {
				uRows = append(uRows, Row{ra, d})
			}
		}
		tables := guardTables(t, tRows, uRows)
		for _, call := range []string{"qserv_angSep(f, m, g, h)", "scisql_angSep(g, h, f, m)"} {
			for _, shape := range guardedShapes(call, rr[0], rr[1]) {
				checkExprOn(t, eng, mustParseExpr(t, shape), tables)
			}
		}
	}
}

// TestGuardsAreBuilt: the exactness tests pass as well without a guard, so
// this one checks that every shape has one. It counts the calls made
// through the typed entries: none for a row clear of the shell, one for a
// row on the threshold.
func TestGuardsAreBuilt(t *testing.T) {
	eng := New("LSST")
	flux, sep := CountTypedCalls(eng, "fluxToAbMag"), CountTypedCalls(eng, "qserv_angSep")
	k := math.Pow(10, (24.1+48.6)/-2.5)
	k2 := math.Pow(10, 24.1/-2.5)
	// Row 0 is clear of every threshold used below, row 1 is on it: as a
	// flux for the single shapes, as the first of a pair against u's 3e-28,
	// and as a position against u's.
	tables := guardTables(t, []Row{{2 * k, 40.0}, {k, 10.5}, {3 * k2 * 3e-28, 40.0}, {k2 * 3e-28, 10.5}}, []Row{{3e-28, 10.0}})
	for _, tc := range []struct {
		call, c, c2 string
		calls       *int64
		clear, on   int // rows of t
	}{
		{"fluxToAbMag(f)", "24.1", "(24 + 0.1)", flux, 0, 1},
		{"fluxToAbMag(f) - fluxToAbMag(g)", "24.1", "24.1", flux, 2, 3},
		{"qserv_angSep(f, m, g, h)", "0.5", "(1 / 2)", sep, 0, 1},
		{"scisql_angSep(f, m, g, h)", "0.5", "0.5", sep, 0, 1},
	} {
		for _, shape := range guardedShapes(tc.call, tc.c, tc.c2) {
			c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", guardT}, {"u", guardU}}}
			n, err := c.compile(mustParseExpr(t, shape))
			if err != nil {
				t.Fatal(err)
			}
			truth := n.truth()
			fr := &frame{cur: []cursor{{cols: tables[0].data.Load().cols}, {cols: tables[1].data.Load().cols}}}
			for _, at := range []struct{ row, want int }{{tc.clear, 0}, {tc.on, 1}} {
				before := *tc.calls
				fr.cur[0].pos = at.row
				if _, _, err := truth(fr); err != nil {
					t.Fatal(err)
				}
				if got := int(*tc.calls - before); got != at.want {
					t.Errorf("%s on row %d of t: %d calls of the function, want %d", shape, at.row, got, at.want)
				}
			}
		}
	}
}

// guardBorneOut asks fn's guard for c about args and, where it answers,
// holds the function to the answer. It reports whether the guard answered.
func guardBorneOut(t *testing.T, fn *typedFunc, c float64, args [maxTypedArgs]float64) bool {
	g, ok := fn.guard(c)
	if !ok {
		return false
	}
	v := g.decide(&args)
	if v == undecided {
		return false
	}
	y, null := fn.call(&args)
	if null || (v == below) != (y < c) || (v == above) != (y > c) {
		t.Fatalf("the guard of an arity-%d entry for c = %v on %v answers %d; the function returns %v, null %v",
			fn.arity, c, args[:fn.arity], v, y, null)
	}
	return true
}

// TestGuardNeverDisagrees sweeps each guard over seeded random cells placed
// at every scale of distance from its threshold, from the last bit to well
// clear of the shell: wherever the guard answers, the function must say the
// same. (Inside the shell it does not answer, and the sweep counts that it
// does outside: a guard that never answered would pass.)
func TestGuardNeverDisagrees(t *testing.T) {
	eng := New("LSST")
	rng := rand.New(rand.NewSource(16))
	// delta draws +-10^u, u uniform in [-16, -6].
	delta := func() float64 {
		d := math.Pow(10, -16+10*rng.Float64())
		if rng.Intn(2) == 0 {
			return -d
		}
		return d
	}
	check := func(t *testing.T, fn *typedFunc, c float64, args [maxTypedArgs]float64, decided *int) {
		if guardBorneOut(t, fn, c, args) {
			*decided++
		}
	}
	// fluxToAbMag falls with its argument; a log-affine builtin that rises
	// takes the other branch of the same guard.
	eng.registerLogAffine("test_rising", 2, 1)
	const cells = 1 << 20
	for _, la := range []struct {
		name string
		a, b float64
	}{{"fluxToAbMag", -2.5, -48.6}, {"test_rising", 2, 1}} {
		fn := eng.funcs[lower(la.name)].typed
		t.Run(la.name, func(t *testing.T) {
			decided := 0
			for i := 0; i < cells/2; i++ {
				c := 10 + 25*rng.Float64()
				if i%8 == 0 {
					c = -600 + 1200*rng.Float64() // thresholds over the whole float range
				}
				k := math.Pow(10, (c-la.b)/la.a)
				check(t, fn, c, [maxTypedArgs]float64{k * (1 + delta())}, &decided)
			}
			if decided < cells/8 {
				t.Errorf("the guard decided %d of %d cells", decided, cells/2)
			}
		})
		t.Run(la.name+" difference", func(t *testing.T) {
			decided := 0
			for i := 0; i < cells/2; i++ {
				c := -9 + 18*rng.Float64()
				x2 := math.Pow(10, -33+6*rng.Float64())
				if i%8 == 0 {
					c, x2 = -500+1000*rng.Float64(), math.Pow(10, -300+600*rng.Float64())
				}
				k := math.Pow(10, c/la.a)
				check(t, fn.minus, c, [maxTypedArgs]float64{k * x2 * (1 + delta()), x2}, &decided)
			}
			if decided < cells/8 {
				t.Errorf("the guard decided %d of %d cells", decided, cells/2)
			}
		})
	}
	t.Run("angSep", func(t *testing.T) {
		sep, decided := eng.funcs["qserv_angsep"].typed, 0
		for i := 0; i < cells/4; i++ {
			decl1, decl2 := -90+180*rng.Float64(), -90+180*rng.Float64()
			switch i % 4 {
			case 0: // close pairs, the near-neighbour regime
				decl2 = decl1 + math.Pow(10, -6+6*rng.Float64())
			case 1: // pole to pole, where the haversine formula is worst
				decl1, decl2 = 90-math.Pow(10, -9+9*rng.Float64()), -90+math.Pow(10, -9+9*rng.Float64())
			}
			decl2 = max(-90, min(90, decl2))
			// r at every scale of distance below and above the declination
			// difference (less the guard's absolute margin).
			r := (math.Abs(decl1-decl2) - guardShell) / (1 + guardShell) * (1 - delta())
			ra1, ra2 := 360*rng.Float64(), 360*rng.Float64()
			if i%3 == 0 {
				ra2 = ra1 // the bound is met when the RA term vanishes
			}
			check(t, sep, r, [maxTypedArgs]float64{ra1, decl1, ra2, decl2}, &decided)
		}
		if decided < cells/32 {
			t.Errorf("the guard decided %d of %d cells", decided, cells/4)
		}
	})
}

// shellEdges are the cells at which a log-affine guard's value turns: its
// threshold, for a pair k times the second cell x2, the two edges of the
// shell around it, and the floats either side of each.
func shellEdges(g guard, x2 float64) []float64 {
	if g.pair {
		kx2 := g.k * x2
		return around(kx2*(1-guardShell), kx2, kx2*(1+guardShell))
	}
	return around(g.lo, g.k, g.hi)
}

// TestGuardValueAtShellEdges holds the log-affine guard's value to the
// function where it turns: on the floats either side of each shell edge, for
// thresholds from the bottom to the top of the normal range, rising and
// falling, single and pair, and for the pair on second cells that are
// normal, the last normal, subnormal, zero, negative, huge, infinite or NaN.
// Just outside the shell the guard must answer, and the function agree; on
// the edges and inside it must not; for a cell that is not a positive normal
// number, or a product with k that is not one, it never answers. The
// block forms read the same value, and are held to the row forms on the same
// cells.
func TestGuardValueAtShellEdges(t *testing.T) {
	eng := New("LSST")
	eng.registerLogAffine("test_rising", 2, 1)
	seconds := []float64{3e-28, 1, 1e200, minNormal, math.Nextafter(minNormal, 0), 1e-310,
		0, -1e-30, math.MaxFloat64, math.Inf(1), math.NaN()}
	var rows []Row
	for _, la := range []struct {
		name string
		a, b float64
	}{{"fluxToAbMag", -2.5, -48.6}, {"test_rising", 2, 1}} {
		fn := eng.funcs[lower(la.name)].typed
		// The last two put k at 10^-307.6 and 10^307.6, the ends of the range
		// a guard is built for.
		for _, c := range []float64{24.1, -5.25, 0, 6, 700, -700, -307.6*la.a + la.b, 307.6*la.a + la.b} {
			for _, entry := range []*typedFunc{fn, fn.minus} {
				g, ok := entry.guard(c)
				if !ok {
					continue
				}
				for _, x2 := range seconds {
					if !g.pair && x2 != 1 {
						continue
					}
					kx2 := g.k * x2
					normal := x2 >= minNormal && x2 <= math.MaxFloat64 && kx2 >= minNormal && kx2 <= math.MaxFloat64/2
					edges := shellEdges(g, x2)
					for i, x := range edges {
						args := [maxTypedArgs]float64{x, x2}
						got := g.decide(&args)
						want := undecided
						switch {
						case !normal || !(x >= minNormal && x <= math.MaxFloat64):
						case i == 0:
							want = g.under
						case i == len(edges)-1:
							want = g.over
						}
						if got != want {
							t.Fatalf("%s guard for c = %v, pair %v, x2 = %v: verdict %d on %v (edge %d), want %d", la.name, c, g.pair, x2, got, x, i, want)
						}
						guardBorneOut(t, entry, c, args)
						if la.name == "fluxToAbMag" && (c == 24.1 || c == 6) {
							rows = append(rows, Row{x, x2, 0.0, 0.0, int64(0), int64(0)})
						}
					}
				}
			}
		}
	}
	tbl := blockTable(t, "t", rows)
	r := rand.New(rand.NewSource(29))
	for _, c := range []string{"24.1", "6"} {
		for _, call := range []string{"fluxToAbMag(f)", "fluxToAbMag(f) - fluxToAbMag(g)"} {
			for _, shape := range guardedShapes(call, c, "(1 + "+c+")") {
				if !blockFormAgrees(t, eng, tbl, shape, r) {
					t.Fatalf("%s has no block form", shape)
				}
			}
		}
	}
}

// FuzzGuardedCompare lets the fuzzer pick the constant and the cells, bit
// for bit: whatever each guard answers about them the function must bear
// out — at the cells picked, and at the edges of the log-affine guard's
// shell for that constant (and, for the pair, that second cell) — and a
// compiled comparison must answer as the reference does.
func FuzzGuardedCompare(f *testing.F) {
	k := math.Pow(10, (24.1+48.6)/-2.5)
	f.Add(24.1, k, 3e-28, 10.0, 0.0, uint8(2))
	f.Add(24.1, k*(1+guardShell), k, 359.99, 24.1, uint8(0))
	f.Add(0.5, 90.0, 89.5, 0.01, -90.0, uint8(5))
	f.Add(math.NaN(), math.Inf(1), -0.0, math.SmallestNonzeroFloat64, 91.0, uint8(7))
	f.Add(720.0, 3.7e-308, 1e-310, math.MaxFloat64, 179.5, uint8(13))
	eng := New("LSST")
	flux, sep := eng.funcs["fluxtoabmag"].typed, eng.funcs["qserv_angsep"].typed
	f.Fuzz(func(t *testing.T, c, x1, x2, x3, x4 float64, shape uint8) {
		for _, fn := range []*typedFunc{flux, flux.minus, sep} {
			guardBorneOut(t, fn, c, [maxTypedArgs]float64{x1, x2, x3, x4})
		}
		for _, fn := range []*typedFunc{flux, flux.minus} {
			if g, ok := fn.guard(c); ok {
				for _, x := range shellEdges(g, x2) {
					guardBorneOut(t, fn, c, [maxTypedArgs]float64{x, x2})
				}
			}
		}
		// Statement text cannot spell a NaN or an infinity: such a constant
		// is checked at the guards alone, above.
		tables := guardTables(t, []Row{{x1, x2}}, []Row{{x3, x4}})
		lit := (&sqlparse.Literal{Val: c}).SQL()
		if c != c || math.IsInf(c, 0) {
			lit = "24.1"
		}
		for _, call := range []string{"fluxToAbMag(f)", "fluxToAbMag(f) - fluxToAbMag(g)", "qserv_angSep(f, m, g, h)"} {
			shapes := guardedShapes(call, lit, "(1 + "+lit+")")
			checkExprOn(t, eng, mustParseExpr(t, shapes[int(shape)%len(shapes)]), tables)
		}
	})
}
