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
// pairing of the two tables' rows.
func checkExpr(t *testing.T, eng *Engine, e sqlparse.Expr) {
	t.Helper()
	tb, ub := &refBinding{name: "t", schema: diffT}, &refBinding{name: "u", schema: diffU}
	env := newEvalEnv([]*refBinding{tb, ub}, eng.funcs)
	c := &compiler{funcs: eng.funcs, bindings: []binding{{"t", diffT}, {"u", diffU}}}
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
	tables := diffTables()
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
