package sqlparse

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func mustSelect(t *testing.T, src string) *Select {
	t.Helper()
	sel, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("ParseSelect(%q): %v", src, err)
	}
	return sel
}

func TestLexBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, `weird col` FROM t WHERE x >= 1.5e-3 -- trailing\n AND s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "weird col", "FROM", "t", "WHERE", "x", ">=", "1.5e-3", "AND", "s", "=", "it's", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[3] != TokIdent {
		t.Error("backquoted identifier should be TokIdent")
	}
	if kinds[13] != TokString {
		t.Error("quoted text should be TokString")
	}
}

func TestLexBlockComment(t *testing.T) {
	toks, err := Tokenize("SELECT /* hi\nthere */ 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3 (SELECT, 1, EOF)", len(toks))
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "`unterminated", "SELECT #"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestParsePaperLV1(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM Object WHERE objectId = 12345")
	if len(sel.Items) != 1 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if _, ok := sel.Items[0].Expr.(*Star); !ok {
		t.Error("expected star item")
	}
	if sel.From[0].Table != "Object" {
		t.Errorf("table = %q", sel.From[0].Table)
	}
	be, ok := sel.Where.(*BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("where = %#v", sel.Where)
	}
}

func TestParsePaperLV2(t *testing.T) {
	sel := mustSelect(t, `SELECT taiMidPoint, fluxToAbMag(psfFlux),
		fluxToAbMag(psfFluxErr), ra, decl
		FROM Source WHERE objectId = 42`)
	if len(sel.Items) != 5 {
		t.Fatalf("items = %d, want 5", len(sel.Items))
	}
	fc, ok := sel.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "fluxToAbMag" {
		t.Fatalf("item 1 = %#v", sel.Items[1].Expr)
	}
	if fc.IsAggregate() {
		t.Error("fluxToAbMag is not an aggregate")
	}
}

func TestParsePaperLV3(t *testing.T) {
	sel := mustSelect(t, `SELECT COUNT(*) FROM Object
		WHERE ra_PS BETWEEN 1 AND 2
		AND decl_PS BETWEEN 3 AND 4
		AND fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5
		AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN 0.3 AND 0.4`)
	fc, ok := sel.Items[0].Expr.(*FuncCall)
	if !ok || fc.Name != "COUNT" || !fc.IsAggregate() {
		t.Fatalf("item = %#v", sel.Items[0].Expr)
	}
	if _, ok := fc.Args[0].(*Star); !ok {
		t.Error("COUNT(*) argument should be Star")
	}
	// WHERE is a conjunction tree of BETWEENs.
	count := 0
	WalkExpr(sel.Where, func(e Expr) bool {
		if _, ok := e.(*BetweenExpr); ok {
			count++
		}
		return true
	})
	if count != 4 {
		t.Errorf("found %d BETWEENs, want 4", count)
	}
}

func TestParsePaperSHV1(t *testing.T) {
	sel := mustSelect(t, `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(-5,-5,5,-5)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`)
	if len(sel.From) != 2 {
		t.Fatalf("from = %d refs", len(sel.From))
	}
	if sel.From[0].Alias != "o1" || sel.From[1].Alias != "o2" {
		t.Errorf("aliases = %q, %q", sel.From[0].Alias, sel.From[1].Alias)
	}
	if sel.From[0].Name() != "o1" {
		t.Errorf("Name() = %q", sel.From[0].Name())
	}
	// Find the areaspec call.
	var area *FuncCall
	WalkExpr(sel.Where, func(e Expr) bool {
		if fc, ok := e.(*FuncCall); ok && fc.Name == "qserv_areaspec_box" {
			area = fc
		}
		return true
	})
	if area == nil || len(area.Args) != 4 {
		t.Fatalf("areaspec call missing or malformed: %#v", area)
	}
	if lit, ok := area.Args[0].(*Literal); !ok || lit.Val != int64(-5) {
		t.Errorf("negative literal folding failed: %#v", area.Args[0])
	}
}

func TestParsePaperSHV2Join(t *testing.T) {
	sel := mustSelect(t, `SELECT o.objectId, s.sourceId FROM Object o, Source s
		WHERE qserv_areaspec_box(224.1, -7.5, 237.1, 5.5)
		AND o.objectId = s.objectId
		AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045`)
	if len(sel.From) != 2 {
		t.Fatal("want 2 table refs")
	}
	cr, ok := sel.Items[0].Expr.(*ColumnRef)
	if !ok || cr.Table != "o" || cr.Column != "objectId" {
		t.Errorf("qualified column parse: %#v", sel.Items[0].Expr)
	}
}

func TestParseInnerJoinDesugar(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM Object o JOIN Source s ON o.objectId = s.objectId WHERE s.ra > 1`)
	if len(sel.From) != 2 {
		t.Fatalf("from = %d", len(sel.From))
	}
	// Where must contain both the ON condition and the WHERE condition.
	sql := sel.Where.SQL()
	if !strings.Contains(sql, "objectId") || !strings.Contains(sql, "ra") {
		t.Errorf("desugared where = %s", sql)
	}
	// INNER JOIN spelling too.
	sel2 := mustSelect(t, `SELECT * FROM a INNER JOIN b ON a.x = b.x`)
	if len(sel2.From) != 2 {
		t.Error("INNER JOIN parse failed")
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	sel := mustSelect(t, `SELECT count(*) AS n, AVG(ra_PS), chunkId
		FROM Object GROUP BY chunkId ORDER BY n DESC, chunkId LIMIT 10`)
	if sel.Items[0].Alias != "n" {
		t.Errorf("alias = %q", sel.Items[0].Alias)
	}
	if len(sel.GroupBy) != 1 || len(sel.OrderBy) != 2 {
		t.Fatalf("group %d order %d", len(sel.GroupBy), len(sel.OrderBy))
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("order directions wrong")
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestParseDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT filterId FROM Source")
	if !sel.Distinct {
		t.Error("DISTINCT not parsed")
	}
	sel2 := mustSelect(t, "SELECT COUNT(DISTINCT objectId) FROM Source")
	fc := sel2.Items[0].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Error("COUNT(DISTINCT ...) not parsed")
	}
}

func TestParseImplicitAlias(t *testing.T) {
	sel := mustSelect(t, "SELECT ra_PS r FROM Object o")
	if sel.Items[0].Alias != "r" {
		t.Errorf("implicit column alias = %q", sel.Items[0].Alias)
	}
	if sel.From[0].Alias != "o" {
		t.Errorf("implicit table alias = %q", sel.From[0].Alias)
	}
}

func TestParseInAndIsNull(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4) AND c IS NULL AND d IS NOT NULL")
	var ins, nulls int
	WalkExpr(sel.Where, func(e Expr) bool {
		switch v := e.(type) {
		case *InExpr:
			ins++
			if v.Not && len(v.List) != 1 {
				t.Error("NOT IN list wrong")
			}
		case *IsNullExpr:
			nulls++
		}
		return true
	})
	if ins != 2 || nulls != 2 {
		t.Errorf("ins=%d nulls=%d", ins, nulls)
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT 1+2*3 FROM t")
	be := sel.Items[0].Expr.(*BinaryExpr)
	if be.Op != "+" {
		t.Fatalf("top op = %s", be.Op)
	}
	r := be.R.(*BinaryExpr)
	if r.Op != "*" {
		t.Errorf("mult should bind tighter: %s", sel.Items[0].Expr.SQL())
	}
	// AND binds tighter than OR.
	sel2 := mustSelect(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	top := sel2.Where.(*BinaryExpr)
	if top.Op != "OR" {
		t.Errorf("top logical op = %s", top.Op)
	}
}

func TestParseParens(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	top := sel.Where.(*BinaryExpr)
	if top.Op != "AND" {
		t.Errorf("parens ignored: top = %s", top.Op)
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE IF NOT EXISTS LSST.Object_1234 (objectId BIGINT, ra_PS DOUBLE, name VARCHAR(32))")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if !ct.IfNotExists || ct.DB != "LSST" || ct.Name != "Object_1234" {
		t.Errorf("create parse: %#v", ct)
	}
	if len(ct.Cols) != 3 || ct.Cols[0].Type != TypeInt || ct.Cols[1].Type != TypeFloat || ct.Cols[2].Type != TypeString {
		t.Errorf("cols: %#v", ct.Cols)
	}
}

func TestParseCreateTableAsSelect(t *testing.T) {
	st, err := Parse("CREATE TABLE r AS SELECT a, b FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.AsSelect == nil || len(ct.AsSelect.Items) != 2 {
		t.Errorf("as-select: %#v", ct)
	}
}

func TestParseDropInsert(t *testing.T) {
	st, err := Parse("DROP TABLE IF EXISTS tmp")
	if err != nil {
		t.Fatal(err)
	}
	if dt := st.(*DropTable); !dt.IfExists || dt.Name != "tmp" {
		t.Errorf("drop: %#v", dt)
	}
	st2, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st2.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Cols) != 2 {
		t.Errorf("insert: %#v", ins)
	}
	if ins.Rows[1][1].(*Literal).Val != nil {
		t.Error("NULL literal not parsed")
	}
}

func TestParseCreateIndex(t *testing.T) {
	st, err := Parse("CREATE INDEX idx_obj ON LSST.Object_77 (objectId)")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndex)
	if ci.Table != "Object_77" || ci.Col != "objectId" || ci.DB != "LSST" {
		t.Errorf("index: %#v", ci)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a BIGINT);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT -1",
		"FROBNICATE the database",
		"SELECT * FROM t; garbage",
		"SELECT a NOT 5 FROM t",
		"INSERT INTO t VALUES",
		"CREATE TABLE t (a FANCYTYPE)",
		"SELECT * FROM t WHERE a BETWEEN 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDeparseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM Object WHERE objectId = 12345",
		"SELECT AVG(uFlux_SG) FROM Object WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
		"SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId",
		"SELECT o.objectId, s.sourceId FROM Object o, Source s WHERE o.objectId = s.objectId",
		"SELECT taiMidPoint, fluxToAbMag(psfFlux) FROM Source WHERE objectId = 7 ORDER BY taiMidPoint DESC LIMIT 100",
		"SELECT DISTINCT a FROM t WHERE b IN (1, 2) AND c IS NOT NULL",
		"SELECT a - -1 FROM t WHERE NOT (x = 1 OR y = 2)",
		"SELECT `weird name`.`col umn` FROM `weird name`",
		"INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, NULL)",
		"CREATE TABLE x (a BIGINT, b DOUBLE, c VARCHAR)",
		"DROP TABLE IF EXISTS x",
	}
	for _, q := range queries {
		st1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		sql1 := st1.SQL()
		st2, err := Parse(sql1)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", sql1, q, err)
		}
		sql2 := st2.SQL()
		if sql1 != sql2 {
			t.Errorf("round trip not fixed-point:\n 1: %s\n 2: %s", sql1, sql2)
		}
	}
}

// TestDeparseRoundTripRandom generates random expression trees, deparses
// them, reparses, and checks the AST survives.
func TestDeparseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		if depth <= 0 {
			switch rng.Intn(4) {
			case 0:
				return &Literal{Val: int64(rng.Intn(1000) - 500)}
			case 1:
				return &Literal{Val: float64(rng.Intn(100)) + 0.5}
			case 2:
				return &Literal{Val: "s"}
			default:
				return &ColumnRef{Column: "c" + string(rune('a'+rng.Intn(26)))}
			}
		}
		switch rng.Intn(7) {
		case 0:
			return &BinaryExpr{Op: []string{"+", "-", "*", "/"}[rng.Intn(4)], L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return &BinaryExpr{Op: []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)], L: gen(depth - 1), R: gen(depth - 1)}
		case 2:
			return &BinaryExpr{Op: []string{"AND", "OR"}[rng.Intn(2)], L: gen(depth - 1), R: gen(depth - 1)}
		case 3:
			return &BetweenExpr{X: gen(depth - 1), Lo: gen(depth - 1), Hi: gen(depth - 1), Not: rng.Intn(2) == 0}
		case 4:
			return &InExpr{X: gen(depth - 1), List: []Expr{gen(depth - 1), gen(depth - 1)}, Not: rng.Intn(2) == 0}
		case 5:
			return NewFuncCall("fluxToAbMag", gen(depth-1))
		default:
			return &UnaryExpr{Op: "NOT", X: gen(depth - 1)}
		}
	}
	for i := 0; i < 300; i++ {
		e := gen(3)
		sel := &Select{Items: []SelectItem{{Expr: e}}, From: []TableRef{{Table: "t"}}, Limit: -1}
		sql := sel.SQL()
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("generated SQL unparseable: %s: %v", sql, err)
		}
		if got := st.SQL(); got != sql {
			t.Fatalf("round trip mismatch:\nout: %s\n in: %s", sql, got)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	sel := mustSelect(t, "SELECT AVG(x) FROM Object WHERE y BETWEEN 1 AND 2")
	c := sel.Clone()
	// Mutate the clone; original must be unchanged.
	c.Items[0].Expr.(*FuncCall).Name = "SUM"
	c.From[0].Table = "Object_55"
	c.Where.(*BetweenExpr).Not = true
	if sel.Items[0].Expr.(*FuncCall).Name != "AVG" {
		t.Error("clone shares select items")
	}
	if sel.From[0].Table != "Object" {
		t.Error("clone shares from refs")
	}
	if sel.Where.(*BetweenExpr).Not {
		t.Error("clone shares where tree")
	}
}

func TestRewriteExpr(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE Object.ra > 1 AND Object.decl < 2")
	out := RewriteExpr(sel.Where, func(e Expr) Expr {
		if cr, ok := e.(*ColumnRef); ok && cr.Table == "Object" {
			return &ColumnRef{Table: "Object_99", Column: cr.Column}
		}
		return e
	})
	if !strings.Contains(out.SQL(), "Object_99.ra") {
		t.Errorf("rewrite failed: %s", out.SQL())
	}
	// Original untouched.
	if strings.Contains(sel.Where.SQL(), "Object_99") {
		t.Error("rewrite mutated the input")
	}
}

func TestWalkStopsDescent(t *testing.T) {
	sel := mustSelect(t, "SELECT f(g(x)) FROM t")
	seen := []string{}
	WalkExpr(sel.Items[0].Expr, func(e Expr) bool {
		if fc, ok := e.(*FuncCall); ok {
			seen = append(seen, fc.Name)
			return fc.Name != "f" // stop below f
		}
		return true
	})
	if !reflect.DeepEqual(seen, []string{"f"}) {
		t.Errorf("walk did not stop: %v", seen)
	}
}

func TestColTypeParsing(t *testing.T) {
	for name, want := range map[string]ColType{
		"BIGINT": TypeInt, "int": TypeInt, "DOUBLE": TypeFloat,
		"float": TypeFloat, "VARCHAR": TypeString, "text": TypeString,
	} {
		got, err := ParseColType(name)
		if err != nil || got != want {
			t.Errorf("ParseColType(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseColType("GEOMETRY"); err == nil {
		t.Error("unknown type should fail")
	}
}

func BenchmarkParseLV3(b *testing.B) {
	src := `SELECT COUNT(*) FROM Object
		WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4
		AND fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseScriptTableExtents: ParseScript reads statements between any
// number of ';' separators, a last one without its own, and records where
// each FROM entry's table-name token is in the text; a script that does not
// lex, or runs two statements together, is an error.
func TestParseScriptTableExtents(t *testing.T) {
	src := "-- header\nSELECT a FROM db.`t_1` AS x, u y WHERE s = 'a;b' ; ;\n/* gap */ SELECT 2;SELECT 3 FROM v\n"
	stmts, err := ParseScript(src)
	if err != nil || len(stmts) != 3 {
		t.Fatalf("ParseScript: %d statements, %v", len(stmts), err)
	}
	for i, want := range [][]string{{"`t_1`", "u"}, nil, {"v"}} {
		from := stmts[i].(*Select).From
		if len(from) != len(want) {
			t.Fatalf("statement %d: %d FROM entries, want %d", i, len(from), len(want))
		}
		for k, tok := range want {
			if got := src[from[k].Pos:from[k].End]; got != tok {
				t.Errorf("statement %d: table token %d is %q, want %q", i, k, got, tok)
			}
		}
	}
	if _, err := ParseScript(src + "SELECT 'unterminated"); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Errorf("an unlexable tail: err = %v", err)
	}
	if _, err := ParseScript("SELECT 1 SELECT 2"); err == nil || !strings.Contains(err.Error(), "expected ';' between statements") {
		t.Errorf("two statements without a separator: %v", err)
	}
}
