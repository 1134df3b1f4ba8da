package sqlparse

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestLexerMatchesReference: the lexer emits the reference lexer's tokens —
// kind, text and extent — or fails where it fails, with the same message,
// over statements and over random text drawn from SQL's bytes and from
// bytes >= 0x80, which both read as Latin-1 letters or not.
func TestLexerMatchesReference(t *testing.T) {
	inputs := []string{
		"SELECT a, `weird col` FROM t WHERE x >= 1.5e-3 -- trailing\n AND s = 'it''s'",
		"select Distinct x from T where y<>3 and z!=4 or w<=5 and v>=6 LIMIT 7;",
		"SELECT 'a\\'b', \"dq\"\"x\", 'tab\\t', '\\0' FROM t",
		"SeLeCt nUlL, TrUe, fAlSe FROM t INNER join u ON a = b",
		"SELECT \xe9l\xe8ve, \xaa, \xb5x, \xd7 FROM t",
		"SELECT ſelect, lıke, \xc4\xb1 FROM t",
		"SELECT 1e, 2e+",
		"SELECT .5, 5., 1.2.3, 1e5e6",
		"SELECT 'unterminated",
		"SELECT `x",
		"SELECT #",
		"SELECT a ! b",
		"/* open comment",
		"SELECT x -- comment without newline",
	}
	alphabet := []byte("SELECTfromWHEREbyandor _.,;()*+-/%<>=!'\"`\\ \n\t0123456789eE#\x80\xaa\xb5\xba\xc0\xd7\xe9\xf7\xff")
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for _, kw := range []string{"SELECT", "from", "Between", "distinct", "iN", "On", "asc", "Desc"} {
		inputs = append(inputs, kw, kw+"x", "x"+kw, kw+"\xe9")
	}
	for _, src := range inputs {
		got, gerr := Tokenize(src)
		want, werr := refTokenize(src)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("Tokenize(%q): err %v, reference %v", src, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) =\n %+v\nreference\n %+v", src, got, want)
		}
	}
}

// TestLexAllocatesNothingPerToken: a statement without escaped strings
// lexes into its token slice and nothing else.
func TestLexAllocatesNothingPerToken(t *testing.T) {
	src := "SELECT taiMidPoint, fluxToAbMag(psfFlux), ra, decl FROM Source WHERE objectId = 42 AND s <> 'ab' LIMIT 3"
	if n := testing.AllocsPerRun(100, func() { _, _ = Tokenize(src) }); n != 1 {
		t.Errorf("Tokenize allocates %.0f times, want 1 (the token slice)", n)
	}
}

// TestDeparseSpans: AppendSQL writes SQL's text and notes each FROM table
// name, inside its backquotes, and each numbered literal where it wrote
// them; a literal that was built is not noted.
func TestDeparseSpans(t *testing.T) {
	sel := mustSelect(t, "SELECT a + 1, 'x' FROM db.`select` AS s, u WHERE b = -2.5 AND c IN (3, 'y') AND d IS NULL")
	sel.Items = append(sel.Items, SelectItem{Expr: &Literal{Val: int64(9)}})
	var sp Spans
	text := string(sel.AppendSQL(nil, &sp))
	if text != sel.SQL() {
		t.Fatalf("AppendSQL wrote %q, SQL is %q", text, sel.SQL())
	}
	var tables []string
	for _, s := range sp.Tables {
		tables = append(tables, text[s.Pos:s.End])
	}
	if want := []string{"select", "u"}; !reflect.DeepEqual(tables, want) {
		t.Errorf("table spans %q, want %q", tables, want)
	}
	var lits []string
	for i, s := range sp.Literals {
		lits = append(lits, text[s.Pos:s.End])
		if s.Num != i+1 {
			t.Errorf("literal span %d has number %d", i, s.Num)
		}
	}
	if want := []string{"1", "'x'", "-2.5", "3", "'y'"}; !reflect.DeepEqual(lits, want) {
		t.Errorf("literal spans %q, want %q", lits, want)
	}
}

func mustShape(t *testing.T, src string) Shape {
	t.Helper()
	sh, ok := mustSelect(t, src).Shape()
	if !ok {
		t.Fatalf("%q: a parsed statement has no shape", src)
	}
	return sh
}

// TestShapeKey: statements that differ in literal values only share a key;
// a change of a literal's kind, of which literals are spelled alike, of the
// LIMIT count or of any other token does not; whitespace, comments and
// keyword case do not matter. A built or copied statement has no shape.
func TestShapeKey(t *testing.T) {
	same := [][2]string{
		{"SELECT * FROM Object WHERE objectId = 3", "select *  from Object /* c */ WHERE objectId=4"},
		{"SELECT a FROM t WHERE b BETWEEN 1.5 AND 2.5", "SELECT a FROM t WHERE b BETWEEN 7.25 AND 1e9"},
		{"SELECT SUM(x*2), SUM(x*2) FROM t", "SELECT SUM(x*5), SUM(x*5) FROM t"},
		{"SELECT a FROM t WHERE s = 'it''s' LIMIT 3", "SELECT a FROM t WHERE s = '%\\\\' LIMIT 3"},
		{"SELECT a FROM t WHERE b = -0", "SELECT a FROM t WHERE b = -7"},
		{"SELECT a FROM t WHERE b = 1 AND c = -1", "SELECT a FROM t WHERE b = 2 AND c = -3"},
	}
	for _, p := range same {
		if a, b := mustShape(t, p[0]), mustShape(t, p[1]); a.Key != b.Key || a.Verbatim || b.Verbatim {
			t.Errorf("%q and %q should share a shape", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"SELECT a FROM t WHERE b = 3", "SELECT a FROM t WHERE b = 3.5"},
		{"SELECT a FROM t WHERE b = 3", "SELECT a FROM t WHERE b = '3'"},
		{"SELECT a FROM t WHERE b = 3", "SELECT a FROM t WHERE b = 99999999999999999999"},
		{"SELECT SUM(x*2), SUM(x*2) FROM t", "SELECT SUM(x*2), SUM(x*3) FROM t"},
		{"SELECT a FROM t WHERE b = 1 AND c = -1", "SELECT a FROM t WHERE b = 0 AND c = -0"},
		{"SELECT a FROM t WHERE b = 1 AND c = 1.0", "SELECT a FROM t WHERE b = 1 AND c = 2.0"},
		{"SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 4"},
		{"SELECT a FROM t WHERE b = 3", "SELECT a FROM t WHERE c = 3"},
		{"SELECT a FROM t WHERE b = 3", "SELECT A FROM t WHERE b = 3"},
	}
	for _, p := range differ {
		if a, b := mustShape(t, p[0]), mustShape(t, p[1]); a.Key == b.Key {
			t.Errorf("%q and %q should not share a shape", p[0], p[1])
		}
	}
	sh := mustShape(t, "SELECT a FROM t WHERE b IN (4, 4.0, -4, 4) AND s = 'x'")
	if want := []int{0, 0, 2, 0, 4}; !reflect.DeepEqual(sh.Groups, want) {
		t.Errorf("groups %v, want %v", sh.Groups, want)
	}
	for _, src := range []string{
		"SELECT a AS `(a + 1)` FROM t WHERE b = 1",
		"SELECT `x y` FROM t WHERE b = 1",
		"SELECT a FROM t WHERE s = 'Ab' OR s = 'aB'",
	} {
		if v := mustShape(t, src); !v.Verbatim || !strings.Contains(v.Key, "1") && !strings.Contains(v.Key, "Ab") {
			t.Errorf("%q: shape should spell its literals", src)
		}
	}
	if a, b := mustShape(t, "SELECT `x y` FROM t WHERE b = 1"), mustShape(t, "SELECT `x y` FROM t WHERE b = 2"); a.Key == b.Key {
		t.Error("verbatim shapes of different literals share a key")
	}
	sel := mustSelect(t, "SELECT a FROM t WHERE b = 1")
	if _, ok := sel.Clone().Shape(); ok {
		t.Error("a copy has a shape")
	}
	if _, ok := (&Select{Limit: -1}).Shape(); ok {
		t.Error("a built statement has a shape")
	}
}

// BenchmarkTokenize lexes the paper's LV2 and LV3 statements: ns and
// allocations per statement.
func BenchmarkTokenize(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"LV2", "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = 1234567"},
		{"LV3", "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 12.3456 AND 12.5000 AND decl_PS BETWEEN -3.2500 AND -3.0000 AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 24.123456"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Tokenize(bc.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
