package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// otherLiterals rewrites sql with every literal moved by k: an integral
// number by k, any other by k/8, each kept of its kind (a DOUBLE keeps a
// point), a string with k 'z's appended.
// Tokens spelled alike are rewritten alike, and a LIMIT count is no literal.
// The rewrite has sql's shape unless it makes literals spelled apart spell
// alike or the other way round (a -0 beside a 0); ok is false when sql does
// not lex.
func otherLiterals(sql string, k int) (string, bool) {
	toks, err := sqlparse.Tokenize(sql)
	if err != nil {
		return "", false
	}
	var b strings.Builder
	at := 0
	for i, t := range toks {
		afterLimit := i > 0 && toks[i-1].Kind == sqlparse.TokKeyword && toks[i-1].Text == "LIMIT"
		var repl string
		switch {
		case t.Kind == sqlparse.TokNumber && !afterLimit:
			if n, err := strconv.ParseInt(t.Text, 10, 64); err == nil && !strings.ContainsAny(t.Text, ".eE") && n < 1<<62 {
				repl = strconv.FormatInt(n+int64(k), 10)
				break
			}
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return "", false
			}
			step := float64(k) / 8 // small, as near-neighbour radii must be
			if f == math.Trunc(f) {
				step = float64(k) // as an integer's, so 2.0 stays spelled as 2
			}
			repl = strconv.FormatFloat(f+step, 'f', -1, 64)
			if !strings.ContainsAny(repl, ".eE") {
				repl += ".0"
			}
		case t.Kind == sqlparse.TokString:
			repl = "'" + strings.ReplaceAll(t.Text+strings.Repeat("z", k), "'", "''") + "'"
		default:
			continue
		}
		b.WriteString(sql[at:t.Pos])
		b.WriteString(repl)
		at = t.End
	}
	b.WriteString(sql[at:])
	return b.String(), true
}

// planFields renders every field of a plan a query's execution reads: each
// chunk's chunk query, the merge and combine statements, the result and
// output columns and types, class, route, subchunks, tables and cache key.
func planFields(p *Plan) string {
	var b strings.Builder
	for _, c := range p.Chunks {
		fmt.Fprintf(&b, "chunk %d: %q\n", c, p.QueryFor(c).Payload())
	}
	fmt.Fprintf(&b, "merge %s\n", p.Merge.SQL())
	if p.Combine != nil {
		fmt.Fprintf(&b, "combine %s\n", p.Combine.SQL())
	}
	fmt.Fprintf(&b, "result %q %v\noutput %q\n", p.ResultColumns, p.ResultTypes, p.OutputColumns())
	fmt.Fprintf(&b, "class %v route %v %v %d topk %v streamable %v\n", p.Class, p.Route.Kind, p.Route.Chunks, p.Route.Pruned, p.TopK, p.Streamable())
	fmt.Fprintf(&b, "subchunks %v\ntables %q\nkey %q\n", p.SubChunksByChunk, p.Tables, p.CacheKey())
	return b.String()
}

// planOrError is planFields of sql's plan, or the error planning it gives.
func planOrError(pl *Planner, placed []partition.ChunkID, sql string) string {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return "parse: " + err.Error()
	}
	p, err := pl.Plan(sel, placed)
	if err != nil {
		return "plan: " + err.Error()
	}
	return planFields(p)
}

// unshapedPlan is planOrError for a copy of sql's statement, which has no
// shape: its template is built from its own literals, unmarked, and kept by
// no one — the plan as it was made before there were templates — without
// the cache key, which spells no shape.
func unshapedPlan(pl *Planner, placed []partition.ChunkID, sql string) string {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return "parse: " + err.Error()
	}
	p, err := pl.Plan(sel.Clone(), placed)
	if err != nil {
		return "plan: " + err.Error()
	}
	return withoutKey(planFields(p))
}

func withoutKey(fields string) string {
	if i := strings.LastIndex(fields, "\nkey "); i >= 0 {
		return fields[:i]
	}
	return fields
}

// warmBattery are statements whose plans the template must not change: the
// one-chunk and literal-kind cases beside the payload battery and the
// routing battery's statements.
var warmBattery = []string{
	// One chunk whole, one chunk streamed, and many chunks of one shape.
	"SELECT AVG(objectId), SUM(objectId), COUNT(*) FROM Object WHERE qserv_areaspec_box(11, 1, 11.5, 1.5)",
	"SELECT AVG(objectId), SUM(objectId), COUNT(*) FROM Object WHERE qserv_areaspec_box(11, 1, 71.5, 31.5)",
	"SELECT subChunkId, COUNT(*) AS n FROM Object WHERE qserv_areaspec_box(11, 1, 11.5, 1.5) GROUP BY subChunkId ORDER BY n DESC, subChunkId LIMIT 3",
	"SELECT objectId, ra_PS FROM Object WHERE qserv_areaspec_circle(11, 1, 0.25) ORDER BY ra_PS DESC, objectId LIMIT 5",
	"SELECT DISTINCT chunkId, COUNT(*) > 0 AS nonempty FROM Object WHERE ra_PS BETWEEN 11 AND 11.5 AND decl_PS BETWEEN 1 AND 1.5 GROUP BY subChunkId",
	"SELECT * FROM Object WHERE objectId = 3 ORDER BY ra_PS",
	"SELECT * FROM Object WHERE objectId IN (3, 7) ORDER BY ra_PS",
	// Literals the split compares by their text: equal, unequal, and a
	// result column whose name spells one.
	"SELECT SUM(ra_PS*2), SUM(ra_PS*2) FROM Object",
	"SELECT SUM(ra_PS*2), SUM(ra_PS*3) FROM Object",
	"SELECT SUM(ra_PS*2), SUM(ra_PS*2.0), MAX(ra_PS - 2) FROM Object WHERE objectId = 2",
	"SELECT COUNT(*) + 1, 7, objectId + 1 FROM Object GROUP BY objectId",
	"SELECT ra_PS + 1, decl_PS FROM Object WHERE objectId IN (1, 2) ORDER BY ra_PS + 1 DESC LIMIT 4",
	"SELECT ra_PS + 1 FROM Object ORDER BY ra_PS + 2, decl_PS LIMIT 4",
	"SELECT objectId, 'it''s %' AS s FROM Object WHERE objectId IN (2, 5) ORDER BY objectId LIMIT 3",
	"SELECT objectId FROM Object WHERE 'a\\\\b' != 'c' AND objectId > -0 AND decl_PS != -0.0 LIMIT 2",
	"SELECT objectId, NULL, TRUE FROM Object WHERE ra_PS IS NOT NULL AND uFlux_PS > 1e-9 AND objectId < 9223372036854775808",
	"SELECT COUNT(*) FROM Object WHERE objectId = 3 AND 'x' = 'x' LIMIT 0",
	"SELECT ra_PS > 1 AND 'Ab' != 'x' FROM Object WHERE objectId IN (2, 7) ORDER BY ra_PS > 1 AND 'aB' != 'x' LIMIT 3",
	"SELECT ra_PS > 1 AND 'Ab' != 'x' FROM Object WHERE objectId IN (2, 7) ORDER BY ra_PS > 1 AND 'cd' != 'x' LIMIT 3",
	"SELECT ra_PS + 1, decl_PS FROM Object WHERE objectId IN (2, 7) ORDER BY `(ra_PS + 1)` LIMIT 3",
	// Routing on literal values under one shape.
	"SELECT * FROM Object WHERE ra_PS BETWEEN 10 AND 20 AND decl_PS >= -5 AND decl_PS <= 5",
	"SELECT * FROM Object WHERE qserv_angSep(ra_PS, decl_PS, 12.5, 3) < 0.5",
	"SELECT * FROM Object WHERE 10 < ra_PS AND ra_PS < 20",
	"SELECT * FROM Object WHERE ra_PS BETWEEN 20 AND 10",
	"SELECT COUNT(*) FROM Object WHERE zFlux_PS BETWEEN 1 AND 2 AND objectId = 4",
	"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(-5, -5, 5, 5) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.4",
	// Rejected per query or by the split.
	"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(-5, -5, 5, 5) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.9",
	"SELECT * FROM Object ORDER BY ra_PS + 1",
	"SELECT COUNT(DISTINCT ra_PS + 1) FROM Object",
}

// TestWarmPlanIsTheColdPlan: a plan bound from a template another
// statement of its shape built — one with other literals — is field for
// field the plan a fresh planner makes, over the payload battery, the
// battery above, and every statement again planned right after the one it
// moves the literals of. A statement planning rejects is rejected with the
// error its own literals spell, and leaves no template behind.
func TestWarmPlanIsTheColdPlan(t *testing.T) {
	_, warm, placed := testSetup(t)
	warm.TopK = true
	cold := func(sql string) string {
		_, pl, _ := testSetup(t)
		pl.TopK = true
		return planOrError(pl, placed, sql)
	}
	shaped := 0
	for _, sql := range slices.Concat(payloadSQL, warmBattery) {
		for k := range 3 {
			other, _ := otherLiterals(sql, k+1)
			first, second := sql, other
			if k == 1 {
				first, second = other, sql
			}
			if a, b := shapeKey(t, first), shapeKey(t, second); a == b {
				shaped++
			}
			planOrError(warm, placed, first)
			want := cold(second)
			if got := planOrError(warm, placed, second); got != want {
				t.Errorf("after %s\n%s plans warm as\n%s\ncold as\n%s", first, second, got, want)
			}
			if ref := unshapedPlan(warm, placed, second); withoutKey(want) != ref {
				t.Errorf("%s plans cold as\n%s\nunmarked as\n%s", second, want, ref)
			}
		}
	}
	if shaped < 2*len(payloadSQL) {
		t.Errorf("only %d statement pairs shared a shape", shaped)
	}

	for _, c := range []struct{ sql, err string }{
		{"SELECT * FROM Object ORDER BY ra_PS + 1", "plan: core: ORDER BY (ra_PS + 1) cannot combine with '*' projection"},
		{"SELECT * FROM Object ORDER BY ra_PS + 2", "plan: core: ORDER BY (ra_PS + 2) cannot combine with '*' projection"},
		{"SELECT COUNT(DISTINCT ra_PS + 2) FROM Object", "plan: core: COUNT(DISTINCT ...) is not supported in distributed queries"},
	} {
		if got := planOrError(warm, placed, c.sql); got != c.err {
			t.Errorf("%s: %s, want %s", c.sql, got, c.err)
		}
	}
	_, fresh, _ := testSetup(t)
	for _, sql := range warmBattery[len(warmBattery)-3:] {
		planOrError(fresh, placed, sql)
	}
	if n := len(fresh.templates.byKey); n != 0 {
		t.Errorf("rejected statements left %d templates", n)
	}
}

func shapeKey(t *testing.T, sql string) string {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return "parse error"
	}
	sh, _ := sel.Shape()
	return sh.Key
}

// TestTemplatesFollowTheRegistry: a table added after a statement's shape
// was planned is seen by the next statement of the shape — one the planner
// rejected, and one whose star it expands — and a plan of a statement
// without a shape (built, or a copy) is the plan of its text.
func TestTemplatesFollowTheRegistry(t *testing.T) {
	reg, pl, placed := testSetup(t)
	const join = "SELECT COUNT(*) FROM Object o, Extra e WHERE o.objectId = e.objectId AND o.objectId = 3"
	if got := planOrError(pl, placed, join); !strings.Contains(got, "unknown table") {
		t.Fatalf("a join with an unknown table plans: %s", got)
	}
	obj, err := reg.Table("Object")
	if err != nil {
		t.Fatal(err)
	}
	extra := *obj
	extra.Name, extra.Partitioned = "Extra", false
	reg.AddTable(&extra)
	if got := planOrError(pl, placed, strings.Replace(join, "3", "4", 1)); strings.HasPrefix(got, "plan:") {
		t.Fatalf("after the table was added: %s", got)
	}

	star := "SELECT * FROM Object WHERE objectId = 3"
	before := mustPlan(t, pl, placed, star).ResultColumns
	wider := *obj
	wider.Schema = append(slices.Clone(obj.Schema), sqlengine.Column{Name: "added", Type: sqlparse.TypeInt})
	reg.AddTable(&wider)
	after := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId = 4").ResultColumns
	if len(after) != len(before)+1 || after[len(after)-1] != "added" {
		t.Errorf("after a column was added, the star expands to %q (was %q)", after, before)
	}

	sel, err := sqlparse.ParseSelect("SELECT COUNT(*) + 1 FROM Object WHERE objectId = 3")
	if err != nil {
		t.Fatal(err)
	}
	want := withoutKey(planFields(mustPlan(t, pl, placed, sel.SQL())))
	for range 2 {
		p, err := pl.Plan(sel.Clone(), placed)
		if err != nil {
			t.Fatal(err)
		}
		if got := withoutKey(planFields(p)); got != want {
			t.Errorf("a copy plans as\n%s\nits text as\n%s", got, want)
		}
	}
}

// TestVerbatimShapesAreNotKept: a statement of a Verbatim shape, whose key
// spells its literals, plans with a template of its own that the planner
// does not keep, so statements that differ only in their literals do not
// fill the planner with a template each; a plain shape's is kept once.
func TestVerbatimShapesAreNotKept(t *testing.T) {
	_, pl, placed := testSetup(t)
	const verbatim = "SELECT ra_PS + 1, decl_PS FROM Object WHERE objectId IN (2, 7) ORDER BY `(ra_PS + 1)` LIMIT 3"
	for k := range 3 {
		sql, _ := otherLiterals(verbatim, k)
		if got, want := planOrError(pl, placed, sql), planOrError(NewPlanner(pl.Registry, pl.Index), placed, sql); got != want {
			t.Fatalf("%s plans as\n%s\na fresh planner plans it as\n%s", sql, got, want)
		}
	}
	if n := len(pl.templates.byKey); n != 0 {
		t.Errorf("%d templates kept for a Verbatim shape", n)
	}
	for k := range 3 {
		mustPlan(t, pl, placed, fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", 3+k))
	}
	if n := len(pl.templates.byKey); n != 1 {
		t.Errorf("%d templates kept for one plain shape", n)
	}
}

// BenchmarkPlanShape prices a statement's way through the czar's planning —
// parse, plan, cache key and every chunk's chunk query — for the paper's
// LV1, LV2, LV3 and HV1, each op a statement with literals of its own:
// cold, a planner that has planned nothing (the template is built), and
// warm, one that keeps the shape's template (it is bound).
func BenchmarkPlanShape(b *testing.B) {
	_, _, placed := testSetup(b)
	for _, bc := range []struct {
		name string
		sql  func(i int) string
	}{
		{"LV1", func(i int) string { return fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", 1+i%10) }},
		{"LV2", func(i int) string {
			return fmt.Sprintf("SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d", 1+i%10)
		}},
		{"LV3", func(i int) string {
			ra, decl := 11+float64(i%97)*0.01, 1+float64(i%89)*0.01
			return fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN %.4f AND %.4f AND decl_PS BETWEEN %.4f AND %.4f AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND %.6f",
				ra, ra+1, decl, decl+1, 30+float64(i)*1e-6)
		}},
		{"HV1", func(i int) string {
			return fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE fluxToAbMag(rFlux_PS) < %.7f", 24+float64(i)*1e-5)
		}},
	} {
		for _, warm := range []bool{false, true} {
			name := bc.name + "/cold"
			if warm {
				name = bc.name + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				reg, pl, _ := testSetup(b)
				stmts := make([]string, 256)
				for i := range stmts {
					stmts[i] = bc.sql(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					if !warm {
						pl = NewPlanner(reg, pl.Index)
					}
					sel, err := sqlparse.ParseSelect(stmts[i%len(stmts)])
					if err != nil {
						b.Fatal(err)
					}
					p, err := pl.Plan(sel, placed)
					if err != nil {
						b.Fatal(err)
					}
					_ = p.CacheKey()
					for _, c := range p.Chunks {
						_ = p.QueryFor(c).Payload()
					}
				}
			})
		}
	}
}

// TestTemplatesUnderConcurrentPlanning: planners are shared by a czar's
// sessions. Goroutines planning the battery's statements and their
// other-literal twins on one planner, while tables are added beside them,
// each get the plan a fresh planner makes.
func TestTemplatesUnderConcurrentPlanning(t *testing.T) {
	reg, pl, placed := testSetup(t)
	pl.TopK = true
	var stmts, want []string
	for _, sql := range slices.Concat(payloadSQL, warmBattery) {
		for k := range 2 {
			other, _ := otherLiterals(sql, k)
			_, fresh, _ := testSetup(t)
			fresh.TopK = true
			stmts, want = append(stmts, other), append(want, planOrError(fresh, placed, other))
		}
	}
	obj, err := reg.Table("Object")
	if err != nil {
		t.Fatal(err)
	}
	extra := *obj
	extra.Name, extra.Partitioned = "Unread", false
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range stmts {
				i = (i + g*7) % len(stmts)
				if got := planOrError(pl, placed, stmts[i]); got != want[i] {
					t.Errorf("%s plans, beside other planning, as\n%s\nnot\n%s", stmts[i], got, want[i])
					return
				}
			}
		}()
	}
	for range 20 {
		reg.AddTable(&extra)
	}
	wg.Wait()
}
