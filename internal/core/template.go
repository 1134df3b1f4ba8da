package core

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/meta"
	"repro/internal/sqlparse"
)

// A template is what planning makes of a statement shape (sqlparse.Shape):
// the worker units, cut at their tables and at the user's literals, the
// merge and combine statements, the result columns and their types, and the
// tables the plan reads. Every plan is a template bound to the literals of
// its own statement; what depends on literal values — the analysis, the
// route, the class, the subchunks, the near-neighbour radius check — is
// worked out per query before the template is bound.
//
// A template is built from its first statement with each literal spelled as
// a mark that names the first literal spelled as it is, so every text the
// build compares holds marks where the statement holds literals, and comes
// out the same for every statement of the shape; binding spells the marks
// with the statement's literals. A template never changes once built.
type template struct {
	units          []*Unit
	merge, combine *sqlparse.Select
	resultColumns  []string
	resultTypes    []sqlparse.ColType
	topK           bool
	tables         []string
	// marked is set when merge, combine or resultColumns hold marks, which
	// binding must spell.
	marked bool
}

// templateKey is what a template is kept by: the statement's shape, whether
// its one chunk runs it whole (buildTemplates), and the planner's TopK knob.
type templateKey struct {
	shape       string
	whole, topK bool
}

// maxTemplates bounds a planner's templates; when full they are all dropped.
const maxTemplates = 1024

// templates are a planner's templates by key, good for one registry at one
// table generation (meta.Registry.Generation): a table added or replaced
// drops them all.
type templates struct {
	mu    sync.Mutex
	reg   *meta.Registry
	gen   uint64
	byKey map[templateKey]*template
}

// get returns the template kept by k for reg at generation gen, or nil.
func (ts *templates) get(reg *meta.Registry, gen uint64, k templateKey) *template {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.reg != reg || gen > ts.gen {
		ts.reg, ts.gen, ts.byKey = reg, gen, nil
	}
	if gen != ts.gen {
		return nil
	}
	return ts.byKey[k]
}

// put keeps t by k, unless the registry moved on since gen.
func (ts *templates) put(reg *meta.Registry, gen uint64, k templateKey, t *template) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.reg != reg || ts.gen != gen || reg.Generation() != gen {
		return
	}
	if ts.byKey == nil || len(ts.byKey) >= maxTemplates {
		ts.byKey = make(map[templateKey]*template)
	}
	ts.byKey[k] = t
}

// template returns the template of the plan p's statement, whose shape is
// sh, building it into p on a miss. A shape is kept only when it is not
// Verbatim: a Verbatim key spells every literal, so it would be found again
// only by the same statement. A statement without a shape (not returned by
// sqlparse.ParseSelect), or with a Verbatim one, gets a template of its own
// with its own literals, kept by no one; so does one whose marked build
// fails, and it is rejected only when that build fails too.
func (pl *Planner) template(p *Plan, sh *sqlparse.Shape, shaped bool, gen uint64, whole bool) (*template, error) {
	k := templateKey{shape: sh.Key, whole: whole, topK: pl.TopK}
	if shaped && !sh.Verbatim {
		if t := pl.templates.get(pl.Registry, gen, k); t != nil {
			return t, nil
		}
		if t, err := build(p, sh, true, whole); err == nil {
			pl.templates.put(pl.Registry, gen, k, t)
			return t, nil
		}
	}
	return build(p, sh, false, whole)
}

// build builds into p the template of p's statement, with its literals
// marked when marked is set.
func build(p *Plan, sh *sqlparse.Shape, marked, whole bool) (*template, error) {
	a := p.Analysis
	p.units, p.Merge, p.Combine, p.ResultColumns, p.ResultTypes, p.TopK = nil, nil, nil, nil, nil, false
	if marked {
		setMarks(a.Stmt, sh.Groups)
	}
	err := p.buildTemplates(whole, marked)
	if marked {
		setMarks(a.Stmt, nil)
	}
	if err != nil {
		return nil, err
	}
	t := &template{
		units: p.units, merge: p.Merge, combine: p.Combine,
		resultColumns: p.ResultColumns, resultTypes: p.ResultTypes, topK: p.TopK,
	}
	for _, pr := range a.PartRefs {
		t.tables = append(t.tables, strings.ToLower(pr.Info.Name))
	}
	for _, ref := range a.NonPartRefs {
		t.tables = append(t.tables, strings.ToLower(ref.Table))
	}
	slices.Sort(t.tables)
	t.tables = slices.Compact(t.tables)
	if marked {
		t.marked = marksIn(t.merge) || t.combine != nil && marksIn(t.combine) ||
			slices.ContainsFunc(t.resultColumns, hasMark)
	}
	return t, nil
}

// bind makes the plan p the template t bound to the literals of p's
// statement, whose shape is sh. The units stay the template's: QueryFor
// renders their literal holes with sh.
func (p *Plan) bind(t *template, sh *sqlparse.Shape) {
	p.units, p.Merge, p.Combine, p.ResultColumns = t.units, t.merge, t.combine, t.resultColumns
	p.ResultTypes, p.TopK, p.Tables = t.resultTypes, t.topK, t.tables
	if !t.marked {
		return
	}
	p.Merge = bindSelect(t.merge, sh)
	if t.combine != nil {
		p.Combine = bindSelect(t.combine, sh)
	}
	p.ResultColumns = make([]string, len(t.resultColumns))
	for i, c := range t.resultColumns {
		p.ResultColumns[i] = bindName(c, sh)
	}
}

// A mark is the text a template's build spells a literal as
// (sqlparse.Literal.Mark): sqlparse.MarkOpen, the index of the first literal
// spelled as it is, sqlparse.MarkClose. Nothing else a marked statement
// spells holds either byte — its literals are all marks, and its words
// plain (sqlparse.Shape makes a statement with any other word Verbatim,
// and it is never marked) — and every text comparison of a build reads
// marks alike where the statement's literals spell alike, however it folds
// case.
func hasMark(s string) bool { return strings.IndexByte(s, sqlparse.MarkOpen) >= 0 }

// setMarks spells every numbered literal of stmt as the mark of its group
// (groups: sqlparse.Shape.Groups), or, with groups nil, as itself again.
// The build marks the analysis's own statement while it runs: nothing it
// builds keeps a node of it.
func setMarks(stmt *sqlparse.Select, groups []int) {
	set := func(e sqlparse.Expr) bool {
		if l, ok := e.(*sqlparse.Literal); ok && l.Num > 0 {
			l.Mark = 0
			if groups != nil {
				l.Mark = int32(groups[l.Num-1]) + 1
			}
		}
		return true
	}
	forEachExpr(stmt, func(e sqlparse.Expr) sqlparse.Expr {
		sqlparse.WalkExpr(e, set)
		return e
	})
}

// marksIn reports whether a merge or combine statement holds a mark: in a
// literal, an alias or a column name.
func marksIn(s *sqlparse.Select) bool {
	found := false
	find := func(e sqlparse.Expr) bool {
		switch v := e.(type) {
		case *sqlparse.Literal:
			found = found || v.Mark != 0
		case *sqlparse.ColumnRef:
			found = found || hasMark(v.Column)
		}
		return !found
	}
	for _, it := range s.Items {
		found = found || hasMark(it.Alias)
	}
	forEachExpr(s, func(e sqlparse.Expr) sqlparse.Expr {
		sqlparse.WalkExpr(e, find)
		return e
	})
	return found
}

// forEachExpr replaces every top-level expression of s — select items,
// WHERE, GROUP BY and ORDER BY keys — with fn's return value.
func forEachExpr(s *sqlparse.Select, fn func(sqlparse.Expr) sqlparse.Expr) {
	for i := range s.Items {
		s.Items[i].Expr = fn(s.Items[i].Expr)
	}
	if s.Where != nil {
		s.Where = fn(s.Where)
	}
	for i := range s.GroupBy {
		s.GroupBy[i] = fn(s.GroupBy[i])
	}
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = fn(s.OrderBy[i].Expr)
	}
}

// bindName spells each mark of name with the literal of sh it names.
func bindName(name string, sh *sqlparse.Shape) string {
	if !hasMark(name) {
		return name
	}
	var b []byte
	for {
		i := strings.IndexByte(name, sqlparse.MarkOpen)
		if i < 0 {
			return string(append(b, name...))
		}
		b = append(b, name[:i]...)
		j := strings.IndexByte(name[i:], sqlparse.MarkClose)
		if j < 0 {
			return string(append(b, name[i:]...))
		}
		j += i
		g, _ := strconv.Atoi(name[i+1 : j])
		b = append(b, sh.Spelling(g)...)
		name = name[j+1:]
	}
}

// bindSelect is a copy of a template's merge or combine statement with its
// marked literals holding the values of sh's literals and the marks in its
// names spelled.
func bindSelect(s *sqlparse.Select, sh *sqlparse.Shape) *sqlparse.Select {
	c := s.Clone()
	for i := range c.Items {
		c.Items[i].Alias = bindName(c.Items[i].Alias, sh)
	}
	forEachExpr(c, func(e sqlparse.Expr) sqlparse.Expr {
		return sqlparse.RewriteExpr(e, func(n sqlparse.Expr) sqlparse.Expr {
			switch v := n.(type) {
			case *sqlparse.Literal:
				if v.Mark != 0 {
					return &sqlparse.Literal{Val: sh.Literals[v.Num-1].Val, Num: v.Num}
				}
			case *sqlparse.ColumnRef:
				if hasMark(v.Column) {
					return &sqlparse.ColumnRef{Table: v.Table, Column: bindName(v.Column, sh)}
				}
			}
			return n
		})
	})
	return c
}
