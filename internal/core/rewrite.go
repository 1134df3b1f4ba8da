package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/meta"
	"repro/internal/sqlparse"
)

// buildTemplates constructs the worker-side statements and the master-side
// merge statement from the analysis. This is the rewriting machinery of
// paper section 5.3: table-name substitution, the AVG -> SUM/COUNT style
// aggregate split, and alias management.
func (p *Plan) buildTemplates() error {
	a := p.Analysis
	worker := a.Stmt.Clone()

	// --- FROM rewrite: logical tables -> physical chunk tables -------
	// Every entry is qualified and aliased. Unpartitioned tables are
	// replicated to every worker and keep their name; a partitioned one
	// names its table of chunk 0 (subchunk 0 for the near-neighbour aliases)
	// until the plan's units cut the name out.
	nnAliases := map[string]bool{}
	if a.NearNeighbor != nil {
		nnAliases[strings.ToLower(a.NearNeighbor.First)] = true
		nnAliases[strings.ToLower(a.NearNeighbor.Second)] = true
	}
	refs := make([]meta.TableRef, len(worker.From))
	for i := range worker.From {
		ref := &worker.From[i]
		ref.DB, ref.Alias = p.registry.DB, ref.Name()
		if info := p.partInfoFor(ref.Table); info != nil {
			refs[i] = meta.TableRef{Info: info, Kind: meta.ChunkTable}
			if nnAliases[strings.ToLower(ref.Alias)] {
				refs[i].Kind = meta.SubChunkTable
			}
			ref.Table = refs[i].Name()
		}
	}

	// --- select-list split -------------------------------------------
	var err error
	if a.HasAggregates {
		err = p.buildAggregateTemplates(worker)
	} else {
		err = p.buildPassThroughTemplates(worker)
	}
	if err != nil {
		return err
	}
	if len(p.Chunks) == 1 && a.NearNeighbor == nil && !p.Streamable() && !splitAlways {
		worker = p.whole(worker)
	}

	// --- the worker's unit -------------------------------------------
	// The statement, and for a near-neighbour plan the same statement with
	// the second alias reading its subchunk's overlap table instead: the
	// subchunk against itself, then against its overlap. Their pair sets
	// are disjoint, so their results concatenate (and aggregate).
	u, err := planUnit(worker, refs)
	if err != nil {
		return err
	}
	p.units = []*Unit{u}
	if a.NearNeighbor == nil {
		return nil
	}
	overlap := *worker
	overlap.From = slices.Clone(worker.From)
	refs = slices.Clone(refs)
	for i := range overlap.From {
		if strings.EqualFold(overlap.From[i].Alias, a.NearNeighbor.Second) {
			refs[i].Kind = meta.SubChunkOverlapTable
			overlap.From[i].Table = refs[i].Name()
		}
	}
	if u, err = planUnit(&overlap, refs); err != nil {
		return err
	}
	p.units = append(p.units, u)
	return nil
}

// splitAlways makes every plan split its statement, one chunk or many:
// tests set it to hold a one-chunk plan's answers to the split's.
var splitAlways bool

// whole turns a plan of one chunk, whose split needs a merge, into the
// user's statement run whole on that chunk's worker: its FROM is worker's,
// rewritten, and everything else the user's own — WHERE, GROUP BY, ORDER
// BY, LIMIT, DISTINCT — so the worker's answer is the query's, and the
// merge is a bare `SELECT *` its rows stream through, with no combine and
// no top-K. The split was built first and is thrown away: a statement it
// rejects is rejected with the same error on one chunk as on many, and the
// answer's columns are named as the split's merge names them.
func (p *Plan) whole(worker *sqlparse.Select) *sqlparse.Select {
	user := p.Analysis.Stmt
	w := *worker
	w.Items, w.GroupBy, w.OrderBy, w.Limit, w.Distinct = user.Items, user.GroupBy, user.OrderBy, user.Limit, user.Distinct
	p.ResultColumns = p.OutputColumns()
	p.ResultTypes = p.ResultTypes[:0]
	for _, it := range user.Items {
		if st, ok := it.Expr.(*sqlparse.Star); ok {
			_, types, _ := p.expandStarColumns(st) // the split expanded it already
			p.ResultTypes = append(p.ResultTypes, types...)
			continue
		}
		p.ResultTypes = append(p.ResultTypes, p.exprType(it.Expr))
	}
	p.Merge = &sqlparse.Select{Items: []sqlparse.SelectItem{{Expr: &sqlparse.Star{}}},
		From: []sqlparse.TableRef{{Table: MergeTablePlaceholder}}, Limit: -1}
	p.Combine, p.TopK = nil, false
	return &w
}

// partInfoFor returns table metadata for partitioned references.
func (p *Plan) partInfoFor(table string) *meta.TableInfo {
	for _, pr := range p.Analysis.PartRefs {
		if strings.EqualFold(pr.Ref.Table, table) {
			return pr.Info
		}
	}
	return nil
}

// splitter allocates worker-side output columns with stable qserv_N
// aliases, deduplicating by expression text.
type splitter struct {
	workerItems []sqlparse.SelectItem
	byText      map[string]string
	n           int
}

func newSplitter() *splitter { return &splitter{byText: map[string]string{}} }

// workerCol ensures expr is computed by the worker under a generated
// alias and returns a reference to that output column.
func (s *splitter) workerCol(expr sqlparse.Expr) *sqlparse.ColumnRef {
	key := expr.SQL()
	if alias, ok := s.byText[key]; ok {
		return &sqlparse.ColumnRef{Column: alias}
	}
	alias := fmt.Sprintf("qserv_c%d", s.n)
	s.n++
	s.byText[key] = alias
	s.workerItems = append(s.workerItems, sqlparse.SelectItem{Expr: sqlparse.CloneExpr(expr), Alias: alias})
	return &sqlparse.ColumnRef{Column: alias}
}

// splitExpr rewrites an expression for the merge side: aggregate calls
// become merge aggregates over worker partials (the paper's
// AVG(x) -> SUM(SUM(x))/SUM(COUNT(x)) example), and bare columns become
// references to worker output columns.
func (s *splitter) splitExpr(e sqlparse.Expr) (sqlparse.Expr, error) {
	switch v := e.(type) {
	case *sqlparse.Literal:
		return sqlparse.CloneExpr(v), nil

	case *sqlparse.ColumnRef:
		return s.workerCol(v), nil

	case *sqlparse.Star:
		return nil, fmt.Errorf("core: bare '*' cannot appear in an aggregate select list")

	case *sqlparse.FuncCall:
		if !v.IsAggregate() {
			// Scalar function over (possibly) aggregates: split args.
			args := make([]sqlparse.Expr, len(v.Args))
			for i, arg := range v.Args {
				sub, err := s.splitExpr(arg)
				if err != nil {
					return nil, err
				}
				args[i] = sub
			}
			return sqlparse.NewFuncCall(v.Name, args...), nil
		}
		if v.Distinct {
			return nil, fmt.Errorf("core: %s(DISTINCT ...) is not supported in distributed queries", v.Name)
		}
		fn := strings.ToUpper(v.Name)
		switch fn {
		case "COUNT":
			// COUNT merges as the sum of partial counts; over zero
			// chunks that sum is empty, and COUNT must yield 0, not
			// NULL.
			partial := s.workerCol(sqlparse.NewFuncCall("COUNT", cloneExprs(v.Args)...))
			sum := sqlparse.NewFuncCall("SUM", partial)
			return sqlparse.NewFuncCall("IFNULL", sum, &sqlparse.Literal{Val: int64(0)}), nil
		case "SUM":
			partial := s.workerCol(sqlparse.NewFuncCall("SUM", cloneExprs(v.Args)...))
			return sqlparse.NewFuncCall("SUM", partial), nil
		case "MIN", "MAX":
			partial := s.workerCol(sqlparse.NewFuncCall(fn, cloneExprs(v.Args)...))
			return sqlparse.NewFuncCall(fn, partial), nil
		case "AVG":
			// The paper's example: AVG(x) becomes worker SUM(x) and
			// COUNT(x), merged as SUM(SUM(x)) / SUM(COUNT(x)).
			sums := s.workerCol(sqlparse.NewFuncCall("SUM", cloneExprs(v.Args)...))
			counts := s.workerCol(sqlparse.NewFuncCall("COUNT", cloneExprs(v.Args)...))
			return &sqlparse.BinaryExpr{
				Op: "/",
				L:  sqlparse.NewFuncCall("SUM", sums),
				R:  sqlparse.NewFuncCall("SUM", counts),
			}, nil
		default:
			return nil, fmt.Errorf("core: aggregate %s cannot be distributed", fn)
		}

	case *sqlparse.BinaryExpr:
		l, err := s.splitExpr(v.L)
		if err != nil {
			return nil, err
		}
		r, err := s.splitExpr(v.R)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: v.Op, L: l, R: r}, nil

	case *sqlparse.UnaryExpr:
		x, err := s.splitExpr(v.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.UnaryExpr{Op: v.Op, X: x}, nil

	case *sqlparse.BetweenExpr:
		x, err := s.splitExpr(v.X)
		if err != nil {
			return nil, err
		}
		lo, err := s.splitExpr(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := s.splitExpr(v.Hi)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{X: x, Lo: lo, Hi: hi, Not: v.Not}, nil

	case *sqlparse.InExpr:
		x, err := s.splitExpr(v.X)
		if err != nil {
			return nil, err
		}
		list := make([]sqlparse.Expr, len(v.List))
		for i, item := range v.List {
			y, err := s.splitExpr(item)
			if err != nil {
				return nil, err
			}
			list[i] = y
		}
		return &sqlparse.InExpr{X: x, List: list, Not: v.Not}, nil

	case *sqlparse.IsNullExpr:
		x, err := s.splitExpr(v.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{X: x, Not: v.Not}, nil

	default:
		return nil, fmt.Errorf("core: cannot split %T", e)
	}
}

func cloneExprs(in []sqlparse.Expr) []sqlparse.Expr {
	out := make([]sqlparse.Expr, len(in))
	for i, e := range in {
		out[i] = sqlparse.CloneExpr(e)
	}
	return out
}

// buildAggregateTemplates constructs worker and merge statements for
// queries with aggregates or GROUP BY.
func (p *Plan) buildAggregateTemplates(worker *sqlparse.Select) error {
	user := p.Analysis.Stmt
	s := newSplitter()
	merge := &sqlparse.Select{Limit: user.Limit, Distinct: user.Distinct,
		From: []sqlparse.TableRef{{Table: MergeTablePlaceholder}}}

	for _, it := range user.Items {
		mexpr, err := s.splitExpr(it.Expr)
		if err != nil {
			return err
		}
		alias := it.Alias
		if alias == "" {
			alias = outputName(it.Expr)
		}
		merge.Items = append(merge.Items, sqlparse.SelectItem{Expr: mexpr, Alias: alias})
	}

	// Group keys: workers group by the original expressions, the merge
	// re-groups by the corresponding worker output columns.
	var workerGroup []sqlparse.Expr
	for _, g := range user.GroupBy {
		g = resolveItemAlias(g, user)
		workerGroup = append(workerGroup, sqlparse.CloneExpr(g))
		merge.GroupBy = append(merge.GroupBy, s.workerCol(g))
	}

	// ORDER BY applies only at the merge; expressions referencing item
	// aliases resolve against the merge output, everything else splits.
	for _, o := range user.OrderBy {
		if cr, ok := o.Expr.(*sqlparse.ColumnRef); ok && cr.Table == "" && aliasDefined(user, cr.Column) {
			merge.OrderBy = append(merge.OrderBy, sqlparse.OrderItem{Expr: sqlparse.CloneExpr(o.Expr), Desc: o.Desc})
			continue
		}
		mexpr, err := s.splitExpr(resolveItemAlias(o.Expr, user))
		if err != nil {
			return err
		}
		merge.OrderBy = append(merge.OrderBy, sqlparse.OrderItem{Expr: mexpr, Desc: o.Desc})
	}

	worker.Items = s.workerItems
	worker.GroupBy = workerGroup
	worker.OrderBy = nil
	worker.Limit = -1
	worker.Distinct = false

	p.Merge = merge
	p.Combine = &sqlparse.Select{Limit: -1, From: []sqlparse.TableRef{{Table: MergeTablePlaceholder}}}
	for _, it := range s.workerItems {
		p.ResultColumns = append(p.ResultColumns, it.Alias)
		p.ResultTypes = append(p.ResultTypes, p.exprType(it.Expr))
		expr, key := combineExpr(it)
		p.Combine.Items = append(p.Combine.Items, sqlparse.SelectItem{Expr: expr, Alias: it.Alias})
		if key {
			p.Combine.GroupBy = append(p.Combine.GroupBy, &sqlparse.ColumnRef{Column: it.Alias})
		}
	}
	return nil
}

// combineExpr is what the combine statement selects for one worker result
// column: the re-aggregate of a partial — the splitter makes partials only
// as bare SUM, COUNT, MIN and MAX calls, and a count re-aggregates as the
// sum of counts — or, for anything else, the column itself, which is then a
// grouping key (the GROUP BY expressions, and select-list columns outside
// them).
func combineExpr(it sqlparse.SelectItem) (expr sqlparse.Expr, key bool) {
	col := &sqlparse.ColumnRef{Column: it.Alias}
	if fc, ok := it.Expr.(*sqlparse.FuncCall); ok {
		switch fn := strings.ToUpper(fc.Name); fn {
		case "SUM", "COUNT":
			return sqlparse.NewFuncCall("SUM", col), false
		case "MIN", "MAX":
			return sqlparse.NewFuncCall(fn, col), false
		}
	}
	return col, true
}

// buildPassThroughTemplates handles non-aggregate queries: workers run
// the projection as-is and the merge concatenates (SELECT *), applying
// DISTINCT, ORDER BY and LIMIT.
func (p *Plan) buildPassThroughTemplates(worker *sqlparse.Select) error {
	user := p.Analysis.Stmt
	merge := &sqlparse.Select{
		Items:    []sqlparse.SelectItem{{Expr: &sqlparse.Star{}}},
		From:     []sqlparse.TableRef{{Table: MergeTablePlaceholder}},
		Limit:    user.Limit,
		Distinct: user.Distinct,
	}

	hasStar := false
	outNames := map[string]bool{}
	for _, it := range user.Items {
		if _, ok := it.Expr.(*sqlparse.Star); ok {
			hasStar = true
			continue
		}
		outNames[strings.ToLower(outputNameOf(it))] = true
	}

	// Map ORDER BY onto result-table columns; order keys that are not
	// in the output become hidden worker columns.
	hiddenN := 0
	for _, o := range user.OrderBy {
		name := outputName(o.Expr)
		if outNames[strings.ToLower(name)] {
			merge.OrderBy = append(merge.OrderBy,
				sqlparse.OrderItem{Expr: &sqlparse.ColumnRef{Column: name}, Desc: o.Desc})
			continue
		}
		if cr, ok := o.Expr.(*sqlparse.ColumnRef); ok && hasStar && cr.Table == "" {
			// A star projection carries every base column through.
			merge.OrderBy = append(merge.OrderBy,
				sqlparse.OrderItem{Expr: &sqlparse.ColumnRef{Column: cr.Column}, Desc: o.Desc})
			continue
		}
		if hasStar {
			return fmt.Errorf("core: ORDER BY %s cannot combine with '*' projection", o.Expr.SQL())
		}
		alias := fmt.Sprintf("qserv_ord%d", hiddenN)
		hiddenN++
		worker.Items = append(worker.Items, sqlparse.SelectItem{Expr: sqlparse.CloneExpr(o.Expr), Alias: alias})
		merge.OrderBy = append(merge.OrderBy,
			sqlparse.OrderItem{Expr: &sqlparse.ColumnRef{Column: alias}, Desc: o.Desc})
	}

	// Hidden order columns must not leak into the final output. The merge
	// re-selects the user's items by name, so an item named like one
	// before it is computed under a name of its own and renamed back.
	if hiddenN > 0 {
		merge.Items = nil
		taken := map[string]bool{}
		for i, it := range user.Items {
			name := outputNameOf(it)
			col, key := name, strings.ToLower(name)
			if taken[key] {
				col = fmt.Sprintf("qserv_item%d", i)
				worker.Items[i].Alias = col
			}
			taken[key] = true
			merge.Items = append(merge.Items,
				sqlparse.SelectItem{Expr: &sqlparse.ColumnRef{Column: col}, Alias: name})
		}
	}

	worker.OrderBy = nil
	// LIMIT pushdown: without ordering any N rows do. With ordering a
	// bare LIMIT is unsound, but the planner may push the full top-K —
	// ORDER BY and LIMIT together — so each chunk statement ships at
	// most K (sorted) rows instead of every matching row; the czar then
	// re-merges the partials under the same keys. DISTINCT blocks both
	// forms: a worker limit applied before deduplication can starve the
	// final distinct set.
	pushTopK := false
	switch {
	case user.Distinct:
		worker.Limit = -1
	case len(user.OrderBy) > 0:
		worker.Limit = -1
		if p.topK && user.Limit >= 0 {
			pushTopK = true
		}
	}

	p.Merge = merge
	for _, it := range worker.Items {
		if st, ok := it.Expr.(*sqlparse.Star); ok {
			cols, types, err := p.expandStarColumns(st)
			if err != nil {
				return err
			}
			p.ResultColumns = append(p.ResultColumns, cols...)
			p.ResultTypes = append(p.ResultTypes, types...)
			continue
		}
		p.ResultColumns = append(p.ResultColumns, outputNameOf(it))
		p.ResultTypes = append(p.ResultTypes, p.exprType(it.Expr))
	}

	// The merge ORDER BY is bare result columns by construction; a star
	// projection may still name one no table has, and then nothing is
	// pushed down and the merge statement reports it.
	if pushTopK && p.orderByResultColumns(merge.OrderBy) {
		worker.OrderBy = cloneOrderItems(user.OrderBy)
		worker.Limit = user.Limit
		p.TopK = true
		p.Combine = &sqlparse.Select{
			Items:   []sqlparse.SelectItem{{Expr: &sqlparse.Star{}}},
			From:    []sqlparse.TableRef{{Table: MergeTablePlaceholder}},
			OrderBy: cloneOrderItems(merge.OrderBy),
			Limit:   user.Limit,
		}
	}
	return nil
}

// orderByResultColumns reports whether every key is a bare reference to
// one of ResultColumns.
func (p *Plan) orderByResultColumns(keys []sqlparse.OrderItem) bool {
	for _, o := range keys {
		cr, ok := o.Expr.(*sqlparse.ColumnRef)
		if !ok || cr.Table != "" {
			return false
		}
		isColumn := func(name string) bool { return strings.EqualFold(name, cr.Column) }
		if !slices.ContainsFunc(p.ResultColumns, isColumn) {
			return false
		}
	}
	return true
}

func cloneOrderItems(in []sqlparse.OrderItem) []sqlparse.OrderItem {
	out := make([]sqlparse.OrderItem, len(in))
	for i, o := range in {
		out[i] = sqlparse.OrderItem{Expr: sqlparse.CloneExpr(o.Expr), Desc: o.Desc}
	}
	return out
}

// expandStarColumns resolves a star projection to concrete column names
// and types using catalog schemas (needed to synthesize empty results).
func (p *Plan) expandStarColumns(st *sqlparse.Star) ([]string, []sqlparse.ColType, error) {
	var names []string
	var types []sqlparse.ColType
	matched := false
	for _, ref := range p.Analysis.Stmt.From {
		if st.Table != "" && !strings.EqualFold(ref.Name(), st.Table) {
			continue
		}
		matched = true
		info, err := p.registry.Table(ref.Table)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range info.Schema {
			names = append(names, c.Name)
			types = append(types, c.Type)
		}
	}
	if !matched {
		return nil, nil, fmt.Errorf("core: unknown table %q in star projection", st.Table)
	}
	return names, types, nil
}

// exprType infers the storage type a worker output expression produces,
// from catalog schemas and expression shape. Best-effort: unknown
// shapes default to DOUBLE, the engine's own fallback.
func (p *Plan) exprType(e sqlparse.Expr) sqlparse.ColType {
	switch v := e.(type) {
	case *sqlparse.Literal:
		switch v.Val.(type) {
		case int64, bool:
			return sqlparse.TypeInt
		case string:
			return sqlparse.TypeString
		}
		return sqlparse.TypeFloat
	case *sqlparse.ColumnRef:
		if t, ok := p.columnType(v); ok {
			return t
		}
		return sqlparse.TypeFloat
	case *sqlparse.FuncCall:
		switch strings.ToUpper(v.Name) {
		case "COUNT":
			return sqlparse.TypeInt
		case "SUM", "MIN", "MAX", "IFNULL":
			if len(v.Args) >= 1 {
				return p.exprType(v.Args[0])
			}
		}
		return sqlparse.TypeFloat
	case *sqlparse.UnaryExpr:
		if strings.EqualFold(v.Op, "NOT") {
			return sqlparse.TypeInt
		}
		return p.exprType(v.X)
	case *sqlparse.BinaryExpr:
		switch v.Op {
		case "AND", "OR", "=", "!=", "<>", "<", "<=", ">", ">=":
			return sqlparse.TypeInt
		case "/":
			return sqlparse.TypeFloat
		}
		if p.exprType(v.L) == sqlparse.TypeInt && p.exprType(v.R) == sqlparse.TypeInt {
			return sqlparse.TypeInt
		}
		return sqlparse.TypeFloat
	case *sqlparse.BetweenExpr, *sqlparse.InExpr, *sqlparse.IsNullExpr:
		return sqlparse.TypeInt
	}
	return sqlparse.TypeFloat
}

// columnType resolves a column reference against the user query's FROM
// tables via the catalog.
func (p *Plan) columnType(cr *sqlparse.ColumnRef) (sqlparse.ColType, bool) {
	for _, ref := range p.Analysis.Stmt.From {
		if cr.Table != "" && !strings.EqualFold(ref.Name(), cr.Table) {
			continue
		}
		info, err := p.registry.Table(ref.Table)
		if err != nil {
			continue
		}
		if i := info.Schema.ColIndex(cr.Column); i >= 0 {
			return info.Schema[i].Type, true
		}
	}
	return sqlparse.TypeFloat, false
}

// outputNameOf returns the result-column name of a select item.
func outputNameOf(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return outputName(it.Expr)
}

// outputName mirrors the engine's display naming: bare columns keep
// their name, other expressions use their SQL text.
func outputName(e sqlparse.Expr) string {
	if cr, ok := e.(*sqlparse.ColumnRef); ok {
		return cr.Column
	}
	return e.SQL()
}

// aliasDefined reports whether name is a select-item alias of the query.
func aliasDefined(sel *sqlparse.Select, name string) bool {
	for _, it := range sel.Items {
		if strings.EqualFold(it.Alias, name) {
			return true
		}
	}
	return false
}

// resolveItemAlias replaces a bare reference to a select-item alias with
// that item's expression (used by GROUP BY n/alias forms).
func resolveItemAlias(e sqlparse.Expr, sel *sqlparse.Select) sqlparse.Expr {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok || cr.Table != "" {
		return e
	}
	for _, it := range sel.Items {
		if strings.EqualFold(it.Alias, cr.Column) {
			return it.Expr
		}
	}
	return e
}
