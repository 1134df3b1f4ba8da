// Package core implements Qserv's primary contribution: the frontend
// query processing of paper section 5.3. A user SELECT is analyzed to
// detect spatial restrictions (qserv_areaspec_*), secondary-index
// opportunities (objectId predicates), partitioned table references,
// aliases and joins, and aggregations; it is then rewritten into
// per-chunk "chunk queries" (Object -> LSST.Object_CC, areaspec ->
// qserv_ptInSphericalBox, AVG -> SUM/COUNT) plus a master-side merge
// query that combines and re-aggregates worker results. A plan of one chunk
// has nothing to combine: it ships the user's statement whole, and its merge
// passes the worker's rows through.
//
// The planner also assigns each query its two-class scheduling label
// (Interactive vs FullScan, paper section 4.3), carried to workers in
// the chunk-query "-- CLASS:" header, and — with Planner.TopK — pushes
// ORDER BY + LIMIT down into chunk statements so workers ship at most
// K rows each. A top-K or aggregate plan also carries a combine statement
// (Plan.Combine) that folds chunk results into fewer rows of the same
// shape; the czar runs it over what it holds while results still arrive,
// so the session stays small (section 7.6).
package core

import (
	"fmt"
	"strings"

	"repro/internal/meta"
	"repro/internal/sphgeom"
	"repro/internal/sqlparse"
)

// areaspec pseudo-function names accepted in WHERE clauses.
const (
	areaspecBox    = "qserv_areaspec_box"
	areaspecCircle = "qserv_areaspec_circle"
	angSepFunc     = "qserv_angSep"
)

// PartRef is a FROM-clause reference to a partitioned table.
type PartRef struct {
	Ref  sqlparse.TableRef
	Info *meta.TableInfo
}

// NearNeighbor describes a detected spatial self-join: two references to
// the same partitioned table constrained by qserv_angSep(...) < radius.
type NearNeighbor struct {
	// First and Second are the alias names of the two sides.
	First, Second string
	// Radius is the angular threshold in degrees.
	Radius float64
}

// Analysis is everything the planner extracts from a user query.
type Analysis struct {
	// Stmt is the user's statement with the areaspec pseudo-function
	// rewritten into a worker-executable qserv_ptInSphericalBox /
	// qserv_ptInSphericalCircle predicate (paper section 5.3 example).
	Stmt *sqlparse.Select
	// Region is the spatial restriction, nil when the query is full-sky.
	Region sphgeom.Region
	// ObjectIDs are director-key equality restrictions usable with the
	// secondary index; empty when none apply.
	ObjectIDs []int64
	// PartRefs are references to partitioned tables, in FROM order.
	PartRefs []PartRef
	// NonPartRefs are references to unpartitioned (replicated) tables.
	NonPartRefs []sqlparse.TableRef
	// NearNeighbor is non-nil for spatial self-joins needing subchunks.
	NearNeighbor *NearNeighbor
	// HasAggregates reports aggregate functions in the select list or
	// ORDER BY.
	HasAggregates bool
	// Ranges are numeric range restrictions on partitioned-table
	// columns, extracted from top-level conjuncts. The routing tier
	// prunes chunks whose recorded min/max statistics are disjoint from
	// a range; the predicates themselves stay in WHERE.
	Ranges []ColRange

	// coords accumulates RA/decl bounds during analysis.
	coords *coordRange
	// cone is a detected literal-point qserv_angSep restriction,
	// promoted to Region when no areaspec set one.
	cone *coneSpec
}

// ColRange is a numeric range restriction on one column of a
// partitioned table, extracted from a top-level conjunct: a BETWEEN, a
// comparison against a literal, or an equality. Either bound may be
// absent (one-sided comparisons). Open bounds (< and >) are recorded
// as closed — a superset, which pruning may only ever widen.
type ColRange struct {
	// Table is the resolved catalog table name (not the alias).
	Table string
	// Column is the restricted column.
	Column string
	// Lo and Hi bound the range when HasLo / HasHi are set.
	Lo, Hi       float64
	HasLo, HasHi bool
}

// coneSpec is a literal-point cone: qserv_angSep(raCol, declCol, ra,
// decl) < radius on the first partitioned reference's position columns.
type coneSpec struct {
	ra, decl, radius float64
}

// Analyze inspects a user SELECT against the registry.
func Analyze(sel *sqlparse.Select, reg *meta.Registry) (*Analysis, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("core: query has no FROM clause")
	}
	a := &Analysis{Stmt: sel.Clone()}

	// Classify table references (paper: "detect database and table
	// references"). The user addresses logical tables; an explicit
	// database qualifier must match the catalog.
	for _, ref := range a.Stmt.From {
		if ref.DB != "" && !strings.EqualFold(ref.DB, reg.DB) {
			return nil, fmt.Errorf("core: unknown database %q (catalog is %s)", ref.DB, reg.DB)
		}
		info, err := reg.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		if info.Partitioned {
			a.PartRefs = append(a.PartRefs, PartRef{Ref: ref, Info: info})
		} else {
			a.NonPartRefs = append(a.NonPartRefs, ref)
		}
	}

	// Detect and strip spatial restrictions; detect objectId predicates
	// and the near-neighbor pattern — all from top-level conjuncts.
	if err := a.analyzeWhere(reg); err != nil {
		return nil, err
	}

	// Detect aggregations (paper: "other preparation for results
	// merging and aggregation").
	seen := false
	check := func(e sqlparse.Expr) {
		sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
			if fc, ok := n.(*sqlparse.FuncCall); ok && fc.IsAggregate() {
				seen = true
			}
			return true
		})
	}
	for _, it := range a.Stmt.Items {
		check(it.Expr)
	}
	for _, o := range a.Stmt.OrderBy {
		check(o.Expr)
	}
	a.HasAggregates = seen || len(a.Stmt.GroupBy) > 0

	return a, nil
}

// analyzeWhere scans the top-level conjunction for areaspec calls,
// director-key restrictions, and the near-neighbor join predicate. The
// areaspec call is replaced in the statement by a point-in-region UDF
// predicate on the first partitioned table's position columns.
func (a *Analysis) analyzeWhere(reg *meta.Registry) error {
	conjuncts := flattenAnd(a.Stmt.Where)
	var kept []sqlparse.Expr

	for _, c := range conjuncts {
		// qserv_areaspec_box(raMin, declMin, raMax, declMax) used as a
		// bare predicate conjunct.
		if fc, ok := c.(*sqlparse.FuncCall); ok {
			switch {
			case strings.EqualFold(fc.Name, areaspecBox):
				if a.Region != nil {
					return fmt.Errorf("core: multiple areaspec restrictions")
				}
				args, err := literalFloats(fc.Args, 4, areaspecBox)
				if err != nil {
					return err
				}
				a.Region = sphgeom.NewBox(args[0], args[2], args[1], args[3])
				pred, err := a.regionPredicate(fc)
				if err != nil {
					return err
				}
				kept = append(kept, pred)
				continue
			case strings.EqualFold(fc.Name, areaspecCircle):
				if a.Region != nil {
					return fmt.Errorf("core: multiple areaspec restrictions")
				}
				args, err := literalFloats(fc.Args, 3, areaspecCircle)
				if err != nil {
					return err
				}
				a.Region = sphgeom.NewCircle(sphgeom.NewPoint(args[0], args[1]), args[2])
				pred, err := a.regionPredicate(fc)
				if err != nil {
					return err
				}
				kept = append(kept, pred)
				continue
			}
		}

		// Director-key restriction: objectId = N or objectId IN (...)
		// on a partitioned table (paper: "detect index opportunities").
		if ids, ok := a.directorIDs(c); ok {
			a.ObjectIDs = append(a.ObjectIDs, ids...)
		}

		// Coordinate-range restriction: ra BETWEEN a AND b / decl >= c
		// on the director table's position columns also restrict the
		// chunk set (the paper's LV3 uses exactly this form). The
		// predicate stays in WHERE — workers still need it to filter
		// rows.
		a.noteCoordRange(c)

		// Generic numeric range restriction on any partitioned table's
		// column, recorded for statistics-based chunk pruning.
		a.noteColRange(c)

		// Near-neighbor predicate: qserv_angSep(x1, y1, x2, y2) < r
		// across two references to the same partitioned table.
		if nn := a.nearNeighborOf(c); nn != nil {
			if a.NearNeighbor == nil {
				a.NearNeighbor = nn
			}
		} else {
			// A literal-point cone — qserv_angSep(ra, decl, <lit>,
			// <lit>) < r — restricts the chunk set like a circular
			// areaspec would.
			a.noteCone(c)
		}

		kept = append(kept, c)
	}

	a.Stmt.Where = rebuildAnd(kept)
	a.finishCoordRange()
	return nil
}

// boundedRange is one conjunct reduced to `col ∈ [lo, hi]` (either
// side optional): a BETWEEN, an equality, or a comparison against a
// numeric literal. Open bounds are widened to closed ones.
type boundedRange struct {
	col          *sqlparse.ColumnRef
	lo, hi       float64
	hasLo, hasHi bool
}

// rangeOf reduces a top-level conjunct to a column range, when it has
// that shape.
func rangeOf(c sqlparse.Expr) (boundedRange, bool) {
	switch e := c.(type) {
	case *sqlparse.BetweenExpr:
		if e.Not {
			return boundedRange{}, false
		}
		cr, ok := e.X.(*sqlparse.ColumnRef)
		if !ok {
			return boundedRange{}, false
		}
		lo, okLo := numericLiteral(e.Lo)
		hi, okHi := numericLiteral(e.Hi)
		if !okLo || !okHi {
			return boundedRange{}, false
		}
		return boundedRange{col: cr, lo: lo, hi: hi, hasLo: true, hasHi: true}, true
	case *sqlparse.BinaryExpr:
		op := e.Op
		cr, ok := e.L.(*sqlparse.ColumnRef)
		v, okV := numericLiteral(e.R)
		if !ok || !okV {
			// Literal-on-the-left spelling: flip the comparison.
			cr, ok = e.R.(*sqlparse.ColumnRef)
			v, okV = numericLiteral(e.L)
			if !ok || !okV {
				return boundedRange{}, false
			}
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		switch op {
		case "=":
			return boundedRange{col: cr, lo: v, hi: v, hasLo: true, hasHi: true}, true
		case "<", "<=":
			return boundedRange{col: cr, hi: v, hasHi: true}, true
		case ">", ">=":
			return boundedRange{col: cr, lo: v, hasLo: true}, true
		}
	}
	return boundedRange{}, false
}

// coordRange accumulates position bounds on the first partitioned
// table's RA/decl columns during WHERE analysis. Conjuncts intersect:
// `ra_PS >= 10 AND ra_PS <= 20` tightens both sides.
type coordRange struct {
	raLo, raHi, declLo, declHi             float64
	hasRaLo, hasRaHi, hasDeclLo, hasDeclHi bool
}

func (cr *coordRange) tighten(lo, hi *float64, hasLo, hasHi *bool, r boundedRange) {
	if r.hasLo && (!*hasLo || r.lo > *lo) {
		*lo, *hasLo = r.lo, true
	}
	if r.hasHi && (!*hasHi || r.hi < *hi) {
		*hi, *hasHi = r.hi, true
	}
}

// noteCoordRange records a range restriction on the first partitioned
// reference's RA or declination column: BETWEEN, equality, or a
// one-sided comparison (the missing side defaults to the coordinate
// domain edge when the region is built).
func (a *Analysis) noteCoordRange(c sqlparse.Expr) {
	if len(a.PartRefs) == 0 {
		return
	}
	r, ok := rangeOf(c)
	if !ok {
		return
	}
	pr := a.PartRefs[0]
	if r.col.Table != "" && !strings.EqualFold(r.col.Table, pr.Ref.Name()) {
		return
	}
	if a.coords == nil {
		a.coords = &coordRange{}
	}
	switch {
	case strings.EqualFold(r.col.Column, pr.Info.RAColumn):
		a.coords.tighten(&a.coords.raLo, &a.coords.raHi, &a.coords.hasRaLo, &a.coords.hasRaHi, r)
	case strings.EqualFold(r.col.Column, pr.Info.DeclColumn):
		a.coords.tighten(&a.coords.declLo, &a.coords.declHi, &a.coords.hasDeclLo, &a.coords.hasDeclHi, r)
	}
}

// noteColRange records a numeric range restriction for statistics-based
// chunk pruning. The column must resolve to exactly one partitioned
// catalog table: qualified references resolve through their alias,
// unqualified ones only when a single partitioned table carries the
// column (joins reading one chunk per dispatch make any reference of
// that table in the chunk a valid pruning witness).
func (a *Analysis) noteColRange(c sqlparse.Expr) {
	r, ok := rangeOf(c)
	if !ok {
		return
	}
	table := ""
	if r.col.Table != "" {
		for _, pr := range a.PartRefs {
			if strings.EqualFold(r.col.Table, pr.Ref.Name()) {
				if pr.Info.Schema.ColIndex(r.col.Column) >= 0 {
					table = pr.Info.Name
				}
				break
			}
		}
	} else {
		for _, pr := range a.PartRefs {
			if pr.Info.Schema.ColIndex(r.col.Column) < 0 {
				continue
			}
			if table != "" && !strings.EqualFold(table, pr.Info.Name) {
				return // ambiguous across distinct tables
			}
			table = pr.Info.Name
		}
	}
	if table == "" {
		return
	}
	// Intersect with any prior range on the same (table, column).
	for i := range a.Ranges {
		cr := &a.Ranges[i]
		if strings.EqualFold(cr.Table, table) && strings.EqualFold(cr.Column, r.col.Column) {
			if r.hasLo && (!cr.HasLo || r.lo > cr.Lo) {
				cr.Lo, cr.HasLo = r.lo, true
			}
			if r.hasHi && (!cr.HasHi || r.hi < cr.Hi) {
				cr.Hi, cr.HasHi = r.hi, true
			}
			return
		}
	}
	a.Ranges = append(a.Ranges, ColRange{
		Table: table, Column: r.col.Column,
		Lo: r.lo, Hi: r.hi, HasLo: r.hasLo, HasHi: r.hasHi,
	})
}

// noteCone records qserv_angSep(raCol, declCol, <ra>, <decl>) < r on
// the first partitioned reference's position columns — a cone search
// around a literal point, the paper's small-cone interactive query.
// (Two-table angSep calls are the near-neighbor join, handled
// separately.)
func (a *Analysis) noteCone(c sqlparse.Expr) {
	if a.cone != nil || len(a.PartRefs) == 0 {
		return
	}
	be, ok := c.(*sqlparse.BinaryExpr)
	if !ok {
		return
	}
	var call *sqlparse.FuncCall
	var radiusExpr sqlparse.Expr
	switch {
	case be.Op == "<" || be.Op == "<=":
		if fc, ok := be.L.(*sqlparse.FuncCall); ok {
			call, radiusExpr = fc, be.R
		}
	case be.Op == ">" || be.Op == ">=":
		if fc, ok := be.R.(*sqlparse.FuncCall); ok {
			call, radiusExpr = fc, be.L
		}
	}
	if call == nil || len(call.Args) != 4 {
		return
	}
	if !strings.EqualFold(call.Name, angSepFunc) && !strings.EqualFold(call.Name, "scisql_angSep") {
		return
	}
	radius, ok := numericLiteral(radiusExpr)
	if !ok || radius < 0 {
		return
	}
	pr := a.PartRefs[0]
	matches := func(e sqlparse.Expr, col string) bool {
		cr, ok := e.(*sqlparse.ColumnRef)
		if !ok || col == "" || !strings.EqualFold(cr.Column, col) {
			return false
		}
		return cr.Table == "" || strings.EqualFold(cr.Table, pr.Ref.Name())
	}
	if !matches(call.Args[0], pr.Info.RAColumn) || !matches(call.Args[1], pr.Info.DeclColumn) {
		return
	}
	ra, ok1 := numericLiteral(call.Args[2])
	decl, ok2 := numericLiteral(call.Args[3])
	if !ok1 || !ok2 {
		return
	}
	a.cone = &coneSpec{ra: ra, decl: decl, radius: radius}
}

// finishCoordRange converts accumulated coordinate bounds (or a
// detected cone) into a Region when no explicit areaspec already set
// one. An explicit areaspec wins over a cone, which wins over box
// bounds. Contradictory bounds (lo > hi) produce no region — the
// predicates in WHERE already guarantee an empty answer, and an
// inverted box is not a meaningful spatial cover.
func (a *Analysis) finishCoordRange() {
	if a.Region != nil {
		return
	}
	if a.cone != nil {
		a.Region = sphgeom.NewCircle(sphgeom.NewPoint(a.cone.ra, a.cone.decl), a.cone.radius)
		return
	}
	cr := a.coords
	if cr == nil {
		return
	}
	if !cr.hasRaLo && !cr.hasRaHi && !cr.hasDeclLo && !cr.hasDeclHi {
		return
	}
	raLo, raHi := 0.0, 360.0
	if cr.hasRaLo {
		raLo = cr.raLo
	}
	if cr.hasRaHi {
		raHi = cr.raHi
	}
	declLo, declHi := -90.0, 90.0
	if cr.hasDeclLo {
		declLo = cr.declLo
	}
	if cr.hasDeclHi {
		declHi = cr.declHi
	}
	if raLo > raHi || declLo > declHi {
		return
	}
	a.Region = sphgeom.NewBox(raLo, raHi, declLo, declHi)
}

func numericLiteral(e sqlparse.Expr) (float64, bool) {
	lit, ok := e.(*sqlparse.Literal)
	if !ok {
		return 0, false
	}
	switch v := lit.Val.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// regionPredicate builds the worker-executable replacement for an
// areaspec call: qserv_ptInSphericalBox(raCol, declCol, args...) = 1 on
// the first partitioned table (the paper's rewriting example). Queries
// over only unpartitioned tables reject areaspec.
func (a *Analysis) regionPredicate(fc *sqlparse.FuncCall) (sqlparse.Expr, error) {
	if len(a.PartRefs) == 0 {
		return nil, fmt.Errorf("core: %s requires a partitioned table", fc.Name)
	}
	pr := a.PartRefs[0]
	qualifier := ""
	if len(a.Stmt.From) > 1 {
		qualifier = pr.Ref.Name()
	}
	udf := "qserv_ptInSphericalBox"
	if strings.EqualFold(fc.Name, areaspecCircle) {
		udf = "qserv_ptInSphericalCircle"
	}
	args := []sqlparse.Expr{
		&sqlparse.ColumnRef{Table: qualifier, Column: pr.Info.RAColumn},
		&sqlparse.ColumnRef{Table: qualifier, Column: pr.Info.DeclColumn},
	}
	// Reorder box args: areaspec_box(raMin, declMin, raMax, declMax) ->
	// ptInSphericalBox(ra, decl, raMin, declMin, raMax, declMax): same
	// order, appended.
	for _, arg := range fc.Args {
		args = append(args, sqlparse.CloneExpr(arg))
	}
	return &sqlparse.BinaryExpr{
		Op: "=",
		L:  sqlparse.NewFuncCall(udf, args...),
		R:  &sqlparse.Literal{Val: int64(1)},
	}, nil
}

// directorIDs recognizes director-key point restrictions on a top-level
// conjunct: <key> = <int literal> or <key> IN (<int literals>), where
// <key> names the director key of some partitioned table reference.
func (a *Analysis) directorIDs(c sqlparse.Expr) ([]int64, bool) {
	isDirectorCol := func(e sqlparse.Expr) bool {
		cr, ok := e.(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		for _, pr := range a.PartRefs {
			if pr.Info.DirectorKey == "" {
				continue
			}
			if !strings.EqualFold(cr.Column, pr.Info.DirectorKey) {
				continue
			}
			if cr.Table == "" || strings.EqualFold(cr.Table, pr.Ref.Name()) {
				return true
			}
		}
		return false
	}
	intLit := func(e sqlparse.Expr) (int64, bool) {
		lit, ok := e.(*sqlparse.Literal)
		if !ok {
			return 0, false
		}
		switch v := lit.Val.(type) {
		case int64:
			return v, true
		case float64:
			if v == float64(int64(v)) {
				return int64(v), true
			}
		}
		return 0, false
	}
	switch v := c.(type) {
	case *sqlparse.BinaryExpr:
		if v.Op != "=" {
			return nil, false
		}
		if isDirectorCol(v.L) {
			if n, ok := intLit(v.R); ok {
				return []int64{n}, true
			}
		}
		if isDirectorCol(v.R) {
			if n, ok := intLit(v.L); ok {
				return []int64{n}, true
			}
		}
	case *sqlparse.InExpr:
		if v.Not || !isDirectorCol(v.X) {
			return nil, false
		}
		var out []int64
		for _, item := range v.List {
			n, ok := intLit(item)
			if !ok {
				return nil, false
			}
			out = append(out, n)
		}
		return out, true
	}
	return nil, false
}

// nearNeighborOf recognizes qserv_angSep(a.x, a.y, b.x, b.y) < r between
// two references to the same partitioned table.
func (a *Analysis) nearNeighborOf(c sqlparse.Expr) *NearNeighbor {
	be, ok := c.(*sqlparse.BinaryExpr)
	if !ok {
		return nil
	}
	var call *sqlparse.FuncCall
	var radiusExpr sqlparse.Expr
	switch {
	case be.Op == "<" || be.Op == "<=":
		if fc, ok := be.L.(*sqlparse.FuncCall); ok && strings.EqualFold(fc.Name, angSepFunc) {
			call, radiusExpr = fc, be.R
		}
	case be.Op == ">" || be.Op == ">=":
		if fc, ok := be.R.(*sqlparse.FuncCall); ok && strings.EqualFold(fc.Name, angSepFunc) {
			call, radiusExpr = fc, be.L
		}
	}
	if call == nil || len(call.Args) != 4 {
		return nil
	}
	lit, ok := radiusExpr.(*sqlparse.Literal)
	if !ok {
		return nil
	}
	var radius float64
	switch v := lit.Val.(type) {
	case int64:
		radius = float64(v)
	case float64:
		radius = v
	default:
		return nil
	}

	// The four args must reference exactly two distinct partitioned
	// refs of the same table: (t1, t1, t2, t2).
	tableOf := func(e sqlparse.Expr) string {
		if cr, ok := e.(*sqlparse.ColumnRef); ok {
			return cr.Table
		}
		return ""
	}
	t1, t2 := tableOf(call.Args[0]), tableOf(call.Args[2])
	if t1 == "" || t2 == "" || strings.EqualFold(t1, t2) {
		return nil
	}
	if !strings.EqualFold(tableOf(call.Args[1]), t1) || !strings.EqualFold(tableOf(call.Args[3]), t2) {
		return nil
	}
	var p1, p2 *PartRef
	for i := range a.PartRefs {
		pr := &a.PartRefs[i]
		if strings.EqualFold(pr.Ref.Name(), t1) {
			p1 = pr
		}
		if strings.EqualFold(pr.Ref.Name(), t2) {
			p2 = pr
		}
	}
	if p1 == nil || p2 == nil {
		return nil
	}
	if !strings.EqualFold(p1.Info.Name, p2.Info.Name) {
		return nil // Object x Source joins do not need subchunks
	}
	return &NearNeighbor{First: p1.Ref.Name(), Second: p2.Ref.Name(), Radius: radius}
}

// flattenAnd splits a conjunction tree into its conjuncts.
func flattenAnd(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []sqlparse.Expr{e}
}

// rebuildAnd reassembles conjuncts into a right-leaning AND tree.
func rebuildAnd(conjuncts []sqlparse.Expr) sqlparse.Expr {
	var out sqlparse.Expr
	for i := len(conjuncts) - 1; i >= 0; i-- {
		if out == nil {
			out = conjuncts[i]
		} else {
			out = &sqlparse.BinaryExpr{Op: "AND", L: conjuncts[i], R: out}
		}
	}
	return out
}

// literalFloats extracts n numeric literal arguments.
func literalFloats(args []sqlparse.Expr, n int, fn string) ([]float64, error) {
	if len(args) != n {
		return nil, fmt.Errorf("core: %s takes %d arguments, got %d", fn, n, len(args))
	}
	out := make([]float64, n)
	for i, a := range args {
		lit, ok := a.(*sqlparse.Literal)
		if !ok {
			return nil, fmt.Errorf("core: %s arguments must be numeric literals", fn)
		}
		switch v := lit.Val.(type) {
		case int64:
			out[i] = float64(v)
		case float64:
			out[i] = v
		default:
			return nil, fmt.Errorf("core: %s arguments must be numeric literals", fn)
		}
	}
	return out, nil
}
