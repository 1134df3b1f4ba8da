package sqlengine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqlparse"
)

// ScanSource supplies a table's rows piece-wise in place of a direct
// heap scan — the seam shared scanning (internal/scanshare) plugs into
// so convoy pieces flow through the engine's predicate evaluation.
type ScanSource interface {
	// NextPiece returns the next piece of rows; ok is false when the
	// source is exhausted.
	NextPiece() (piece []Row, ok bool)
	// Close releases the source. It must be called even when the scan
	// is abandoned early so a convoy is never stalled by a consumer
	// that stopped reading; it is safe to call after exhaustion.
	Close()
}

// ScanProvider returns a ScanSource standing in for a full sequential
// scan of t, or nil to scan the table heap directly. It is consulted
// only for scans an index cannot answer.
type ScanProvider func(t *Table) ScanSource

// sliceSource serves rows the engine already holds — a table's heap, or
// the rows an index dive found — as a ScanSource of one piece, so every
// scan runs the same loop.
type sliceSource struct {
	rows []Row
	done bool
}

func (s *sliceSource) NextPiece() ([]Row, bool) {
	if s.done {
		return nil, false
	}
	s.done = true
	return s.rows, true
}

func (s *sliceSource) Close() {}

// ErrInterrupted marks a statement aborted through ExecOptions.Interrupt
// (query cancellation): the partial state is discarded and the executor
// returns between rows.
var ErrInterrupted = errors.New("sqlengine: statement interrupted")

// interruptCheckRows is how many rows a scan or join processes between
// interrupt checks — small enough that cancellation lands "between
// rows", large enough that the check never shows up in profiles.
const interruptCheckRows = 512

// selectExec executes one SELECT statement in three steps: bind the FROM
// clause to tables, compile every expression of the statement against
// those bindings into a selectPlan, then run the plan in a single pass
// over the rows.
type selectExec struct {
	eng       *Engine
	sel       *sqlparse.Select
	bindings  []binding
	tables    []*Table
	prov      ScanProvider
	interrupt <-chan struct{}
	stats     ExecStats
	fr        frame
}

// interrupted reports ErrInterrupted once the interrupt channel closed.
func (ex *selectExec) interrupted() error {
	if ex.interrupt == nil {
		return nil
	}
	select {
	case <-ex.interrupt:
		return ErrInterrupted
	default:
		return nil
	}
}

func (e *Engine) execSelect(sel *sqlparse.Select) (*Result, error) {
	return e.execSelectOpts(sel, ExecOptions{})
}

func (e *Engine) execSelectOpts(sel *sqlparse.Select, opts ExecOptions) (*Result, error) {
	if len(sel.From) == 0 {
		return e.execSelectNoFrom(sel)
	}
	if res, ok, err := e.tryCountStar(sel); ok || err != nil {
		return res, err
	}
	ex, err := e.bind(sel, opts)
	if err != nil {
		return nil, err
	}
	plan, err := ex.compile()
	if err != nil {
		return nil, err
	}
	if err := ex.run(plan); err != nil {
		return nil, err
	}
	res, err := plan.out.result(&ex.fr)
	if err != nil {
		return nil, err
	}
	ex.stats.RowsOut = int64(len(res.Rows))
	for _, r := range res.Rows {
		ex.stats.ResultBytes += rowBytes(r)
	}
	res.Stats = ex.stats
	return res, nil
}

// bind resolves the FROM clause.
func (e *Engine) bind(sel *sqlparse.Select, opts ExecOptions) (*selectExec, error) {
	n := len(sel.From)
	ex := &selectExec{
		eng: e, sel: sel, prov: opts.Scan, interrupt: opts.Interrupt,
		bindings: make([]binding, n), tables: make([]*Table, n),
	}
	ex.fr.rows = make([]Row, n)
	for i, ref := range sel.From {
		t, err := e.lookupTable(ref.DB, ref.Table)
		if err != nil {
			return nil, err
		}
		ex.tables[i] = t
		ex.bindings[i] = binding{name: ref.Name(), schema: t.Schema}
		// Duplicate FROM names are ambiguous (self-join requires aliases).
		for _, b := range ex.bindings[:i] {
			if strings.EqualFold(b.name, ref.Name()) {
				return nil, fmt.Errorf("sqlengine: duplicate table name/alias %q in FROM; use aliases", ref.Name())
			}
		}
	}
	return ex, nil
}

// tryCountStar answers `SELECT COUNT(*) [AS alias] FROM t` without
// scanning, as MyISAM does from its stored row count. The paper relies
// on this: High Volume 1 (a full-sky COUNT(*)) measures dispatch
// overhead, not I/O, because each worker answers its chunk count from
// table metadata.
func (e *Engine) tryCountStar(sel *sqlparse.Select) (*Result, bool, error) {
	if len(sel.From) != 1 || sel.Where != nil || len(sel.GroupBy) != 0 ||
		len(sel.OrderBy) != 0 || sel.Distinct || len(sel.Items) != 1 {
		return nil, false, nil
	}
	fc, ok := sel.Items[0].Expr.(*sqlparse.FuncCall)
	if !ok || fc.Key() != "count" || fc.Distinct || len(fc.Args) != 1 {
		return nil, false, nil
	}
	if _, isStar := fc.Args[0].(*sqlparse.Star); !isStar {
		return nil, false, nil
	}
	t, err := e.lookupTable(sel.From[0].DB, sel.From[0].Table)
	if err != nil {
		return nil, false, err
	}
	res := &Result{
		Cols:  itemNames(sel.Items),
		Types: []sqlparse.ColType{sqlparse.TypeInt},
		Rows:  []Row{{int64(len(t.Rows))}},
	}
	res.Stats.RowsOut = 1
	res.Stats.ResultBytes = 8
	return res, true, nil
}

// execSelectNoFrom evaluates a FROM-less select (constants only).
func (e *Engine) execSelectNoFrom(sel *sqlparse.Select) (*Result, error) {
	c := compiler{funcs: e.funcs}
	res := &Result{Cols: itemNames(sel.Items)}
	if sel.Where != nil {
		v, err := c.constValue(sel.Where)
		if err != nil {
			return nil, err
		}
		if !AsBool(v) {
			return res, nil
		}
	}
	row := make(Row, len(sel.Items))
	for i, it := range sel.Items {
		v, err := c.constValue(it.Expr)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	res.Rows = []Row{row}
	res.Types = inferTypes(res)
	res.Stats.RowsOut = 1
	return res, nil
}

func itemNames(items []sqlparse.SelectItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = itemName(it)
	}
	return out
}

// itemName is an item's result column heading: its alias, else the
// expression the way MySQL renders it — bare column names stay bare,
// everything else is the text.
func itemName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
		return cr.Column
	}
	return it.Expr.SQL()
}

// ---------- compile: the statement's plan ----------

// selectPlan is a statement after compilation: how each FROM binding is
// read and joined, and what becomes of the rows that survive. Everything
// in it is decided before the first row is read, so an unknown column or
// function fails the statement even over an empty table.
type selectPlan struct {
	// empty is set when a constant conjunct of WHERE is not true: nothing
	// is scanned.
	empty bool
	scans []scanPlan // one per FROM binding, in join order
	out   *output
}

// scanPlan reads one binding and, for every binding but the first, joins
// it onto the bindings before it.
type scanPlan struct {
	table *Table
	// index and keys, when set, replace the scan with an index dive: a
	// `col = const` or `col IN (consts)` conjunct on an indexed column
	// (the worker-side objectId index of section 5.5).
	index *hashIndex
	keys  []Value
	// filter holds the conjuncts over this binding alone (less the one an
	// index dive answers).
	filter []intFn
	// pending holds the conjuncts that become decidable once this binding
	// joins the earlier ones. If one of them equates a column of this
	// binding (buildCol) to an expression over the earlier ones (probe),
	// it is taken out of pending and answered by a hash join.
	pending  []intFn
	probe    valueFn
	buildCol int
}

func splitConjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

func (ex *selectExec) compile() (*selectPlan, error) {
	c := &compiler{bindings: ex.bindings, funcs: ex.eng.funcs}
	p := &selectPlan{scans: make([]scanPlan, len(ex.tables))}
	for k := range p.scans {
		p.scans[k].table = ex.tables[k]
	}

	// Every ANDed conjunct of WHERE goes to the binding that completes
	// the set it references: as a filter if it references that binding
	// alone, as a join predicate otherwise. Constant ones are decided
	// here; the first that is not true empties the result.
	for _, e := range splitConjuncts(ex.sel.Where, nil) {
		c.resetRefs()
		n, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		pred, k := n.truth(), c.hi
		sp := &p.scans[max(k, 0)]
		switch {
		case k < 0:
			if p.empty {
				break
			}
			v, null, err := pred(&ex.fr)
			if err != nil {
				return nil, err
			}
			p.empty = null || v == 0
		case c.lo < k:
			if sp.probe == nil && ex.planHashJoin(c, sp, e, k) {
				break
			}
			sp.pending = append(sp.pending, pred)
		default:
			if sp.index == nil && ex.planIndexDive(c, sp, e) {
				break
			}
			sp.filter = append(sp.filter, pred)
		}
	}

	out, err := ex.compileOutput(c)
	if err != nil {
		return nil, err
	}
	p.out = out
	return p, nil
}

// planIndexDive recognizes `col = <const>` and `col IN (<consts>)` on an
// indexed column of sp's table (e references that binding alone) and
// records the dive.
func (ex *selectExec) planIndexDive(c *compiler, sp *scanPlan, e sqlparse.Expr) bool {
	col := func(x sqlparse.Expr) *hashIndex {
		if cr, ok := x.(*sqlparse.ColumnRef); ok {
			return sp.table.Index(cr.Column)
		}
		return nil
	}
	key := func(x sqlparse.Expr) (Value, bool) {
		v, err := c.constValue(x)
		return normalizeKey(v), err == nil
	}
	switch v := e.(type) {
	case *sqlparse.BinaryExpr:
		if v.Op != "=" {
			return false
		}
		for _, side := range [2][2]sqlparse.Expr{{v.L, v.R}, {v.R, v.L}} {
			if idx := col(side[0]); idx != nil {
				if k, ok := key(side[1]); ok {
					sp.index, sp.keys = idx, []Value{k}
					return true
				}
			}
		}
	case *sqlparse.InExpr:
		idx := col(v.X)
		if v.Not || idx == nil {
			return false
		}
		keys := make([]Value, len(v.List))
		for i, item := range v.List {
			k, ok := key(item)
			if !ok {
				return false
			}
			keys[i] = k
		}
		sp.index, sp.keys = idx, keys
		return true
	}
	return false
}

// normalizeKey converts float-valued integers to int64 so index lookups
// match stored integer keys (GroupKey is type-sensitive).
func normalizeKey(v Value) Value {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return int64(f)
	}
	return v
}

// planHashJoin recognizes an equi-join conjunct — a column of binding k
// equated to an expression over earlier bindings only — and records the
// build column and the compiled probe expression.
func (ex *selectExec) planHashJoin(c *compiler, sp *scanPlan, e sqlparse.Expr, k int) bool {
	be, ok := e.(*sqlparse.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	for _, side := range [2][2]sqlparse.Expr{{be.L, be.R}, {be.R, be.L}} {
		cr, ok := side[0].(*sqlparse.ColumnRef)
		if !ok {
			continue
		}
		bi, ci, err := c.resolve(cr)
		if err != nil || bi != k {
			continue
		}
		c.resetRefs()
		probe, err := c.compile(side[1])
		if err != nil || c.hi >= k {
			continue
		}
		sp.probe, sp.buildCol = probe.scalar(), ci
		return true
	}
	return false
}

// ---------- run: one pass over the rows ----------

// run drives the plan's scans into its output. A single-table statement
// is one loop, source to output, with nothing materialized in between; a
// join materializes each binding's filtered rows and the joined rows of
// every stage but the last, which again feeds the output directly.
func (ex *selectExec) run(p *selectPlan) error {
	if p.empty {
		return nil
	}
	fr := &ex.fr
	sink := func() error { return p.out.consume(fr) }
	last := len(p.scans) - 1
	if last == 0 {
		return ex.scan(0, &p.scans[0], sink)
	}
	// cur holds the joined rows so far, flat: k rows per entry once k
	// bindings are joined.
	cur, err := ex.collect(0, &p.scans[0])
	if err != nil {
		return err
	}
	for k := 1; k < last; k++ {
		var next []Row
		err := ex.extend(cur, k, &p.scans[k], func() error {
			next = append(next, fr.rows[:k+1]...)
			return nil
		})
		if err != nil {
			return err
		}
		cur = next
	}
	return ex.extend(cur, last, &p.scans[last], sink)
}

// collect materializes binding k's filtered rows.
func (ex *selectExec) collect(k int, sp *scanPlan) ([]Row, error) {
	var rows []Row
	err := ex.scan(k, sp, func() error {
		rows = append(rows, ex.fr.rows[k])
		return nil
	})
	return rows, err
}

// scan is the engine's one row loop: it reads binding k from its source
// — an index dive, a shared-scan convoy, or the table heap — binds each
// row, applies the binding's filter and hands the survivors to emit.
// Pieces of a convoy may arrive in convoy order (the scan position when
// this query attached), which is fine: every piece arrives exactly once,
// and row order within a heap scan carries no semantics.
func (ex *selectExec) scan(k int, sp *scanPlan, emit func() error) error {
	t := sp.table
	var src ScanSource
	bytes := &ex.stats.SeqBytes
	switch {
	case sp.index != nil:
		src, bytes = &sliceSource{rows: ex.dive(sp)}, &ex.stats.RandBytes
	case ex.prov != nil:
		if src = ex.prov(t); src != nil {
			bytes = &ex.stats.SharedSeqBytes
		}
	}
	if src == nil {
		src = &sliceSource{rows: t.Rows}
	}
	defer src.Close()

	width := int64(t.Schema.RowWidth())
	fr := &ex.fr
	for {
		// Cancellation lands at piece boundaries — the next NextPiece is
		// never issued, so a convoy source can be detached promptly — and
		// every interruptCheckRows rows within a piece.
		if err := ex.interrupted(); err != nil {
			return err
		}
		piece, ok := src.NextPiece()
		if !ok {
			break
		}
		ex.stats.RowsScanned += int64(len(piece))
		*bytes += int64(len(piece)) * width
	rows:
		for i, r := range piece {
			if i%interruptCheckRows == 0 && i > 0 {
				if err := ex.interrupted(); err != nil {
					return err
				}
			}
			fr.rows[k] = r
			for _, f := range sp.filter {
				v, null, err := f(fr)
				if err != nil {
					return err
				}
				if null || v == 0 {
					continue rows
				}
			}
			if err := emit(); err != nil {
				return err
			}
		}
	}
	// A detached (killed) source drains early; this check keeps its
	// partial scan from passing as a result.
	return ex.interrupted()
}

// dive fetches the rows an index dive finds, each once, in key order.
func (ex *selectExec) dive(sp *scanPlan) []Row {
	var rows []Row
	var seen map[int]bool
	if len(sp.keys) > 1 {
		seen = map[int]bool{}
	}
	for _, key := range sp.keys {
		for _, pos := range sp.index.lookup(key) {
			if seen != nil {
				if seen[pos] {
					continue
				}
				seen[pos] = true
			}
			rows = append(rows, sp.table.Rows[pos])
		}
		ex.stats.RandReads++
	}
	return rows
}

// extend joins binding k onto the joined rows so far (k rows per entry
// of cur), by hash join when the plan found an equi-join conjunct and by
// nested loop otherwise, and emits every joined row that passes the
// pending conjuncts.
func (ex *selectExec) extend(cur []Row, k int, sp *scanPlan, emit func() error) error {
	inner, err := ex.collect(k, sp)
	if err != nil {
		return err
	}
	var build map[string][]Row
	var key []byte
	if sp.probe != nil {
		build = make(map[string][]Row, len(inner))
		for _, r := range inner {
			if !IsNull(r[sp.buildCol]) {
				key = appendKey(key[:0], r[sp.buildCol])
				build[string(key)] = append(build[string(key)], r)
			}
		}
	}
	fr := &ex.fr
	for i := 0; i*k < len(cur); i++ {
		if i%interruptCheckRows == 0 {
			if err := ex.interrupted(); err != nil {
				return err
			}
		}
		copy(fr.rows[:k], cur[i*k:])
		matches := inner
		if build != nil {
			pv, err := sp.probe(fr)
			if err != nil {
				return err
			}
			if IsNull(pv) {
				continue
			}
			key = appendKey(key[:0], normalizeKey(pv))
			matches = build[string(key)]
		}
		ex.stats.PairsConsidered += int64(len(matches))
	rows:
		for _, r := range matches {
			fr.rows[k] = r
			for _, f := range sp.pending {
				v, null, err := f(fr)
				if err != nil {
					return err
				}
				if null || v == 0 {
					continue rows
				}
			}
			if err := emit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------- output: projection, aggregation, ordering ----------

type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggSpec is one aggregate call of the statement.
type aggSpec struct {
	kind     aggKind
	distinct bool
	arg      valueFn // nil for COUNT(*): every row counts
}

// aggAcc accumulates one aggregate over one group. The zero value is an
// empty accumulator.
type aggAcc struct {
	count    int64
	sumF     float64
	sumI     int64
	nonInt   bool
	min, max Value
	seen     map[string]struct{} // DISTINCT only
}

func (a *aggAcc) add(spec *aggSpec, v Value) {
	if IsNull(v) {
		return
	}
	if spec.distinct {
		k := string(appendKey(nil, v))
		if _, dup := a.seen[k]; dup {
			return
		}
		if a.seen == nil {
			a.seen = map[string]struct{}{}
		}
		a.seen[k] = struct{}{}
	}
	a.count++
	switch spec.kind {
	case aggSum, aggAvg:
		switch x := v.(type) {
		case int64:
			a.sumI += x
			a.sumF += float64(x)
		case float64:
			a.nonInt = true
			a.sumF += x
		case bool:
			a.sumI += boolToInt(x)
			a.sumF += float64(boolToInt(x))
		default:
			a.nonInt = true
		}
	case aggMin:
		if a.min == nil || less(v, a.min) {
			a.min = v
		}
	case aggMax:
		if a.max == nil || less(a.max, v) {
			a.max = v
		}
	}
}

// less reports a < b under Compare; incomparable values are not less.
func less(a, b Value) bool {
	if x, ok := a.(float64); ok {
		if y, ok := b.(float64); ok {
			return x < y
		}
	}
	c, err := Compare(a, b)
	return err == nil && c < 0
}

func (a *aggAcc) result(kind aggKind) Value {
	switch {
	case kind == aggCount:
		return a.count
	case kind == aggMin:
		return a.min
	case kind == aggMax:
		return a.max
	case a.count == 0:
		return nil
	case kind == aggAvg:
		return a.sumF / float64(a.count)
	case a.nonInt:
		return a.sumF
	}
	return a.sumI
}

// group is one GROUP BY bucket: the rows that opened it (what expressions
// outside aggregates evaluate against) and one accumulator per aggregate.
type group struct {
	first []Row
	accs  []aggAcc
}

// output is where a statement's surviving rows go: straight into result
// rows, or into per-group accumulators that become result rows when the
// scan ends.
type output struct {
	sel    *sqlparse.Select
	widths []int // columns of each FROM binding
	cols   []string
	items  []valueFn
	order  []valueFn // ORDER BY keys, evaluated beside the items

	grouped bool // the statement aggregates
	groupBy []valueFn
	aggs    []aggSpec
	groups  map[string]*group
	list    []*group // in first-seen order: the output order of groups
	key     []byte   // reused GROUP BY key buffer

	rows []Row
	keys [][]Value // ORDER BY key of each row
}

func (ex *selectExec) compileOutput(c *compiler) (*output, error) {
	sel := ex.sel
	o := &output{
		sel: sel, widths: make([]int, len(ex.bindings)),
		cols: make([]string, 0, len(sel.Items)), items: make([]valueFn, 0, len(sel.Items)),
	}
	for i, b := range ex.bindings {
		o.widths[i] = len(b.schema)
	}

	// Select-list aliases stand for their expressions in GROUP BY and
	// ORDER BY.
	substAlias := func(e sqlparse.Expr) sqlparse.Expr {
		if cr, ok := e.(*sqlparse.ColumnRef); ok && cr.Table == "" {
			for i := len(sel.Items) - 1; i >= 0; i-- {
				if it := sel.Items[i]; it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
					return it.Expr
				}
			}
		}
		return e
	}
	for _, g := range sel.GroupBy {
		n, err := c.compile(substAlias(g))
		if err != nil {
			return nil, err
		}
		o.groupBy = append(o.groupBy, n.scalar())
	}

	// Aggregate calls are legal from here on; each takes a slot of o.aggs.
	c.aggs = &o.aggs
	for _, it := range sel.Items {
		star, ok := it.Expr.(*sqlparse.Star)
		if ok {
			if err := ex.expandStar(star, o); err != nil {
				return nil, err
			}
			continue
		}
		n, err := c.compile(it.Expr)
		if err != nil {
			return nil, err
		}
		o.items = append(o.items, n.scalar())
		o.cols = append(o.cols, itemName(it))
	}
	for _, ord := range sel.OrderBy {
		n, err := c.compile(substAlias(ord.Expr))
		if err != nil {
			return nil, err
		}
		o.order = append(o.order, n.scalar())
	}
	c.aggs = nil

	o.grouped = len(o.aggs) > 0 || len(o.groupBy) > 0
	if len(o.groupBy) > 0 {
		o.groups = map[string]*group{}
	}
	return o, nil
}

// expandStar appends one item per column that `*` or `t.*` stands for.
func (ex *selectExec) expandStar(star *sqlparse.Star, o *output) error {
	found := false
	for bi, b := range ex.bindings {
		if star.Table != "" && !strings.EqualFold(b.name, star.Table) {
			continue
		}
		found = true
		o.items = slices.Grow(o.items, len(b.schema))
		o.cols = slices.Grow(o.cols, len(b.schema))
		for ci, col := range b.schema {
			n := colNode(bi, ci, col.Type)
			o.items = append(o.items, n.valueForm())
			o.cols = append(o.cols, col.Name)
		}
		if star.Table != "" {
			break
		}
	}
	if !found {
		return fmt.Errorf("sqlengine: unknown table %q in %s", star.Table, star.SQL())
	}
	return nil
}

// consume takes the joined row currently bound in fr.
func (o *output) consume(fr *frame) error {
	if !o.grouped {
		return o.emit(fr)
	}
	g, err := o.groupOf(fr)
	if err != nil {
		return err
	}
	for i := range o.aggs {
		spec := &o.aggs[i]
		if spec.arg == nil {
			g.accs[i].count++
			continue
		}
		v, err := spec.arg(fr)
		if err != nil {
			return err
		}
		g.accs[i].add(spec, v)
	}
	return nil
}

// groupOf finds or opens the group of the row bound in fr. The key is
// built in a reused buffer and looked up without becoming a string.
func (o *output) groupOf(fr *frame) (*group, error) {
	if len(o.groupBy) == 0 {
		if len(o.list) == 0 {
			o.openGroup(fr.rows)
		}
		return o.list[0], nil
	}
	key := o.key[:0]
	for _, g := range o.groupBy {
		v, err := g(fr)
		if err != nil {
			return nil, err
		}
		key = appendKey(key, v)
	}
	o.key = key
	g, ok := o.groups[string(key)]
	if !ok {
		g = o.openGroup(fr.rows)
		o.groups[string(key)] = g
	}
	return g, nil
}

func (o *output) openGroup(rows []Row) *group {
	g := &group{first: append([]Row(nil), rows...), accs: make([]aggAcc, len(o.aggs))}
	o.list = append(o.list, g)
	return g
}

// emit evaluates the select list (and ORDER BY keys) against fr into one
// result row: one allocation holds both.
func (o *output) emit(fr *frame) error {
	n := len(o.items)
	cells := make([]Value, n+len(o.order))
	for i, it := range o.items {
		v, err := it(fr)
		if err != nil {
			return err
		}
		cells[i] = v
	}
	for i, ord := range o.order {
		v, err := ord(fr)
		if err != nil {
			return err
		}
		cells[n+i] = v
	}
	o.rows = append(o.rows, cells[:n:n])
	if len(o.order) > 0 {
		o.keys = append(o.keys, cells[n:])
	}
	return nil
}

// result finishes the statement: groups become rows, then DISTINCT,
// ORDER BY and LIMIT apply.
func (o *output) result(fr *frame) (*Result, error) {
	if o.grouped {
		// A grand aggregate over empty input still yields one row, with
		// non-aggregate expressions evaluated against all-NULL rows.
		if len(o.list) == 0 && len(o.groupBy) == 0 {
			g := o.openGroup(fr.rows)
			for i, w := range o.widths {
				g.first[i] = make(Row, w)
			}
		}
		fr.aggs = make([]Value, len(o.aggs))
		for _, g := range o.list {
			fr.rows = g.first
			for i := range o.aggs {
				fr.aggs[i] = g.accs[i].result(o.aggs[i].kind)
			}
			if err := o.emit(fr); err != nil {
				return nil, err
			}
		}
	}
	rows, keys := o.rows, o.keys

	// DISTINCT before ORDER BY, on projected values.
	if o.sel.Distinct {
		seen := map[string]bool{}
		n := 0
		for i, r := range rows {
			k := GroupKey(r)
			if seen[k] {
				continue
			}
			seen[k] = true
			rows[n] = r
			if keys != nil {
				keys[n] = keys[i]
			}
			n++
		}
		rows = rows[:n]
	}

	if len(o.order) > 0 {
		sort.Stable(&rowSorter{rows: rows, keys: keys[:len(rows)], by: o.sel.OrderBy})
	}
	if limit := o.sel.Limit; limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	res := &Result{Cols: o.cols, Rows: rows}
	res.Types = inferTypes(res)
	return res, nil
}

// rowSorter orders result rows by their ORDER BY keys, NULLs first
// (MySQL ASC semantics).
type rowSorter struct {
	rows []Row
	keys [][]Value
	by   []sqlparse.OrderItem
}

func (s *rowSorter) Len() int { return len(s.rows) }

func (s *rowSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (s *rowSorter) Less(i, j int) bool {
	for k, o := range s.by {
		c := CompareNullsFirst(s.keys[i][k], s.keys[j][k])
		if c == 0 {
			continue
		}
		if o.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func rowBytes(r Row) int64 {
	var n int64
	for _, v := range r {
		switch x := v.(type) {
		case string:
			n += int64(len(x))
		default:
			n += 8
		}
	}
	return n
}

// inferTypes derives result column types from the first rows that carry
// non-NULL values.
func inferTypes(r *Result) []sqlparse.ColType {
	types := make([]sqlparse.ColType, len(r.Cols))
	decided := make([]bool, len(r.Cols))
	for i := range types {
		types[i] = sqlparse.TypeFloat
	}
	for _, row := range r.Rows {
		all := true
		for i, v := range row {
			if decided[i] {
				continue
			}
			switch v.(type) {
			case int64, bool:
				types[i] = sqlparse.TypeInt
				decided[i] = true
			case float64:
				types[i] = sqlparse.TypeFloat
				decided[i] = true
			case string:
				types[i] = sqlparse.TypeString
				decided[i] = true
			default:
				all = false
			}
		}
		if all {
			break
		}
	}
	return types
}
