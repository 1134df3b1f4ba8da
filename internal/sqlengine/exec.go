package sqlengine

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqlparse"
)

// ErrInterrupted marks a statement aborted through ExecOptions.Interrupt
// (query cancellation): the partial state is discarded and the executor
// returns between rows.
var ErrInterrupted = errors.New("sqlengine: statement interrupted")

// interruptCheckRows is how many rows a scan or join processes between
// interrupt checks — small enough that cancellation lands "between
// rows", large enough that the check never shows up in profiles. For a
// join a row is a pair it visits (or an outer row it probes to no match).
const interruptCheckRows = 512

// Prepared is a SELECT after the first two of its three steps: its FROM
// clause bound to the schemas of the tables it names, and every expression
// of it compiled against those bindings into a selectPlan. The third step,
// one pass over the rows, is a run, and a Prepared can be run any number of
// times — against the tables it names or against others of the same
// schemas handed to it (a chunk query's statements are one statement over
// one job's subchunk tables after another). What a plan takes from a
// table's data — an index to dive into, a hash join's build side, the order
// a band join walks — is looked for again by every run, which keeps none of
// its tables alive past it. The compiled closures keep scratch buffers, and
// so does the Prepared (its selection vector): one goroutine runs it at a time.
type Prepared struct {
	eng      *Engine
	sel      *sqlparse.Select
	bindings []binding
	funcsGen int // Engine.funcsGen at compile
	// countStar marks the statement the stored row count answers; plan is
	// nil for it and for a FROM-less select, which is evaluated whole by
	// every run.
	countStar bool
	plan      *selectPlan
	// vec is the selection vector every run's scans fill and narrow, a
	// block of positions at a time (selectExec.scan).
	vec []int32
}

// source is one table a run reads, and the state of it the run loaded
// when it started: rows appended later are not this run's.
type source struct {
	table *Table
	data  *tableData
}

// selectExec is one run of a Prepared.
type selectExec struct {
	from      []source // one per FROM binding
	interrupt <-chan struct{}
	stats     ExecStats
	fr        frame
	vec       []int32 // the Prepared's selection vector, grown as a scan needs
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

// poll counts one more row of work in n and looks at the interrupt on the
// first of every interruptCheckRows.
func (ex *selectExec) poll(n *int) error {
	*n++
	if (*n-1)%interruptCheckRows != 0 {
		return nil
	}
	return ex.interrupted()
}

// execSelectOpts is every SELECT's path: prepare, then one run against the
// tables the statement names, or the ones handed for its entries.
func (e *Engine) execSelectOpts(sel *sqlparse.Select, tables []*Table, opts ExecOptions) (*Result, error) {
	p, from, err := e.prepare(sel, tables)
	if err != nil {
		return nil, err
	}
	return p.run(from, opts)
}

// Prepare binds and compiles a SELECT for Run, over tables as Run takes them.
func (e *Engine) Prepare(sel *sqlparse.Select, tables []*Table) (*Prepared, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, _, err := e.prepare(sel, tables)
	return p, err
}

// prepare resolves the FROM clause and compiles the statement against it;
// it returns the tables it found beside the plan, for the caller that runs
// the statement at once. The caller holds e.mu.
func (e *Engine) prepare(sel *sqlparse.Select, tables []*Table) (*Prepared, []source, error) {
	p := &Prepared{eng: e, sel: sel, funcsGen: e.funcsGen}
	if len(sel.From) == 0 {
		return p, nil, nil
	}
	from := make([]source, len(sel.From))
	p.bindings = make([]binding, len(sel.From))
	for i := range sel.From {
		t, name, err := e.entry(sel.From, tables, i)
		if err != nil {
			return nil, nil, err
		}
		from[i].table = t
		p.bindings[i] = binding{name: name, schema: t.Schema}
		// Duplicate FROM names are ambiguous (self-join requires aliases).
		for _, b := range p.bindings[:i] {
			if strings.EqualFold(b.name, name) {
				return nil, nil, fmt.Errorf("sqlengine: duplicate table name/alias %q in FROM; use aliases", name)
			}
		}
	}
	if p.countStar = isCountStar(sel); p.countStar {
		return p, from, nil
	}
	var err error
	p.plan, err = p.compile(from)
	return p, from, err
}

// entry is FROM entry i: the table it reads — the one handed for it, else
// the one it names, in the database it names — and what expressions call
// it: its alias, else that table's name. The caller holds e.mu.
func (e *Engine) entry(from []sqlparse.TableRef, tables []*Table, i int) (*Table, string, error) {
	if tables != nil && tables[i] != nil {
		return tables[i], cmp.Or(from[i].Alias, tables[i].Name), nil
	}
	t, err := e.lookupTable(from[i].DB, from[i].Table)
	return t, from[i].Name(), err
}

// Run executes the statement under the given hooks. tables, when not nil,
// has one entry per FROM entry: the table it reads this time, or nil for
// the one it names. The answer is the statement's over those tables, an
// entry without an alias called by the name of the table it reads; where
// the plan cannot be shown to be that statement's — such an entry reads a
// table of another name, a schema is not the one compiled against, a
// function was registered since — the statement is prepared afresh.
func (p *Prepared) Run(tables []*Table, opts ExecOptions) (*Result, error) {
	e := p.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	fits := p.funcsGen == e.funcsGen
	from := make([]source, len(p.sel.From))
	for i := 0; fits && i < len(from); i++ {
		t, name, err := e.entry(p.sel.From, tables, i)
		if err != nil {
			return nil, err
		}
		from[i].table = t
		fits = sameSchema(t.Schema, p.bindings[i].schema) && p.bindings[i].name == name
	}
	if !fits {
		return e.execSelectOpts(p.sel, tables, opts)
	}
	return p.run(from, opts)
}

func sameSchema(a, b Schema) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true // the tables of one catalog table share its schema slice
	}
	for i := range a {
		if a[i].Type != b[i].Type || !strings.EqualFold(a[i].Name, b[i].Name) {
			return false
		}
	}
	return true
}

// run is the third step: one pass over the rows of tables, which have the
// schemas p was compiled against.
func (p *Prepared) run(tables []source, opts ExecOptions) (*Result, error) {
	switch {
	case len(p.sel.From) == 0:
		res, err := p.eng.execSelectNoFrom(p.sel)
		return deliver(res, err, opts.Sink)
	case p.countStar:
		return deliver(countStar(p.sel, tables[0].table), nil, opts.Sink)
	}
	ex := &selectExec{from: tables, interrupt: opts.Interrupt, vec: p.vec}
	ex.fr.cur = make([]cursor, len(tables))
	for i := range tables {
		tables[i].data = tables[i].table.data.Load()
		ex.fr.cur[i].cols = tables[i].data.cols
	}
	out := p.plan.out
	out.begin(opts.Sink, &ex.fr)
	defer out.end()
	err := ex.run(p.plan)
	p.vec = ex.vec
	if err != nil {
		return nil, err
	}
	res, err := out.finish(&ex.fr)
	if err != nil {
		return nil, err
	}
	ex.stats.RowsOut, ex.stats.ResultBytes = out.nrows, out.nbytes
	res.Stats = ex.stats
	return res, nil
}

// deliver hands a result that was made as rows — the stored row count, a
// FROM-less select — to the statement's sink, when it names one.
func deliver(res *Result, err error, sink Sink) (*Result, error) {
	if err != nil || sink == nil {
		return res, err
	}
	for _, r := range res.Rows {
		if err := writeRow(sink, r); err != nil {
			return nil, err
		}
	}
	res.Rows = nil
	return res, nil
}

// isCountStar recognises `SELECT COUNT(*) [AS alias] FROM t`, which is
// answered without scanning, as MyISAM does from its stored row count. The
// paper relies on this: High Volume 1 (a full-sky COUNT(*)) measures
// dispatch overhead, not I/O, because each worker answers its chunk count
// from table metadata. LIMIT 0 asks for no row, and is left to the ordinary
// path.
func isCountStar(sel *sqlparse.Select) bool {
	if len(sel.From) != 1 || sel.Where != nil || len(sel.GroupBy) != 0 ||
		len(sel.OrderBy) != 0 || sel.Distinct || len(sel.Items) != 1 || sel.Limit == 0 {
		return false
	}
	fc, ok := sel.Items[0].Expr.(*sqlparse.FuncCall)
	if !ok || fc.Key() != "count" || fc.Distinct || len(fc.Args) != 1 {
		return false
	}
	_, isStar := fc.Args[0].(*sqlparse.Star)
	return isStar
}

// countStar answers a statement isCountStar recognised.
func countStar(sel *sqlparse.Select, t *Table) *Result {
	res := &Result{
		Cols:  itemNames(sel.Items),
		Types: []sqlparse.ColType{sqlparse.TypeInt},
		Rows:  []Row{{int64(t.Len())}},
	}
	res.Stats.RowsOut = 1
	res.Stats.ResultBytes = 8
	return res
}

// execSelectNoFrom evaluates a FROM-less select (constants only).
func (e *Engine) execSelectNoFrom(sel *sqlparse.Select) (*Result, error) {
	c := compiler{funcs: e.funcs}
	n := len(sel.Items)
	res := &Result{Cols: itemNames(sel.Items), Types: make([]sqlparse.ColType, n)}
	items, typed := make([]node, n), make([]bool, n)
	for i, it := range sel.Items {
		var err error
		if items[i], err = c.constNode(it.Expr); err != nil {
			return nil, err
		}
		res.Types[i], typed[i] = items[i].kind.colType(), items[i].kind != kindAny
	}
	if sel.Where != nil {
		v, err := c.constValue(sel.Where)
		if err != nil {
			return nil, err
		}
		if !AsBool(v) {
			return res, nil
		}
	}
	if sel.Limit == 0 {
		return res, nil
	}
	row := make(Row, n)
	for i := range items {
		var err error
		if row[i], err = items[i].valueForm()(new(frame)); err != nil {
			return nil, err
		}
	}
	res.Rows = []Row{row}
	inferTypes(res.Types, typed, res.Rows)
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
	// diveCol, when not negative, is the column of a `col = const` or `col IN
	// (consts)` conjunct that an index on it answers by diving for keys (the
	// worker-side objectId index of section 5.5). The statement was compiled
	// against a table that has the index; a run whose table has not scans,
	// with the conjunct — divePred — back at its place in filter, diveAt.
	diveCol  int
	keys     []Value
	divePred conjunct
	diveAt   int
	// filter holds the conjuncts over this binding alone (less the one an
	// index dive answers), in WHERE order.
	filter []conjunct
	// pending holds the conjuncts that become decidable once this binding
	// joins the earlier ones. If one of them equates a column of this
	// binding to an expression over the earlier ones, and the two compare
	// as the same kind of value, it is taken out of pending and answered
	// by a hash join.
	pending []intFn
	join    *hashJoin
	// band, when set, says pending[0] is a comparison that is false outside
	// a band of one of this binding's columns: over a table sorted on that
	// column, each joined row visits only the band (see bandJoin).
	band *bandJoin
}

// conjunct is a filter conjunct: its row form, and its block form where it
// has one (blockFn).
type conjunct struct {
	row   intFn
	block blockFn
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

// compile builds the statement's plan; tables are the ones prepare found,
// whose indexes decide what dives are planned.
func (p *Prepared) compile(tables []source) (*selectPlan, error) {
	c := &compiler{bindings: p.bindings, funcs: p.eng.funcs}
	plan := &selectPlan{scans: make([]scanPlan, len(tables))}
	for k := range plan.scans {
		plan.scans[k].diveCol = -1
	}

	// Every ANDed conjunct of WHERE goes to the binding that completes
	// the set it references: as a filter if it references that binding
	// alone, as a join predicate otherwise. Constant ones are decided
	// here; the first that is not true empties the result.
	for _, e := range splitConjuncts(p.sel.Where, nil) {
		c.resetRefs()
		n, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		pred, k := n.truth(), c.hi
		sp := &plan.scans[max(k, 0)]
		switch {
		case k < 0:
			if plan.empty {
				break
			}
			v, null, err := pred(new(frame))
			if err != nil {
				return nil, err
			}
			plan.empty = null || v == 0
		case c.lo < k:
			if sp.join == nil && p.planHashJoin(c, sp, e, k) {
				break
			}
			if len(sp.pending) == 0 {
				sp.band = planBand(&n, k)
			}
			sp.pending = append(sp.pending, pred)
		default:
			f := conjunct{row: pred, block: n.block}
			if sp.diveCol < 0 && planIndexDive(c, sp, e, tables[k].table) {
				sp.divePred, sp.diveAt = f, len(sp.filter)
				break
			}
			sp.filter = append(sp.filter, f)
		}
	}

	out, err := p.compileOutput(c)
	if err != nil {
		return nil, err
	}
	plan.out = out
	return plan, nil
}

// planIndexDive recognizes `col = <const>` and `col IN (<consts>)` on an
// indexed column of t, the table sp's binding was prepared on (e references
// that binding alone), and records the dive. Keys are converted to the
// column's type; where one has no exact counterpart there (see indexKey) the
// conjunct stays a filter.
func planIndexDive(c *compiler, sp *scanPlan, e sqlparse.Expr, t *Table) bool {
	d := t.data.Load()
	col := func(x sqlparse.Expr) (int, sqlparse.ColType) {
		if cr, ok := x.(*sqlparse.ColumnRef); ok {
			if ci := t.Schema.ColIndex(cr.Column); ci >= 0 && d.index(ci) != nil {
				return ci, t.Schema[ci].Type
			}
		}
		return -1, 0
	}
	key := func(x sqlparse.Expr, typ sqlparse.ColType) (Value, bool) {
		v, err := c.constValue(x)
		if err != nil {
			return nil, false
		}
		return indexKey(v, typ)
	}
	switch v := e.(type) {
	case *sqlparse.BinaryExpr:
		if v.Op != "=" {
			return false
		}
		for _, side := range [2][2]sqlparse.Expr{{v.L, v.R}, {v.R, v.L}} {
			if ci, typ := col(side[0]); ci >= 0 {
				if k, ok := key(side[1], typ); ok {
					sp.diveCol, sp.keys = ci, []Value{k}
					return true
				}
			}
		}
	case *sqlparse.InExpr:
		ci, typ := col(v.X)
		if v.Not || ci < 0 {
			return false
		}
		keys := make([]Value, len(v.List))
		for i, item := range v.List {
			k, ok := key(item, typ)
			if !ok {
				return false
			}
			keys[i] = k
		}
		sp.diveCol, sp.keys = ci, keys
		return true
	}
	return false
}

// hashJoin is an equi-join conjunct the plan answers by hashing: column
// col of the binding being joined against probe, an expression over the
// earlier bindings. Both keys are taken in the one domain the conjunct's
// `=` would compare them in — int64 when both are integers, float64 when
// both are numbers, string when both are strings — so the hash join finds
// exactly the pairs the comparison accepts.
type hashJoin struct {
	domain kind
	col    int
	// The probe expression, in the form the domain selects.
	probeInt   intFn
	probeFloat floatFn
	probeStr   strFn
}

// planHashJoin recognizes an equi-join conjunct — a column of binding k
// equated to an expression over earlier bindings only. One whose sides
// have no common domain known at compile time (a VARCHAR column against a
// number parses the string, row by row) is left to the nested loop.
func (p *Prepared) planHashJoin(c *compiler, sp *scanPlan, e sqlparse.Expr, k int) bool {
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
		build := colNode(bi, ci, p.bindings[k].schema[ci].Type)
		switch {
		case build.kind == kindInt && probe.kind == kindInt:
			sp.join = &hashJoin{domain: kindInt, col: ci, probeInt: probe.intForm()}
		case build.kind.numeric() && probe.kind.numeric():
			sp.join = &hashJoin{domain: kindFloat, col: ci, probeFloat: probe.floatForm()}
		case build.kind == kindString && probe.kind == kindString:
			sp.join = &hashJoin{domain: kindString, col: ci, probeStr: probe.strForm()}
		default:
			continue
		}
		return true
	}
	return false
}

// bandJoin is a join conjunct `f(x1, y1, x2, y2) <|<= c` (pending[0] of its
// binding) that its builtin's guard answers above — so the conjunct false —
// for every pair outside a band: both y inside the guard's domain and
// further apart than the band allows (declBand; f is qserv_angSep, y a
// declination). x2 and y2 are columns of the binding being joined; x1 and y1
// are columns of earlier bindings or constants, so reading them cannot fail.
//
// Over a table that declares itself sorted on y2 (Table.MarkSorted) each
// joined row then visits, of the binding's rows, only those the guard does
// not answer above for: the rows before the sorted run, whatever they hold;
// the rows of the run within the band of its y1 — a contiguous window, found
// by searching with the guard's own comparison; and the rows whose x2 no
// difference is safely finite with. A row it skips is one for which the
// nested loop evaluates this conjunct first, finds it false from the column
// cells alone, and moves on: nothing is emitted, nothing fails, nothing later
// in pending is evaluated. Every pair it visits goes through pending
// unchanged. The rows, NULLs and errors are the nested loop's by
// construction; only ExecStats.PairsConsidered, which counts pairs visited,
// tells the two apart.
type bandJoin struct {
	b      declBand
	x1, y1 floatFn
	x2, y2 int
}

// planBand recognises the conjunct bandJoin describes in a compiled
// comparison over bindings up to k.
func planBand(n *node, k int) *bandJoin {
	if n.band == nil || len(n.band.call.nodes) != 4 {
		return nil
	}
	tc := n.band.call
	for i := range tc.nodes {
		a := &tc.nodes[i]
		switch {
		case i >= 2 && a.isCol && a.bi == k:
		case i < 2 && ((a.isCol && a.bi < k) || a.isLit):
		default:
			return nil
		}
	}
	return &bandJoin{b: n.band.b, x1: tc.nodes[0].floatForm(), y1: tc.nodes[1].floatForm(), x2: tc.nodes[2].ci, y2: tc.nodes[3].ci}
}

// joinTable is the build side of one hash join: the rows of the joined
// binding that passed its filter, hashed by their key. Rows whose key is
// NULL are left out: NULL equals nothing.
type joinTable struct {
	chains
	pos []int // entry -> row position
	// The key of each entry, in the slice the join's domain selects.
	ints   []int64
	floats []float64
	strs   []string
	// nans are the rows whose float key is NaN, which this dialect's `=`
	// holds equal to every number (see threeWay); all are the non-NULL
	// rows, what a NaN probe matches.
	nans, all []int
	out       []int
}

func (j *hashJoin) build(d *tableData, inner []int) *joinTable {
	jt := &joinTable{chains: newChains(len(inner))}
	col := &d.cols[j.col]
	for _, p := range inner {
		if col.null(p) {
			continue
		}
		switch j.domain {
		case kindInt:
			jt.ints = append(jt.ints, col.ints[p])
			jt.link(hashInt(col.ints[p]))
		case kindFloat:
			f := 0.0
			if col.typ == sqlparse.TypeInt {
				f = float64(col.ints[p])
			} else {
				f = col.floats[p]
			}
			jt.all = append(jt.all, p)
			if f != f {
				jt.nans = append(jt.nans, p)
				continue
			}
			jt.floats = append(jt.floats, f)
			jt.link(hashFloat(f))
		default:
			jt.strs = append(jt.strs, col.strs[p])
			jt.link(hashString(col.strs[p]))
		}
		jt.pos = append(jt.pos, p)
	}
	return jt
}

// probe returns the positions of the build rows whose key equals the
// probe expression's value for the rows bound in fr, in the order they
// were collected (by position where NaN keys join in). The slice is
// reused by the next probe.
func (jt *joinTable) probe(j *hashJoin, fr *frame) ([]int, error) {
	out := jt.out[:0]
	switch j.domain {
	case kindInt:
		k, null, err := j.probeInt(fr)
		if err != nil || null {
			return nil, err
		}
		out = walk(&jt.chains, hashInt(k), jt.ints, k, out)
	case kindFloat:
		k, null, err := j.probeFloat(fr)
		if err != nil || null {
			return nil, err
		}
		if k != k {
			return jt.all, nil
		}
		out = walk(&jt.chains, hashFloat(k), jt.floats, k, out)
	default:
		k, null, err := j.probeStr(fr)
		if err != nil || null {
			return nil, err
		}
		out = walk(&jt.chains, hashString(k), jt.strs, k, out)
	}
	for i, entry := range out {
		out[i] = jt.pos[entry]
	}
	if len(jt.nans) > 0 {
		out = append(out, jt.nans...)
		slices.Sort(out)
	} else {
		slices.Reverse(out)
	}
	jt.out = out
	return out, nil
}

// ---------- run: one pass over the rows ----------

// run drives the plan's scans into its output. A single-table statement
// is one loop, source to output, with nothing materialized in between; a
// join materializes the positions of each binding's filtered rows and of
// the joined rows of every stage but the last, which again feeds the
// output directly.
func (ex *selectExec) run(p *selectPlan) error {
	if p.empty {
		return nil
	}
	last := len(p.scans) - 1
	if last == 0 {
		return ex.scan(0, &p.scans[0], p.out)
	}
	// cur holds the joined rows so far, flat: k positions per entry once k
	// bindings are joined.
	cur, err := ex.collect(0, &p.scans[0])
	if err != nil {
		return err
	}
	for k := 1; k < last; k++ {
		next := &positions{to: k}
		if err := ex.extend(cur, k, &p.scans[k], next); err != nil {
			return err
		}
		cur = next.rows
	}
	return ex.extend(cur, last, &p.scans[last], p.out)
}

// consumer takes each row a scan or a join emits, bound in the frame: the
// statement's output, or the positions a join materializes.
type consumer interface {
	consume(fr *frame) error
}

// positions materializes the positions of bindings from..to of each row it
// takes, flat.
type positions struct {
	from, to int
	rows     []int
}

func (p *positions) consume(fr *frame) error {
	for i := p.from; i <= p.to; i++ {
		p.rows = append(p.rows, fr.cur[i].pos)
	}
	return nil
}

// collect materializes the positions of binding k's filtered rows.
func (ex *selectExec) collect(k int, sp *scanPlan) ([]int, error) {
	rows := &positions{from: k, to: k}
	err := ex.scan(k, sp, rows)
	return rows.rows, err
}

// blockFormsOff makes every scan run its whole filter row by row and hand
// the output one row at a time: tests set it to hold the block forms' and
// the fold's answers to the row forms'.
var blockFormsOff bool

// scan is the engine's one row loop: it walks the positions an index dive
// found, or the whole table, a block of interruptCheckRows at a time, and
// hands the rows the binding's filter keeps to out. Each block's positions
// fill the selection vector; the leading run of the filter's conjuncts that
// have a block form narrows it, conjunct after conjunct; the rest of the
// filter runs on each row left, in WHERE order, right before the row is
// emitted. A conjunct therefore sees exactly the rows every earlier one
// kept, as it would row by row; that a block form also saw the rows of its
// block after a later conjunct's error is not observable, since it cannot
// fail and changes nothing. Where the block forms are the whole filter and
// the output folds (output.fold), the narrowed vector goes to the output as
// it is.
func (ex *selectExec) scan(k int, sp *scanPlan, out consumer) error {
	table, data := ex.from[k].table, ex.from[k].data
	filter := sp.filter
	var index *hashIndex
	if sp.diveCol >= 0 {
		if index = data.index(sp.diveCol); index == nil {
			filter = slices.Insert(slices.Clone(filter), sp.diveAt, sp.divePred)
		}
	}
	// This statement reads the rows the table had at bind: 0..n, or the
	// positions a dive found among them.
	n, bytes := data.n, &ex.stats.SeqBytes
	var found []int
	dive := index != nil
	if dive {
		found = ex.dive(sp, index, data)
		n, bytes = len(found), &ex.stats.RandBytes
	}
	ex.stats.RowsScanned += int64(n)
	*bytes += int64(n) * int64(table.Schema.RowWidth())

	lead := 0
	for !blockFormsOff && lead < len(filter) && filter[lead].block != nil {
		lead++
	}
	blocks, rest := filter[:lead], filter[lead:]
	fold, _ := out.(*output)
	if fold != nil && (!fold.folds || len(rest) > 0 || blockFormsOff) {
		fold = nil
	}
	// Where the block forms are the whole filter and out collects binding
	// k's positions alone (collect), each block's narrowed vector is what
	// it takes, whole, as a fold does.
	keep, _ := out.(*positions)
	if keep != nil && (keep.from != k || keep.to != k || len(rest) > 0 || blockFormsOff) {
		keep = nil
	}
	if size := min(n, interruptCheckRows); cap(ex.vec) < size {
		ex.vec = make([]int32, 0, size)
	}
	fr, cur := &ex.fr, &ex.fr.cur[k]
	for start := 0; start < n; start += interruptCheckRows {
		if err := ex.interrupted(); err != nil {
			return err
		}
		sel := ex.vec[:min(interruptCheckRows, n-start)]
		if dive {
			for i, pos := range found[start : start+len(sel)] {
				sel[i] = int32(pos)
			}
		} else {
			for i := range sel {
				sel[i] = int32(start + i)
			}
		}
		for _, f := range blocks {
			sel = f.block(cur.cols, sel)
		}
		if fold != nil {
			if err := fold.fold(fr, cur, sel); err != nil {
				return err
			}
			continue
		}
		if keep != nil {
			keep.rows = slices.Grow(keep.rows, len(sel))
			for _, pos := range sel {
				keep.rows = append(keep.rows, int(pos))
			}
			continue
		}
	rows:
		for _, pos := range sel {
			cur.pos = int(pos)
			for _, f := range rest {
				v, null, err := f.row(fr)
				if err != nil {
					return err
				}
				if null || v == 0 {
					continue rows
				}
			}
			if err := out.consume(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// dive returns the positions of the rows an index dive finds, each once,
// in key order.
func (ex *selectExec) dive(sp *scanPlan, index *hashIndex, data *tableData) []int {
	var found []int
	var seen map[Value]bool
	if len(sp.keys) > 1 {
		seen = map[Value]bool{}
	}
	for _, key := range sp.keys {
		ex.stats.RandReads++
		if seen != nil {
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		found = index.lookup(data, key, found)
	}
	return found
}

// extend joins binding k onto the joined rows so far (k positions per
// entry of cur) — by hash join when the plan found an equi-join conjunct, by
// band join when it found a band conjunct and the table is sorted for it,
// and by nested loop otherwise — and emits every joined row that passes the
// pending conjuncts.
func (ex *selectExec) extend(cur []int, k int, sp *scanPlan, out consumer) error {
	inner, err := ex.collect(k, sp)
	if err != nil {
		return err
	}
	var build *joinTable
	var band *bandRun
	if sp.join != nil {
		build = sp.join.build(ex.from[k].data, inner)
	} else if sp.band != nil {
		band = sp.band.over(ex.from[k].data, inner)
	}
	fr := &ex.fr
	// visited counts the outer rows and the pairs gone through: the nested
	// loop visits every inner row per outer row, so counting outer rows
	// alone would let a kill wait for interruptCheckRows * |inner| pairs.
	visited := 0
	// runs are the inner rows this outer row visits, in position order: all
	// of them, the ones the hash probe found, or the band join's four runs.
	var runs [4][]int
	for i := 0; i*k < len(cur); i++ {
		if err := ex.poll(&visited); err != nil {
			return err
		}
		for b, pos := range cur[i*k : (i+1)*k] {
			fr.cur[b].pos = pos
		}
		switch {
		case build != nil:
			if runs[0], err = build.probe(sp.join, fr); err != nil {
				return err
			}
		case band != nil:
			band.visit(fr, &runs)
		default:
			runs[0] = inner
		}
		for _, run := range runs {
			ex.stats.PairsConsidered += int64(len(run))
		rows:
			for _, pos := range run {
				if err := ex.poll(&visited); err != nil {
					return err
				}
				fr.cur[k].pos = pos
				for _, f := range sp.pending {
					v, null, err := f(fr)
					if err != nil {
						return err
					}
					if null || v == 0 {
						continue rows
					}
				}
				if err := out.consume(fr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// bandJoinOff turns the band join off: tests set it to hold the band join's
// answers to the nested loop's.
var bandJoinOff bool

// bandRun is a band join over the filtered rows of one table state.
type bandRun struct {
	*bandJoin
	inner []int
	// sorted is the index in inner of the first row of the table's sorted
	// run: the rows before it are visited always.
	sorted int
	y2     []float64
	// loose lists, ascending, the rows of the sorted part no window may
	// skip — the RA is not safe — as indices into inner and as positions.
	looseAt, loose []int
}

// over readies the band join for a run over d, of whose rows inner passed
// the binding's filter; nil when d is not sorted for it, and the nested
// loop has to do.
func (j *bandJoin) over(d *tableData, inner []int) *bandRun {
	run := d.sorted
	if bandJoinOff || run == nil || run.col != j.y2 || run.lo < declMin || run.hi > declMax || !slices.IsSorted(inner) {
		return nil
	}
	r := &bandRun{bandJoin: j, inner: inner, y2: d.cols[j.y2].floats}
	r.sorted, _ = slices.BinarySearch(inner, run.from)
	if x2 := &d.cols[j.x2]; x2.typ == sqlparse.TypeFloat {
		for at, pos := range inner[r.sorted:] {
			if !raSafe(x2.floats[pos]) {
				r.looseAt, r.loose = append(r.looseAt, r.sorted+at), append(r.loose, pos)
			}
		}
	}
	return r
}

// visit sets runs to the inner rows the outer row bound in fr visits.
func (r *bandRun) visit(fr *frame, runs *[4][]int) {
	*runs = [4][]int{r.inner}
	x1, xnull, _ := r.x1(fr)
	y1, ynull, _ := r.y1(fr)
	if xnull || ynull || !raSafe(x1) || !r.b.inDomain(y1) {
		return // the guard decides nothing for this row: every pair is evaluated
	}
	// Over the sorted run y2 ascends, so y1 - y2 descends: the rows too far
	// below y1 are a prefix of it, the rows too far above a suffix.
	rest := r.inner[r.sorted:]
	lo, _ := slices.BinarySearchFunc(rest, y1, func(pos int, y1 float64) int {
		if y2 := r.y2[pos]; y2 < y1 && r.b.apart(y1, y2) {
			return -1
		}
		return 1
	})
	hi, _ := slices.BinarySearchFunc(rest[lo:], y1, func(pos int, y1 float64) int {
		if y2 := r.y2[pos]; y2 > y1 && r.b.apart(y1, y2) {
			return 1
		}
		return -1
	})
	lo, hi = r.sorted+lo, r.sorted+lo+hi
	before, _ := slices.BinarySearch(r.looseAt, lo)
	after, _ := slices.BinarySearch(r.looseAt, hi)
	*runs = [4][]int{r.inner[:r.sorted], r.loose[:before], r.inner[lo:hi], r.loose[after:]}
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

// aggSpec is one aggregate call of the statement. Its argument is
// consumed through the typed form its kind selects, so accumulating a
// number or a string never boxes it. COUNT(*) has no argument (the zero
// operand): every row counts.
type aggSpec struct {
	kind     aggKind
	distinct bool
	arg      operand
}

// extreme is a running MIN or MAX, in the field the argument's kind
// selects.
type extreme struct {
	i int64
	f float64
	s string
	v Value
}

func (e *extreme) box(k kind) Value {
	switch k {
	case kindInt:
		return e.i
	case kindFloat:
		return e.f
	case kindString:
		return e.s
	}
	return e.v
}

// aggAcc accumulates one aggregate over one group. The zero value is an
// empty accumulator.
type aggAcc struct {
	count  int64 // the non-NULL values taken
	sumF   float64
	sumI   int64
	nonInt bool
	ext    extreme             // the running MIN or MAX
	seen   map[string]struct{} // DISTINCT only
}

// take reports whether a typed aggregate argument's value counts: not NULL
// and, under DISTINCT, not seen.
func take[T ordered](o *output, spec *aggSpec, a *aggAcc, v T, null bool, enc func([]byte, T) []byte) bool {
	if null {
		return false
	}
	if spec.distinct {
		o.scratch = enc(o.scratch[:0], v)
		return a.firstSight(o.scratch)
	}
	return true
}

// firstSight records a DISTINCT key and reports whether it is new.
func (a *aggAcc) firstSight(key []byte) bool {
	if _, dup := a.seen[string(key)]; dup {
		return false
	}
	if a.seen == nil {
		a.seen = map[string]struct{}{}
	}
	a.seen[string(key)] = struct{}{}
	return true
}

// better reports whether x replaces the running extreme cur of an
// accumulator that has taken count values, x included. A NaN is neither
// below nor above anything: it stays if it came first and never replaces.
func better[T ordered](kind aggKind, count int64, x, cur T) bool {
	return count == 1 || (kind == aggMin && x < cur) || (kind == aggMax && x > cur)
}

func (a *aggAcc) addInt(kind aggKind, x int64) {
	a.count++
	switch kind {
	case aggSum, aggAvg:
		a.sumI += x
		a.sumF += float64(x)
	case aggMin, aggMax:
		if better(kind, a.count, x, a.ext.i) {
			a.ext.i = x
		}
	}
}

func (a *aggAcc) addFloat(kind aggKind, x float64) {
	a.count++
	switch kind {
	case aggSum, aggAvg:
		a.nonInt = true
		a.sumF += x
	case aggMin, aggMax:
		if better(kind, a.count, x, a.ext.f) {
			a.ext.f = x
		}
	}
}

func (a *aggAcc) addString(kind aggKind, x string) {
	a.count++
	switch kind {
	case aggSum, aggAvg:
		a.nonInt = true // a string adds nothing to a sum
	case aggMin, aggMax:
		if better(kind, a.count, x, a.ext.s) {
			a.ext.s = x
		}
	}
}

// add takes a boxed, non-NULL value: the form an argument of no static
// kind (a UDF's result, a mixed-type expression) arrives in.
func (a *aggAcc) add(kind aggKind, v Value) {
	a.count++
	switch kind {
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
		if a.count == 1 || less(v, a.ext.v) {
			a.ext.v = v
		}
	case aggMax:
		if a.count == 1 || less(a.ext.v, v) {
			a.ext.v = v
		}
	}
}

// folds reports whether the aggregate takes a run of rows at a time
// (aggAcc.fold): COUNT(*), or an aggregate of a BIGINT or DOUBLE column that
// is not DISTINCT.
func (s *aggSpec) folds() bool {
	a := &s.arg
	return !s.distinct && ((a.isCol && a.kind.numeric()) || (a.kind == kindAny && a.value == nil))
}

// fold takes the rows at the positions run, in their order, as consume
// takes them one by one: the same operations on the same fields, one
// accumulator, no reassociation, so a DOUBLE sum has the bits the row loop
// gives it and MIN/MAX follow better. COUNT(*) counts the run; a column
// whose NULL bitmap has no words skips the NULL test.
func (a *aggAcc) fold(spec *aggSpec, run []int32) {
	arg := &spec.arg
	if !arg.isCol {
		a.count += int64(len(run))
		return
	}
	c := arg.col
	nulls := len(c.nulls) > 0
	switch {
	case spec.kind == aggCount:
		a.count += int64(len(run))
		for _, p := range run {
			if nulls && c.null(int(p)) {
				a.count--
			}
		}
	case spec.kind == aggMin || spec.kind == aggMax:
		if arg.kind == kindInt {
			a.count, a.ext.i = foldExtreme(spec.kind, a.count, a.ext.i, c.ints, c, run)
		} else {
			a.count, a.ext.f = foldExtreme(spec.kind, a.count, a.ext.f, c.floats, c, run)
		}
	case arg.kind == kindInt: // SUM, AVG
		count, sumI, sumF := a.count, a.sumI, a.sumF
		for _, p := range run {
			if nulls && c.null(int(p)) {
				continue
			}
			x := c.ints[p]
			count, sumI, sumF = count+1, sumI+x, sumF+float64(x)
		}
		a.count, a.sumI, a.sumF = count, sumI, sumF
	default:
		count, sumF := a.count, a.sumF
		for _, p := range run {
			if nulls && c.null(int(p)) {
				continue
			}
			count, sumF = count+1, sumF+c.floats[p]
		}
		a.nonInt = a.nonInt || count > a.count
		a.count, a.sumF = count, sumF
	}
}

// foldExtreme is a running MIN or MAX (ext, over count values so far) taken
// over the cells xs of c at the positions run.
func foldExtreme[T number](kind aggKind, count int64, ext T, xs []T, c *column, run []int32) (int64, T) {
	nulls := len(c.nulls) > 0
	for _, p := range run {
		if nulls && c.null(int(p)) {
			continue
		}
		count++
		if x := xs[p]; better(kind, count, x, ext) {
			ext = x
		}
	}
	return count, ext
}

// less reports a < b under Compare; incomparable values are not less.
func less(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c < 0
}

func (a *aggAcc) result(spec *aggSpec) Value {
	switch {
	case spec.kind == aggCount:
		return a.count
	case a.count == 0:
		return nil
	case spec.kind == aggMin || spec.kind == aggMax:
		return a.ext.box(spec.arg.kind)
	case spec.kind == aggAvg:
		return a.sumF / float64(a.count)
	case a.nonInt:
		return a.sumF
	}
	return a.sumI
}

// group is one GROUP BY bucket: the positions of the rows that opened it
// (what expressions outside aggregates evaluate against; nil for the
// all-NULL rows of a grand aggregate over no input) and one accumulator
// per aggregate.
type group struct {
	first []int
	accs  []aggAcc
}

// output is where a statement's surviving rows go: each becomes the
// cells of one result row, or feeds per-group accumulators that become
// result rows when the scan ends. A result row is written, cell by cell
// and unboxed where the compiler knew the cell's kind, to a Sink: the
// statement's own when rows leave in the order they are found, else held,
// where rows wait for finish to deduplicate, sort and cut them.
type output struct {
	sel     *sqlparse.Select
	schemas []Schema // of each FROM binding
	cols    []string
	items   []operand
	order   []operand // ORDER BY keys, evaluated beside the items

	grouped bool // the statement aggregates
	// folds is set on a grouped statement whose GROUP BY is empty or one
	// BIGINT column and whose every aggregate folds (aggSpec.folds): a scan
	// hands it whole selection vectors (fold).
	folds   bool
	groupBy []keyFn
	aggs    []aggSpec
	groups  map[string]*group
	list    []*group // in first-seen order: the output order of groups
	key     []byte   // reused GROUP BY key buffer
	scratch []byte   // reused DISTINCT key buffer
	// last is the group of the previous row and lastKey its key: a row
	// whose key is the same bytes skips the map (a chunk statement's GROUP
	// BY chunkId is one group for the whole table).
	last    *group
	lastKey []byte
	// intKey is the GROUP BY's one key when that is a BIGINT column, and
	// lastInt, when lastIntOK, last's key as the int64 it is: a row whose
	// cell equals it skips building the key too.
	intKey    operand
	lastInt   int64
	lastIntOK bool

	// sink is the statement's: the caller's, or boxed for a caller that
	// named none, whose rows become Result.Rows. held is set under DISTINCT
	// or ORDER BY; its rows are the select list followed by the ORDER BY
	// keys. dst is the one of the two emit writes to.
	sink, dst Sink
	boxed     *Boxer
	held      *Boxer
	str       []byte // the cell handed to Sink.Str

	// types are the result column types: what the compiler declares for an
	// item it could type — on every chunk, rows or no rows — and for the
	// others (typed is false) the type of the first non-NULL cell that
	// leaves, DOUBLE while there is none.
	types []sqlparse.ColType
	typed []bool
	// nrows and nbytes meter the rows that left: ExecStats.RowsOut and
	// ResultBytes.
	nrows, nbytes int64
}

func (p *Prepared) compileOutput(c *compiler) (*output, error) {
	sel := p.sel
	o := &output{
		sel: sel, schemas: make([]Schema, len(p.bindings)),
		cols: make([]string, 0, len(sel.Items)), items: make([]operand, 0, len(sel.Items)),
	}
	for i, b := range p.bindings {
		o.schemas[i] = b.schema
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
		o.groupBy = append(o.groupBy, n.key())
		if len(sel.GroupBy) == 1 && n.isCol && n.kind == kindInt {
			o.intKey = n.operand()
		}
	}

	// Aggregate calls are legal from here on; each takes a slot of o.aggs.
	c.aggs = &o.aggs
	for _, it := range sel.Items {
		star, ok := it.Expr.(*sqlparse.Star)
		if ok {
			if err := p.expandStar(star, o); err != nil {
				return nil, err
			}
			continue
		}
		n, err := c.compile(it.Expr)
		if err != nil {
			return nil, err
		}
		o.items = append(o.items, n.operand())
		o.cols = append(o.cols, itemName(it))
	}
	for _, ord := range sel.OrderBy {
		n, err := c.compile(substAlias(ord.Expr))
		if err != nil {
			return nil, err
		}
		o.order = append(o.order, n.operand())
	}
	c.aggs = nil
	o.grouped = len(o.aggs) > 0 || len(o.groupBy) > 0
	o.folds = o.grouped && (len(o.groupBy) == 0 || o.intKey.isCol)
	for i := range o.aggs {
		o.folds = o.folds && o.aggs[i].folds()
	}
	return o, nil
}

// begin readies the output for one run over the cursors of fr writing to
// sink (nil boxes the rows into Result.Rows): nothing of an earlier run is
// left in it.
func (o *output) begin(sink Sink, fr *frame) {
	o.bind(fr)
	o.sink, o.boxed, o.held = sink, nil, nil
	if sink == nil {
		o.boxed = &Boxer{}
		o.sink = o.boxed
	}
	o.dst = o.sink
	if o.sel.Distinct || len(o.sel.OrderBy) > 0 {
		o.held = &Boxer{}
		o.dst = o.held
	}
	// A run's result keeps its types: they are made per run.
	o.types, o.typed = make([]sqlparse.ColType, len(o.items)), make([]bool, len(o.items))
	for i, it := range o.items {
		o.types[i], o.typed[i] = it.kind.colType(), it.kind != kindAny
	}
	o.groups, o.list, o.last, o.lastIntOK, o.nrows, o.nbytes = nil, nil, nil, false, 0, 0
	if len(o.groupBy) > 0 {
		o.groups = map[string]*group{}
	}
}

// bind points every column-leaf operand of the output at the cursors of fr
// and the columns they hold (operand.bind).
func (o *output) bind(fr *frame) {
	for i := range o.items {
		o.items[i].bind(fr)
	}
	for i := range o.order {
		o.order[i].bind(fr)
	}
	for i := range o.aggs {
		o.aggs[i].arg.bind(fr)
	}
	o.intKey.bind(fr)
}

// end lets go of what a run handed the output — the cursors its column
// leaves read, the sink, the groups and rows it held — so a Prepared kept
// for later runs keeps none of this run's tables or results alive.
func (o *output) end() {
	o.bind(nil)
	o.sink, o.dst, o.boxed, o.held, o.groups, o.list, o.last = nil, nil, nil, nil, nil, nil, nil
}

// expandStar appends one item per column that `*` or `t.*` stands for.
func (p *Prepared) expandStar(star *sqlparse.Star, o *output) error {
	found := false
	for bi, b := range p.bindings {
		if star.Table != "" && !strings.EqualFold(b.name, star.Table) {
			continue
		}
		found = true
		o.items = slices.Grow(o.items, len(b.schema))
		o.cols = slices.Grow(o.cols, len(b.schema))
		for ci, col := range b.schema {
			n := colNode(bi, ci, col.Type)
			o.items = append(o.items, n.operand())
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
	var err error
	g := o.last
	if g == nil || !o.inLast(fr) {
		if g, err = o.groupOf(fr); err != nil {
			return err
		}
	}
	accs := g.accs[:len(o.aggs)]
	for i := range o.aggs {
		spec, a := &o.aggs[i], &accs[i]
		arg := &spec.arg
		switch {
		case arg.kind == kindInt:
			var x int64
			var null bool
			if arg.isCol {
				x, null = arg.colInt()
			} else if x, null, err = arg.int(fr); err != nil {
				return err
			}
			if take(o, spec, a, x, null, appendIntKey) {
				a.addInt(spec.kind, x)
			}
		case arg.kind == kindFloat:
			var x float64
			var null bool
			if arg.isCol {
				x, null = arg.colFloat()
			} else if x, null, err = arg.float(fr); err != nil {
				return err
			}
			if take(o, spec, a, x, null, appendFloatKey) {
				a.addFloat(spec.kind, x)
			}
		case arg.kind == kindString:
			var x string
			var null bool
			if arg.isCol {
				x, null = arg.colStr()
			} else if x, null, err = arg.str(fr); err != nil {
				return err
			}
			if take(o, spec, a, x, null, appendStringKey) {
				a.addString(spec.kind, x)
			}
		case arg.value == nil:
			a.count++
		default:
			v, err := arg.value(fr)
			if err != nil {
				return err
			}
			if IsNull(v) {
				continue
			}
			if spec.distinct {
				if o.scratch = appendKey(o.scratch[:0], v); !a.firstSight(o.scratch) {
					continue
				}
			}
			a.add(spec.kind, v)
		}
	}
	return nil
}

// fold takes the rows of the single binding at the positions sel, bound
// through cur, as consume would take them one by one: sel is cut into runs
// of one GROUP BY key, a NULL key being a key of its own, each run's group is
// found (or opened) at its first row, and every aggregate folds the run
// (aggAcc.fold). Groups open at the rows, and in the order, they would row by
// row.
func (o *output) fold(fr *frame, cur *cursor, sel []int32) error {
	for len(sel) > 0 {
		run := sel
		if o.intKey.isCol {
			run = sel[:keyRun(o.intKey.col, sel)]
		}
		cur.pos = int(run[0])
		g := o.last
		if g == nil || !o.inLast(fr) {
			var err error
			if g, err = o.groupOf(fr); err != nil {
				return err
			}
		}
		accs := g.accs[:len(o.aggs)]
		for i := range o.aggs {
			accs[i].fold(&o.aggs[i], run)
		}
		sel = sel[len(run):]
	}
	return nil
}

// keyRun is the length of the leading run of sel whose cells of the BIGINT
// column c are one key: equal and all NULL or none.
func keyRun(c *column, sel []int32) int {
	nulls := len(c.nulls) > 0
	key, null, n := c.ints[sel[0]], nulls && c.null(int(sel[0])), 1
	for n < len(sel) && c.ints[sel[n]] == key && (!nulls || c.null(int(sel[n])) == null) {
		n++
	}
	return n
}

// inLast reports, without building a key, that the row bound in fr belongs
// to the last row's group: there is no GROUP BY, or its one key is a BIGINT
// column and the row's cell is last's key.
func (o *output) inLast(fr *frame) bool {
	if !o.lastIntOK {
		return len(o.groupBy) == 0
	}
	x, null := o.intKey.colInt()
	return x == o.lastInt && !null
}

// groupOf finds or opens the group of the row bound in fr. The key is
// built in a reused buffer and looked up without becoming a string.
func (o *output) groupOf(fr *frame) (*group, error) {
	if len(o.groupBy) == 0 {
		if len(o.list) == 0 {
			o.openGroup(fr)
		}
		o.last = o.list[0]
		return o.last, nil
	}
	key := o.key[:0]
	for _, g := range o.groupBy {
		var err error
		if key, err = g(fr, key); err != nil {
			return nil, err
		}
	}
	if o.last != nil && bytes.Equal(key, o.lastKey) {
		o.key = key
		return o.last, nil
	}
	g, ok := o.groups[string(key)]
	if !ok {
		g = o.openGroup(fr)
		o.groups[string(key)] = g
	}
	// This key becomes the remembered one; its buffer and the previous
	// one's trade places, so nothing is copied.
	o.last, o.lastKey, o.key = g, key, o.lastKey
	if o.intKey.isCol {
		x, null := o.intKey.colInt()
		o.lastInt, o.lastIntOK = x, !null
	}
	return g, nil
}

// openGroup opens a group on the rows bound in fr.
func (o *output) openGroup(fr *frame) *group {
	g := &group{first: make([]int, len(fr.cur)), accs: make([]aggAcc, len(o.aggs))}
	for i := range fr.cur {
		g.first[i] = fr.cur[i].pos
	}
	o.list = append(o.list, g)
	return g
}

// emit evaluates the select list (and ORDER BY keys) against fr and writes
// them as one row: a cell whose kind the compiler knew goes from its column
// slice to the sink as the number or string it is, and only a cell of no
// static kind is boxed on the way. Rows past LIMIT are not written.
func (o *output) emit(fr *frame) error {
	if o.held == nil && o.sel.Limit >= 0 && o.nrows >= o.sel.Limit {
		return nil
	}
	n := len(o.items)
	if err := o.dst.BeginRow(n + len(o.order)); err != nil {
		return err
	}
	for i := range o.items {
		if err := o.cell(fr, &o.items[i], i); err != nil {
			return err
		}
	}
	for i := range o.order {
		if err := o.cell(fr, &o.order[i], n+i); err != nil {
			return err
		}
	}
	o.nrows++
	return nil
}

// cell writes one cell of the row being emitted, metering it as rowBytes
// does.
func (o *output) cell(fr *frame, it *operand, col int) error {
	var null bool
	var err error
	switch it.kind {
	case kindInt:
		var v int64
		if it.isCol {
			v, null = it.colInt()
		} else if v, null, err = it.int(fr); err != nil {
			return err
		}
		o.nbytes += 8
		if null {
			return o.dst.Null(col)
		}
		return o.dst.Int(col, v)
	case kindFloat:
		var v float64
		if it.isCol {
			v, null = it.colFloat()
		} else if v, null, err = it.float(fr); err != nil {
			return err
		}
		o.nbytes += 8
		if null {
			return o.dst.Null(col)
		}
		return o.dst.Float(col, v)
	case kindString:
		var v string
		if it.isCol {
			v, null = it.colStr()
		} else if v, null, err = it.str(fr); err != nil {
			return err
		}
		if null {
			o.nbytes += 8
			return o.dst.Null(col)
		}
		return o.writeStr(col, v)
	}
	v, err := it.value(fr)
	if err != nil {
		return err
	}
	// Held rows leave at finish, which types them then.
	if typ, ok := valueType(v); ok && o.held == nil && !o.typed[col] {
		o.types[col], o.typed[col] = typ, true
	}
	o.nbytes += cellBytes(v)
	return writeValue(o.dst, col, v, &o.str)
}

func (o *output) writeStr(col int, v string) error {
	o.nbytes += int64(len(v))
	o.str = append(o.str[:0], v...)
	return o.dst.Str(col, o.str)
}

// nullCells backs every column of nullRow: one NULL cell of each type.
// It is only ever read.
var nullCells = column{ints: []int64{0}, floats: []float64{0}, strs: []string{""}, nulls: []uint64{1}}

// nullRow is one all-NULL row of a schema.
func nullRow(schema Schema) []column {
	cols := make([]column, len(schema))
	for i, c := range schema {
		cols[i] = nullCells
		cols[i].typ = c.Type
	}
	return cols
}

// finish ends the statement: groups become rows, then DISTINCT, ORDER BY
// and LIMIT apply to the rows that were held for them, and those leave for
// the statement's sink.
func (o *output) finish(fr *frame) (*Result, error) {
	if o.grouped {
		// A grand aggregate over empty input still yields one row, with
		// non-aggregate expressions evaluated against all-NULL rows.
		if len(o.list) == 0 && len(o.groupBy) == 0 {
			o.list = append(o.list, &group{accs: make([]aggAcc, len(o.aggs))})
		}
		fr.aggs = make([]Value, len(o.aggs))
		for _, g := range o.list {
			if g.first == nil {
				for i := range fr.cur {
					fr.cur[i] = cursor{cols: nullRow(o.schemas[i])}
				}
				o.bind(fr)
			}
			for i := range g.first {
				fr.cur[i].pos = g.first[i]
			}
			for i := range o.aggs {
				fr.aggs[i] = g.accs[i].result(&o.aggs[i])
			}
			if err := o.emit(fr); err != nil {
				return nil, err
			}
		}
	}
	if o.held != nil {
		if err := o.release(); err != nil {
			return nil, err
		}
	}
	res := &Result{Cols: o.cols, Types: o.types}
	if o.boxed != nil {
		res.Rows = o.boxed.Rows
	}
	return res, nil
}

// release applies DISTINCT, ORDER BY and LIMIT to the held rows and hands
// what is left to the statement's sink.
func (o *output) release() error {
	rows, n := o.held.Rows, len(o.items)

	// DISTINCT before ORDER BY, on projected values.
	if o.sel.Distinct {
		seen := map[string]bool{}
		kept := 0
		for _, r := range rows {
			k := GroupKey(r[:n])
			if seen[k] {
				continue
			}
			seen[k] = true
			rows[kept] = r
			kept++
		}
		rows = rows[:kept]
	}
	if len(o.order) > 0 {
		sort.Stable(&rowSorter{rows: rows, keys: n, by: o.sel.OrderBy})
	}
	if limit := o.sel.Limit; limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}

	o.nrows, o.nbytes = int64(len(rows)), 0
	for i, r := range rows {
		rows[i] = r[:n:n]
		o.nbytes += rowBytes(rows[i])
	}
	inferTypes(o.types, o.typed, rows)
	if o.boxed != nil {
		o.boxed.Rows = rows
		return nil
	}
	for _, r := range rows {
		if err := writeRow(o.sink, r); err != nil {
			return err
		}
	}
	return nil
}

// rowSorter orders held rows by their ORDER BY keys — the cells from
// position keys on — NULLs first (MySQL ASC semantics).
type rowSorter struct {
	rows []Row
	keys int
	by   []sqlparse.OrderItem
}

func (s *rowSorter) Len() int { return len(s.rows) }

func (s *rowSorter) Swap(i, j int) { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }

func (s *rowSorter) Less(i, j int) bool {
	for k, o := range s.by {
		c := CompareNullsFirst(s.rows[i][s.keys+k], s.rows[j][s.keys+k])
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
		n += cellBytes(v)
	}
	return n
}

// cellBytes is what ExecStats.ResultBytes charges a cell: a string's
// length, eight bytes for anything else, a NULL included.
func cellBytes(v Value) int64 {
	if s, ok := v.(string); ok {
		return int64(len(s))
	}
	return 8
}

// valueType is the column type a value would have a column declare; ok is
// false for a NULL, which says nothing.
func valueType(v Value) (typ sqlparse.ColType, ok bool) {
	switch v.(type) {
	case int64, bool:
		return sqlparse.TypeInt, true
	case float64:
		return sqlparse.TypeFloat, true
	case string:
		return sqlparse.TypeString, true
	}
	return 0, false
}

// inferTypes types the columns the compiler could not (typed is false)
// from the first non-NULL cell each carries in rows; a column with none
// keeps the type it has.
func inferTypes(types []sqlparse.ColType, typed []bool, rows []Row) {
	for i := range types {
		for r := 0; !typed[i] && r < len(rows); r++ {
			if typ, ok := valueType(rows[r][i]); ok {
				types[i] = typ
				break
			}
		}
	}
}
