package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/sqlparse"
)

// Func is a scalar SQL function (UDF or builtin). args is the engine's
// own buffer, valid only for the duration of the call.
type Func func(args []Value) (Value, error)

// binding is one FROM-clause entry: the name (alias or table name)
// expressions refer to it by, and its schema.
type binding struct {
	name   string
	schema Schema
}

// cursor is the current row of one FROM binding: a position in the
// columns of the table state the statement reads.
type cursor struct {
	cols []column
	pos  int
}

// frame is what a compiled expression runs against: the current row of
// every FROM binding and, while groups are output, the finished
// aggregates of the current group.
type frame struct {
	cur  []cursor
	aggs []Value
}

// The closure forms an expression compiles to. valueFn is the generic
// form: it implements the dialect's full semantics on boxed values, and
// boxes what a typed operand hands it (a column cell included). The typed
// forms carry a value and its NULL flag as a column stores them. A node
// whose operands are all typed is built typed only; its generic form is
// that, boxed.
type (
	valueFn            func(*frame) (Value, error)
	typedFn[T ordered] func(*frame) (v T, null bool, err error)
	intFn              = typedFn[int64]
	floatFn            = typedFn[float64]
	strFn              = typedFn[string]
)

// kind is what compile could tell about an expression's value. Tables
// convert cells to their column's declared type on the way in, so a
// column's kind is a fact, not a guess.
type kind uint8

const (
	kindAny    kind = iota // only the generic form exists
	kindInt                // int64 or NULL
	kindFloat              // float64 or NULL
	kindString             // string or NULL: a VARCHAR column or a string literal
)

func (k kind) numeric() bool { return k == kindInt || k == kindFloat }

// node is one compiled expression. Forms are built on first request, so
// an expression only ever consumed one way pays for one closure.
type node struct {
	kind kind
	// boolean marks a node whose int form yields 0, 1 or NULL:
	// comparisons, logic and the other predicates.
	boolean bool

	value valueFn
	float floatFn
	int   intFn
	str   strFn

	isCol  bool // column leaf: cell ci of binding bi's cursor
	bi, ci int
	isLit  bool // literal leaf
	lit    Value

	// constant marks a node that reads neither a row nor an aggregate:
	// literals, and negation, arithmetic and builtin calls over them.
	constant bool
	// typed is set on a kindFloat node that is a call through a builtin's
	// typed entry: what a comparison needs to ask the entry's guard.
	typed *typedCall
	// band is set on a comparison that guardedCmp compiled and a join may
	// answer by skipping rows: what planBand needs to know of it.
	band *bandCmp
	// block is set on a comparison or BETWEEN that has a block form
	// (block.go): a guarded one whose call reads column leaves of one
	// binding, or a numeric column against numeric constants. A scan's
	// filter uses it.
	block blockFn
}

// bandCmp is a guarded comparison `f(x1, y1, x2, y2) <|<= c` (or its
// mirror image) whose guard answers above inside the band b: the
// comparison is false there.
type bandCmp struct {
	call *typedCall
	b    declBand
}

func litNode(v interface{}) node {
	n := node{isLit: true, lit: v, constant: true}
	switch x := v.(type) {
	case bool:
		n.lit, n.kind = boolToInt(x), kindInt
	case int64:
		n.kind = kindInt
	case float64:
		n.kind = kindFloat
	case string:
		n.kind = kindString
	}
	return n
}

// colNode is a column leaf. Its typed form is the column slice indexed at
// the cursor; only its generic form boxes.
func colNode(bi, ci int, typ sqlparse.ColType) node {
	n := node{isCol: true, bi: bi, ci: ci, kind: kindString}
	switch typ {
	case sqlparse.TypeInt:
		n.kind = kindInt
	case sqlparse.TypeFloat:
		n.kind = kindFloat
	}
	return n
}

func (n *node) valueForm() valueFn {
	if n.value != nil {
		return n.value
	}
	switch {
	case n.isCol:
		bi, ci := n.bi, n.ci
		n.value = func(fr *frame) (Value, error) {
			c := &fr.cur[bi]
			return c.cols[ci].value(c.pos), nil
		}
	case n.isLit:
		v := n.lit
		n.value = func(*frame) (Value, error) { return v, nil }
	case n.int != nil: // a node built typed boxes its typed form
		n.value = boxed(n.int)
	default:
		n.value = boxed(n.float)
	}
	return n.value
}

// intForm is valid on kindInt nodes only.
func (n *node) intForm() intFn {
	if n.int != nil {
		return n.int
	}
	switch {
	case n.isCol:
		bi, ci := n.bi, n.ci
		n.int = func(fr *frame) (int64, bool, error) {
			c := &fr.cur[bi]
			col := &c.cols[ci]
			return col.ints[c.pos], col.null(c.pos), nil
		}
	case n.isLit:
		v := n.lit.(int64)
		n.int = func(*frame) (int64, bool, error) { return v, false, nil }
	default: // a boolean node that only has a generic form
		f := n.value
		n.int = func(fr *frame) (int64, bool, error) {
			v, err := f(fr)
			if err != nil || v == nil {
				return 0, true, err
			}
			return v.(int64), false, nil
		}
	}
	return n.int
}

// floatForm is valid on kindInt and kindFloat nodes.
func (n *node) floatForm() floatFn {
	if n.float != nil {
		return n.float
	}
	switch {
	case n.isCol && n.kind == kindFloat:
		bi, ci := n.bi, n.ci
		n.float = func(fr *frame) (float64, bool, error) {
			c := &fr.cur[bi]
			col := &c.cols[ci]
			return col.floats[c.pos], col.null(c.pos), nil
		}
	case n.isLit && n.kind == kindFloat:
		v := n.lit.(float64)
		n.float = func(*frame) (float64, bool, error) { return v, false, nil }
	default:
		f := n.intForm()
		n.float = func(fr *frame) (float64, bool, error) {
			v, null, err := f(fr)
			return float64(v), null, err
		}
	}
	return n.float
}

// constFloat folds a constant node of a numeric kind to the float64 a
// comparison would take it as on every row; ok is false for any other
// node, and for a constant that is NULL.
func (n *node) constFloat() (v float64, ok bool) {
	if !n.constant || !n.kind.numeric() {
		return 0, false
	}
	if n.isLit {
		if i, ok := n.lit.(int64); ok {
			return float64(i), true
		}
		return n.lit.(float64), true
	}
	v, null, err := n.floatForm()(new(frame))
	return v, err == nil && !null
}

// constInt is constFloat for a constant node of kindInt: the int64 it is.
func (n *node) constInt() (v int64, ok bool) {
	if !n.constant || n.kind != kindInt {
		return 0, false
	}
	if n.isLit {
		return n.lit.(int64), true
	}
	v, null, err := n.intForm()(new(frame))
	return v, err == nil && !null
}

// strForm is valid on kindString nodes only: column and literal leaves.
func (n *node) strForm() strFn {
	if n.str != nil {
		return n.str
	}
	if n.isCol {
		bi, ci := n.bi, n.ci
		n.str = func(fr *frame) (string, bool, error) {
			c := &fr.cur[bi]
			col := &c.cols[ci]
			return col.strs[c.pos], col.null(c.pos), nil
		}
	} else {
		v := n.lit.(string)
		n.str = func(*frame) (string, bool, error) { return v, false, nil }
	}
	return n.str
}

// operand is a compiled expression in the one form its kind selects,
// for a consumer that takes every kind: an aggregate's argument, a select
// item. Only the field of its kind is set; value is the generic form of a
// kindAny expression. A column leaf has no closure: isCol is set, and its
// consumers read cell ci of binding bi's cursor from the column slice
// (colInt, colFloat, colStr) through cur and col, which output.bind points
// at that cursor and its column for each run.
type operand struct {
	kind  kind
	value valueFn
	int   intFn
	float floatFn
	str   strFn

	isCol  bool
	bi, ci int
	cur    *cursor
	col    *column
}

func (n *node) operand() operand {
	op := operand{kind: n.kind}
	if n.isCol {
		op.isCol, op.bi, op.ci = true, n.bi, n.ci
		return op
	}
	switch n.kind {
	case kindInt:
		op.int = n.intForm()
	case kindFloat:
		op.float = n.floatForm()
	case kindString:
		op.str = n.strForm()
	default:
		op.value = n.valueForm()
	}
	return op
}

// bind points a column leaf at its binding's cursor in fr and the column
// that cursor holds; it is redone whenever the cursor is given other
// columns, and a nil fr lets go of them.
func (o *operand) bind(fr *frame) {
	switch {
	case !o.isCol:
	case fr == nil:
		o.cur, o.col = nil, nil
	default:
		o.cur = &fr.cur[o.bi]
		o.col = &o.cur.cols[o.ci]
	}
}

// colInt, colFloat and colStr read a bound column leaf's cell at its
// cursor. They are small enough to inline, which a method that also called
// the closure of any other operand would not be, so a consumer branches on
// isCol itself.
func (o *operand) colInt() (int64, bool) {
	pos := o.cur.pos
	return o.col.ints[pos], o.col.null(pos)
}

func (o *operand) colFloat() (float64, bool) {
	pos := o.cur.pos
	return o.col.floats[pos], o.col.null(pos)
}

func (o *operand) colStr() (string, bool) {
	pos := o.cur.pos
	return o.col.strs[pos], o.col.null(pos)
}

// colType is the column type a typed kind declares.
func (k kind) colType() sqlparse.ColType {
	switch k {
	case kindInt:
		return sqlparse.TypeInt
	case kindString:
		return sqlparse.TypeString
	}
	return sqlparse.TypeFloat
}

// number is what the numeric typed forms carry; ordered adds strings, for
// the operators that only compare.
type (
	number  interface{ int64 | float64 }
	ordered interface{ int64 | float64 | string }
)

// boxed runs a typed form and boxes its result.
func boxed[T ordered](f typedFn[T]) valueFn {
	return func(fr *frame) (Value, error) {
		v, null, err := f(fr)
		if err != nil || null {
			return nil, err
		}
		return v, nil
	}
}

// truth is the form a consumer of the three-valued truth value calls —
// filters, AND, OR, NOT: 1, 0 or NULL under AsBool.
func (n *node) truth() intFn {
	switch {
	case n.boolean:
		return n.intForm()
	case n.kind.numeric():
		f := n.floatForm()
		return func(fr *frame) (int64, bool, error) {
			v, null, err := f(fr)
			return boolToInt(v != 0), null, err
		}
	}
	generic := n.valueForm()
	return func(fr *frame) (int64, bool, error) {
		v, err := generic(fr)
		if err != nil || v == nil {
			return 0, true, err
		}
		return boolToInt(AsBool(v)), false, nil
	}
}

// isNull reports whether the value is NULL, without boxing it where a
// typed form exists.
func (n *node) isNull() func(*frame) (bool, error) {
	switch n.kind {
	case kindInt:
		return nullOf(n.intForm())
	case kindFloat:
		return nullOf(n.floatForm())
	case kindString:
		return nullOf(n.strForm())
	}
	generic := n.valueForm()
	return func(fr *frame) (bool, error) {
		v, err := generic(fr)
		return v == nil, err
	}
}

func nullOf[T ordered](f typedFn[T]) func(*frame) (bool, error) {
	return func(fr *frame) (bool, error) {
		_, null, err := f(fr)
		return null, err
	}
}

// keyFn appends the GroupKey encoding of an expression's value to buf.
type keyFn func(fr *frame, buf []byte) ([]byte, error)

// key is the form GROUP BY calls: the bytes appendKey would write for the
// boxed value, written from the typed form where there is one.
func (n *node) key() keyFn {
	switch n.kind {
	case kindInt:
		return keyOf(n.intForm(), appendIntKey)
	case kindFloat:
		return keyOf(n.floatForm(), appendFloatKey)
	case kindString:
		return keyOf(n.strForm(), appendStringKey)
	}
	generic := n.valueForm()
	return func(fr *frame, buf []byte) ([]byte, error) {
		v, err := generic(fr)
		return appendKey(buf, v), err
	}
}

func keyOf[T ordered](f typedFn[T], enc func([]byte, T) []byte) keyFn {
	return func(fr *frame, buf []byte) ([]byte, error) {
		v, null, err := f(fr)
		if err != nil || null {
			return appendKey(buf, nil), err
		}
		return enc(buf, v), nil
	}
}

// compiler turns sqlparse expressions into nodes against a fixed set of
// bindings. It runs once per statement; nothing it builds is cached
// across statements, and what it builds is used by one goroutine.
type compiler struct {
	bindings []binding
	funcs    map[string]function
	// aggs is non-nil where aggregate calls are legal (select list and
	// ORDER BY): each compiles to a load of its accumulator slot.
	aggs *[]aggSpec
	// lo and hi bound the binding indices referenced since resetRefs;
	// hi is -1 while nothing was referenced.
	lo, hi int
}

func (c *compiler) resetRefs() { c.lo, c.hi = len(c.bindings), -1 }

// resolve finds the binding and column a reference names.
func (c *compiler) resolve(cr *sqlparse.ColumnRef) (int, int, error) {
	bi, ci := -1, -1
	if cr.Table != "" {
		for i, b := range c.bindings {
			if strings.EqualFold(b.name, cr.Table) {
				ci = b.schema.ColIndex(cr.Column)
				if ci < 0 {
					return 0, 0, fmt.Errorf("sqlengine: table %s has no column %q", cr.Table, cr.Column)
				}
				bi = i
				break
			}
		}
		if bi < 0 {
			return 0, 0, fmt.Errorf("sqlengine: unknown table %q in column reference", cr.Table)
		}
	} else {
		for i, b := range c.bindings {
			if x := b.schema.ColIndex(cr.Column); x >= 0 {
				if bi >= 0 {
					return 0, 0, fmt.Errorf("sqlengine: ambiguous column %q", cr.Column)
				}
				bi, ci = i, x
			}
		}
		if bi < 0 {
			return 0, 0, fmt.Errorf("sqlengine: unknown column %q", cr.Column)
		}
	}
	if bi < c.lo {
		c.lo = bi
	}
	if bi > c.hi {
		c.hi = bi
	}
	return bi, ci, nil
}

// errNotConst is constValue's answer for an expression that reads a row.
var errNotConst = errors.New("sqlengine: expression is not constant")

// constNode compiles an expression that reads no row; one that
// references a column is refused, not run against an empty frame.
func (c *compiler) constNode(e sqlparse.Expr) (node, error) {
	c.resetRefs()
	n, err := c.compile(e)
	if err == nil && c.hi >= 0 {
		err = errNotConst
	}
	return n, err
}

// constValue evaluates an expression that reads no row.
func (c *compiler) constValue(e sqlparse.Expr) (Value, error) {
	n, err := c.constNode(e)
	if err != nil {
		return nil, err
	}
	if n.isLit {
		return n.lit, nil
	}
	return n.valueForm()(new(frame))
}

// binOp is a binary operator resolved from its spelling.
type binOp uint8

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	opLike
)

var binOps = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"AND": opAnd, "OR": opOr, "LIKE": opLike,
}

func (c *compiler) compile(e sqlparse.Expr) (node, error) {
	switch v := e.(type) {
	case *sqlparse.Literal:
		return litNode(v.Val), nil

	case *sqlparse.ColumnRef:
		bi, ci, err := c.resolve(v)
		if err != nil {
			return node{}, err
		}
		return colNode(bi, ci, c.bindings[bi].schema[ci].Type), nil

	case *sqlparse.Star:
		return node{}, fmt.Errorf("sqlengine: '*' is not a scalar expression")

	case *sqlparse.FuncCall:
		return c.compileCall(v)

	case *sqlparse.BinaryExpr:
		op, ok := binOps[v.Op]
		if !ok {
			return node{}, fmt.Errorf("sqlengine: unknown operator %q", v.Op)
		}
		l, err := c.compile(v.L)
		if err != nil {
			return node{}, err
		}
		r, err := c.compile(v.R)
		if err != nil {
			return node{}, err
		}
		switch {
		case op <= opMod:
			return arithNode(op, &l, &r), nil
		case op <= opGe:
			return cmpNode(op, &l, &r), nil
		case op == opLike:
			return likeNode(&l, &r), nil
		default:
			return logicNode(op, &l, &r), nil
		}

	case *sqlparse.UnaryExpr:
		x, err := c.compile(v.X)
		if err != nil {
			return node{}, err
		}
		switch v.Op {
		case "-":
			return negNode(&x), nil
		case "NOT":
			return notNode(&x), nil
		}
		return node{}, fmt.Errorf("sqlengine: unknown unary operator %q", v.Op)

	case *sqlparse.BetweenExpr:
		x, err := c.compile(v.X)
		if err != nil {
			return node{}, err
		}
		lo, err := c.compile(v.Lo)
		if err != nil {
			return node{}, err
		}
		hi, err := c.compile(v.Hi)
		if err != nil {
			return node{}, err
		}
		return betweenNode(&x, &lo, &hi, v.Not), nil

	case *sqlparse.InExpr:
		x, err := c.compile(v.X)
		if err != nil {
			return node{}, err
		}
		list := make([]node, len(v.List))
		for i, item := range v.List {
			if list[i], err = c.compile(item); err != nil {
				return node{}, err
			}
		}
		return inNode(&x, list, v.Not), nil

	case *sqlparse.IsNullExpr:
		x, err := c.compile(v.X)
		if err != nil {
			return node{}, err
		}
		return isNullNode(&x, v.Not), nil

	default:
		return node{}, fmt.Errorf("sqlengine: cannot evaluate %T", e)
	}
}

// compileCall compiles a function application: an accumulator load for
// an aggregate, otherwise a call of the function resolved here, once —
// through its typed entry when it has one and every argument is a number.
func (c *compiler) compileCall(v *sqlparse.FuncCall) (node, error) {
	if v.IsAggregate() {
		if c.aggs == nil {
			return node{}, fmt.Errorf("sqlengine: aggregate %s in scalar context", v.Name)
		}
		return c.aggSlot(v)
	}
	fn, ok := c.funcs[v.Key()]
	if !ok {
		return node{}, fmt.Errorf("sqlengine: unknown function %q", v.Name)
	}
	args := make([]node, len(v.Args))
	// The typed entry serves a call of exactly its arity whose every
	// argument is statically a number.
	t := fn.typed
	if t != nil && len(v.Args) != t.arity {
		t = nil
	}
	for i, a := range v.Args {
		var err error
		if args[i], err = c.compile(a); err != nil {
			return node{}, err
		}
		if !args[i].kind.numeric() {
			t = nil
		}
	}
	if t == nil {
		vals, call, buf := forms(args, (*node).valueForm), fn.call, make([]Value, len(args))
		return node{value: func(fr *frame) (Value, error) {
			for i, a := range vals {
				x, err := a(fr)
				if err != nil {
					return nil, err
				}
				buf[i] = x
			}
			return call(buf)
		}}, nil
	}
	constant := true
	for i := range args {
		constant = constant && args[i].constant
	}
	return typedCallNode(t, args, constant), nil
}

// typedCall is a call compiled through a builtin's typed entry. The node
// keeps it beside its closure, so that a comparison with a constant can
// load the arguments itself and ask the entry's guard before it makes the
// call.
type typedCall struct {
	fn *typedFunc
	// nodes are the arguments as compiled, for load and for a planner and a
	// block form that ask what they read; a minus entry's are those of both
	// calls. args holds the float form of each that is not a column leaf; a
	// column leaf's entry is nil, and load reads its cell from the column.
	nodes []node
	args  []floatFn
	buf   [maxTypedArgs]float64
}

func typedCallNode(t *typedFunc, nodes []node, constant bool) node {
	tc := &typedCall{fn: t, nodes: nodes, args: make([]floatFn, len(nodes))}
	for i := range nodes {
		if !nodes[i].isCol {
			tc.args[i] = nodes[i].floatForm()
		}
	}
	if t.pred {
		return node{kind: kindInt, constant: constant, int: func(fr *frame) (int64, bool, error) {
			f, null, err := tc.eval(fr)
			return int64(f), null, err
		}}
	}
	return node{kind: kindFloat, constant: constant, float: tc.eval, typed: tc}
}

// load evaluates the arguments into buf and reports whether any is NULL.
// Every argument is evaluated before a NULL one decides, as the generic
// call does: a later argument may be the one that fails.
func (tc *typedCall) load(fr *frame) (null bool, err error) {
	for i, a := range tc.args {
		if a != nil {
			x, n, err := a(fr)
			if err != nil {
				return false, err
			}
			null, tc.buf[i] = null || n, x
			continue
		}
		// A column leaf, read as its float form reads it: an integer widens.
		arg := &tc.nodes[i]
		c := &fr.cur[arg.bi]
		col := &c.cols[arg.ci]
		if arg.kind == kindInt {
			tc.buf[i] = float64(col.ints[c.pos])
		} else {
			tc.buf[i] = col.floats[c.pos]
		}
		null = null || col.null(c.pos)
	}
	return null, nil
}

func (tc *typedCall) eval(fr *frame) (float64, bool, error) {
	null, err := tc.load(fr)
	if err != nil || null {
		return 0, null, err
	}
	f, null := tc.fn.call(&tc.buf)
	return f, null, nil
}

var aggKinds = map[string]aggKind{
	"count": aggCount, "sum": aggSum, "avg": aggAvg, "min": aggMin, "max": aggMax,
}

// aggSlot reserves an accumulator for an aggregate call and compiles the
// call itself to a load of that accumulator's finished value.
func (c *compiler) aggSlot(v *sqlparse.FuncCall) (node, error) {
	spec := aggSpec{kind: aggKinds[v.Key()], distinct: v.Distinct}
	switch {
	case len(v.Args) == 1:
		if _, star := v.Args[0].(*sqlparse.Star); star {
			break // COUNT(*): every row counts
		}
		scalar := compiler{bindings: c.bindings, funcs: c.funcs}
		arg, err := scalar.compile(v.Args[0])
		if err != nil {
			return node{}, err
		}
		spec.arg = arg.operand()
	case len(v.Args) == 0 && spec.kind == aggCount:
	default:
		return node{}, fmt.Errorf("sqlengine: aggregate %s takes one argument", v.Name)
	}
	slot := len(*c.aggs)
	*c.aggs = append(*c.aggs, spec)
	return node{value: func(fr *frame) (Value, error) { return fr.aggs[slot], nil }}, nil
}

// arithNode compiles + - * / %: int64 when both sides are (except /),
// float64 when both are numbers, generic otherwise. The difference of two
// calls of a builtin that declares an entry for it (typedFunc.minus) is
// one call of that entry: the same subtraction, with a guard.
func arithNode(op binOp, l, r *node) node {
	constant := l.constant && r.constant
	switch {
	case op == opSub && l.typed != nil && r.typed != nil && l.typed.fn == r.typed.fn && l.typed.fn.minus != nil:
		return typedCallNode(l.typed.fn.minus, slices.Concat(l.typed.nodes, r.typed.nodes), constant)
	case !l.kind.numeric() || !r.kind.numeric():
		lv, rv := l.valueForm(), r.valueForm()
		return node{value: func(fr *frame) (Value, error) {
			a, err := lv(fr)
			if err != nil {
				return nil, err
			}
			b, err := rv(fr)
			if err != nil {
				return nil, err
			}
			return arith(op, a, b)
		}}
	case l.kind == kindInt && r.kind == kindInt && op != opDiv:
		li, ri := l.intForm(), r.intForm()
		return node{kind: kindInt, constant: constant, int: func(fr *frame) (int64, bool, error) {
			a, an, err := li(fr)
			if err != nil {
				return 0, false, err
			}
			b, bn, err := ri(fr)
			if err != nil {
				return 0, false, err
			}
			if an || bn || (op == opMod && b == 0) {
				return 0, true, nil
			}
			return arithInt(op, a, b), false, nil
		}}
	}
	lf, rf := l.floatForm(), r.floatForm()
	return node{kind: kindFloat, constant: constant, float: func(fr *frame) (float64, bool, error) {
		a, an, err := lf(fr)
		if err != nil {
			return 0, false, err
		}
		b, bn, err := rf(fr)
		if err != nil {
			return 0, false, err
		}
		if an || bn || (op >= opDiv && b == 0) {
			return 0, true, nil
		}
		return arithFloat(op, a, b), false, nil
	}}
}

// arithInt is + - * % on two integers; the caller excludes a zero divisor.
func arithInt(op binOp, a, b int64) int64 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	default:
		return a % b
	}
}

// arithFloat is the five operators on two floats; the caller excludes a
// zero divisor. Fractional divisors of % must not be truncated to
// integers first: one in (-1, 1) would become a division by zero.
func arithFloat(op binOp, a, b float64) float64 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	case opDiv:
		return a / b
	default:
		return math.Mod(a, b)
	}
}

// arith is arithmetic on boxed values with int/float promotion. NULL
// operands and division by zero yield NULL.
func arith(op binOp, l, r Value) (Value, error) {
	if IsNull(l) || IsNull(r) {
		return nil, nil
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt && op != opDiv {
		if op == opMod && ri == 0 {
			return nil, nil
		}
		return arithInt(op, li, ri), nil
	}
	lf, err := AsFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := AsFloat(r)
	if err != nil {
		return nil, err
	}
	if op >= opDiv && rf == 0 {
		return nil, nil
	}
	return arithFloat(op, lf, rf), nil
}

// holds maps a three-way comparison result onto a comparison operator.
func holds(op binOp, c int) bool {
	switch op {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	default:
		return c >= 0
	}
}

// cmpNode compiles a comparison: exact on two integers or two strings, on
// float64 when both sides are numbers, through Compare otherwise. NULL if
// either side is.
func cmpNode(op binOp, l, r *node) node {
	n := node{kind: kindInt, boolean: true}
	if n.int, n.band, n.block = guardedCmp(op, l, r); n.int != nil {
		return n
	}
	switch {
	case l.kind == kindInt && r.kind == kindInt:
		n.int, n.block = cmpTyped(op, l.intForm(), r.intForm()), cmpBlock(op, l, r)
	case l.kind.numeric() && r.kind.numeric():
		n.int, n.block = cmpTyped(op, l.floatForm(), r.floatForm()), cmpBlock(op, l, r)
	case l.kind == kindString && r.kind == kindString:
		n.int = cmpTyped(op, l.strForm(), r.strForm())
	default:
		lv, rv := l.valueForm(), r.valueForm()
		n.value = func(fr *frame) (Value, error) {
			a, err := lv(fr)
			if err != nil {
				return nil, err
			}
			b, err := rv(fr)
			if err != nil {
				return nil, err
			}
			if IsNull(a) || IsNull(b) {
				return nil, nil
			}
			c, err := Compare(a, b)
			if err != nil {
				return nil, err
			}
			return boolToInt(holds(op, c)), nil
		}
	}
	return n
}

// mirrored is the operator that holds for (b, a) where op holds for (a, b).
func mirrored(op binOp) binOp {
	switch op {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	}
	return op
}

// guardedCmp compiles the comparison of a guarded call (typedCall) with a
// numeric constant, on either side: the arguments are loaded as the call
// loads them, the guard is asked, and the call is made — here, in the
// same closure — only when the guard is undecided. A call node is
// kindFloat, so this is the float64 comparison cmpNode would build, with
// the same answers, NULLs, errors and order of argument evaluation; the
// constant is folded once, which nothing can observe. It returns nil where
// there is no guard to use. Where the comparison is false for a result above
// the constant (<, <=) and the builtin says where its guard answers above
// (typedFunc.band), that is returned too; where the call's arguments are all
// column leaves, so is the block form, which asks the same guard.
func guardedCmp(op binOp, l, r *node) (intFn, *bandCmp, blockFn) {
	for _, side := range [2]struct {
		call, constant *node
		op             binOp
	}{{l, r, op}, {r, l, mirrored(op)}} {
		tc := side.call.typed
		if tc == nil || tc.fn.guard == nil {
			continue
		}
		c, ok := side.constant.constFloat()
		if !ok {
			continue
		}
		g, ok := tc.fn.guard(c)
		if !ok {
			continue
		}
		// The comparison's answer for a result below, equal to and above c.
		answer := [3]int64{boolToInt(holds(side.op, -1)), boolToInt(holds(side.op, 0)), boolToInt(holds(side.op, 1))}
		var band *bandCmp
		if tc.fn.band != nil && (side.op == opLt || side.op == opLe) {
			if b, ok := tc.fn.band(c); ok {
				band = &bandCmp{call: tc, b: b}
			}
		}
		return func(fr *frame) (int64, bool, error) {
			null, err := tc.load(fr)
			if err != nil || null {
				return 0, null, err
			}
			switch g.decide(&tc.buf) {
			case below:
				return answer[0], false, nil
			case above:
				return answer[2], false, nil
			}
			y, null := tc.fn.call(&tc.buf)
			return answer[threeWay(y, c)+1], null, nil
		}, band, guardedCmpBlock(tc, g, answer, c)
	}
	return nil, nil, nil
}

func cmpTyped[T ordered](op binOp, l, r typedFn[T]) intFn {
	return func(fr *frame) (int64, bool, error) {
		a, an, err := l(fr)
		if err != nil {
			return 0, false, err
		}
		b, bn, err := r(fr)
		if err != nil {
			return 0, false, err
		}
		return boolToInt(holds(op, threeWay(a, b))), an || bn, nil
	}
}

// logicNode compiles AND / OR with SQL's three-valued (Kleene) logic:
// FALSE AND NULL is FALSE and TRUE OR NULL is TRUE, every other mix with
// NULL is NULL. The right side is not evaluated once the left decides.
func logicNode(op binOp, l, r *node) node {
	lt, rt := l.truth(), r.truth()
	decides := int64(0) // the operand value that settles AND
	if op == opOr {
		decides = 1
	}
	return node{kind: kindInt, boolean: true, int: func(fr *frame) (int64, bool, error) {
		a, an, err := lt(fr)
		if err != nil {
			return 0, false, err
		}
		if !an && a == decides {
			return decides, false, nil
		}
		b, bn, err := rt(fr)
		if err != nil {
			return 0, false, err
		}
		if !bn && b == decides {
			return decides, false, nil
		}
		return 1 - decides, an || bn, nil
	}}
}

func notNode(x *node) node {
	t := x.truth()
	return node{kind: kindInt, boolean: true, int: func(fr *frame) (int64, bool, error) {
		v, null, err := t(fr)
		return 1 - v, null, err
	}}
}

func negNode(x *node) node {
	switch x.kind {
	case kindInt:
		return node{kind: kindInt, constant: x.constant, int: negTyped(x.intForm())}
	case kindFloat:
		return node{kind: kindFloat, constant: x.constant, float: negTyped(x.floatForm())}
	}
	xv := x.valueForm()
	return node{value: func(fr *frame) (Value, error) {
		v, err := xv(fr)
		if err != nil {
			return nil, err
		}
		switch i := v.(type) {
		case nil:
			return nil, nil
		case int64:
			return -i, nil
		}
		f, err := AsFloat(v)
		if err != nil {
			return nil, err
		}
		return -f, nil
	}}
}

func negTyped[T number](x typedFn[T]) typedFn[T] {
	return func(fr *frame) (T, bool, error) {
		v, null, err := x(fr)
		return -v, null, err
	}
}

// betweenNode compiles x [NOT] BETWEEN lo AND hi: NULL if any of the
// three is. It goes typed only where both of its comparisons are the
// same kind generically: all integers, all strings, or both on float64.
func betweenNode(x, lo, hi *node, not bool) node {
	n := node{kind: kindInt, boolean: true}
	if n.int, n.block = guardedBetween(x, lo, hi, not); n.int != nil {
		return n
	}
	numeric := x.kind.numeric() && lo.kind.numeric() && hi.kind.numeric()
	switch {
	case x.kind == kindInt && lo.kind == kindInt && hi.kind == kindInt:
		n.int, n.block = betweenTyped(x.intForm(), lo.intForm(), hi.intForm(), not), betweenBlock(x, lo, hi, not)
	case numeric && (x.kind == kindFloat || (lo.kind == kindFloat && hi.kind == kindFloat)):
		n.int, n.block = betweenTyped(x.floatForm(), lo.floatForm(), hi.floatForm(), not), betweenBlock(x, lo, hi, not)
	case x.kind == kindString && lo.kind == kindString && hi.kind == kindString:
		n.int = betweenTyped(x.strForm(), lo.strForm(), hi.strForm(), not)
	default:
		xv, lov, hiv := x.valueForm(), lo.valueForm(), hi.valueForm()
		n.value = func(fr *frame) (Value, error) {
			v, err := xv(fr)
			if err != nil {
				return nil, err
			}
			l, err := lov(fr)
			if err != nil {
				return nil, err
			}
			h, err := hiv(fr)
			if err != nil {
				return nil, err
			}
			if IsNull(v) || IsNull(l) || IsNull(h) {
				return nil, nil
			}
			cLo, err := Compare(v, l)
			if err != nil {
				return nil, err
			}
			cHi, err := Compare(v, h)
			if err != nil {
				return nil, err
			}
			return boolToInt((cLo >= 0 && cHi <= 0) != not), nil
		}
	}
	return n
}

// guardedBetween is guardedCmp for a guarded call [NOT] BETWEEN two numeric
// constants: the float64 form betweenTyped would build, decided by the
// guard specialised on each bound wherever the two settle it, and its block
// form where the call reads column leaves only.
func guardedBetween(x, lo, hi *node, not bool) (intFn, blockFn) {
	tc := x.typed
	if tc == nil || tc.fn.guard == nil {
		return nil, nil
	}
	l, lok := lo.constFloat()
	h, hok := hi.constFloat()
	if !lok || !hok {
		return nil, nil
	}
	gLo, lok := tc.fn.guard(l)
	gHi, hok := tc.fn.guard(h)
	if !lok || !hok {
		return nil, nil
	}
	in, out := boolToInt(!not), boolToInt(not)
	return func(fr *frame) (int64, bool, error) {
		null, err := tc.load(fr)
		if err != nil || null {
			return 0, null, err
		}
		switch vl := gLo.decide(&tc.buf); {
		case vl == below:
			return out, false, nil
		case vl == above:
			switch gHi.decide(&tc.buf) {
			case below:
				return in, false, nil
			case above:
				return out, false, nil
			}
		}
		y, null := tc.fn.call(&tc.buf)
		return boolToInt((!(y < l) && !(y > h)) != not), null, nil
	}, guardedBetweenBlock(tc, gLo, gHi, l, h, not)
}

func betweenTyped[T ordered](x, lo, hi typedFn[T], not bool) intFn {
	return func(fr *frame) (int64, bool, error) {
		v, vn, err := x(fr)
		if err != nil {
			return 0, false, err
		}
		l, ln, err := lo(fr)
		if err != nil {
			return 0, false, err
		}
		h, hn, err := hi(fr)
		if err != nil {
			return 0, false, err
		}
		// Compare's order: a NaN is neither below nor above anything.
		return boolToInt((!(v < l) && !(v > h)) != not), vn || ln || hn, nil
	}
}

// inNode compiles x [NOT] IN (list). With a NULL in the list an unmatched
// x is UNKNOWN, not FALSE: `x NOT IN (1, NULL)` is NULL, never TRUE. A
// NULL x and a match both stop the evaluation of the list. Like BETWEEN
// it goes typed only where every one of its comparisons is the same kind
// generically.
func inNode(x *node, list []node, not bool) node {
	all := func(k kind) bool {
		for i := range list {
			if list[i].kind != k {
				return false
			}
		}
		return true
	}
	numeric := x.kind.numeric()
	for i := range list {
		numeric = numeric && list[i].kind.numeric()
	}
	n := node{kind: kindInt, boolean: true}
	switch {
	case x.kind == kindInt && all(kindInt):
		n.int = inTyped(x.intForm(), forms(list, (*node).intForm), not)
	case numeric && (x.kind == kindFloat || all(kindFloat)):
		n.int = inTyped(x.floatForm(), forms(list, (*node).floatForm), not)
	case x.kind == kindString && all(kindString):
		n.int = inTyped(x.strForm(), forms(list, (*node).strForm), not)
	default:
		xv, items := x.valueForm(), forms(list, (*node).valueForm)
		n.value = func(fr *frame) (Value, error) {
			v, err := xv(fr)
			if err != nil || IsNull(v) {
				return nil, err
			}
			found, sawNull := false, false
			for _, item := range items {
				y, err := item(fr)
				if err != nil {
					return nil, err
				}
				if IsNull(y) {
					sawNull = true
				} else if Equal(v, y) {
					found = true
					break
				}
			}
			if !found && sawNull {
				return nil, nil
			}
			return boolToInt(found != not), nil
		}
	}
	return n
}

// forms collects one form of every node of a list.
func forms[F any](list []node, form func(*node) F) []F {
	out := make([]F, len(list))
	for i := range list {
		out[i] = form(&list[i])
	}
	return out
}

func inTyped[T ordered](x typedFn[T], list []typedFn[T], not bool) intFn {
	return func(fr *frame) (int64, bool, error) {
		v, null, err := x(fr)
		if err != nil || null {
			return 0, true, err
		}
		sawNull := false
		for _, item := range list {
			y, yn, err := item(fr)
			switch {
			case err != nil:
				return 0, false, err
			case yn:
				sawNull = true
			case threeWay(v, y) == 0:
				return boolToInt(!not), false, nil
			}
		}
		return boolToInt(not), sawNull, nil
	}
}

func isNullNode(x *node, not bool) node {
	null := x.isNull()
	return node{kind: kindInt, boolean: true, int: func(fr *frame) (int64, bool, error) {
		is, err := null(fr)
		return boolToInt(is != not), false, err
	}}
}

func likeNode(l, r *node) node {
	n := node{kind: kindInt, boolean: true}
	if l.kind == kindString && r.kind == kindString {
		ls, rs := l.strForm(), r.strForm()
		n.int = func(fr *frame) (int64, bool, error) {
			a, an, err := ls(fr)
			if err != nil {
				return 0, false, err
			}
			b, bn, err := rs(fr)
			if err != nil {
				return 0, false, err
			}
			return boolToInt(!an && !bn && likeMatch(a, b)), an || bn, nil
		}
		return n
	}
	lv, rv := l.valueForm(), r.valueForm()
	n.value = func(fr *frame) (Value, error) {
		a, err := lv(fr)
		if err != nil {
			return nil, err
		}
		b, err := rv(fr)
		if err != nil {
			return nil, err
		}
		if IsNull(a) || IsNull(b) {
			return nil, nil
		}
		return boolToInt(likeMatch(toString(a), toString(b))), nil
	}
	return n
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || !equalFoldByte(s[0], p[0]) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func equalFoldByte(a, b byte) bool {
	if a >= 'A' && a <= 'Z' {
		a += 'a' - 'A'
	}
	if b >= 'A' && b <= 'Z' {
		b += 'a' - 'A'
	}
	return a == b
}
