package sqlengine

import (
	"errors"
	"fmt"
	"math"
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

// frame is what a compiled expression runs against: the current row of
// every FROM binding and, while groups are output, the finished
// aggregates of the current group.
type frame struct {
	rows []Row
	aggs []Value
}

// The closure forms an expression compiles to. valueFn is the generic
// form and implements the dialect's full semantics on boxed cells; the
// typed forms carry a number and its NULL flag unboxed.
type (
	valueFn func(*frame) (Value, error)
	floatFn func(*frame) (f float64, null bool, err error)
	intFn   func(*frame) (n int64, null bool, err error)
)

// errDeopt is how a typed form reports a cell whose dynamic type is not
// its column's declared one (tables store values as given). It travels up
// the typed forms to the nearest node that also holds a generic form of
// itself, which then evaluates that instead: the generic form alone
// defines what such cells mean.
var errDeopt = errors.New("sqlengine: cell type differs from its column's declared type")

// kind is what compile could tell about an expression's value.
type kind uint8

const (
	kindAny   kind = iota // only the generic form exists
	kindInt               // int64 or NULL
	kindFloat             // float64 or NULL
)

// node is one compiled expression. Forms are built on first request, so
// an expression only ever consumed one way pays for one closure.
type node struct {
	kind kind
	// boolean marks a node whose int form yields 0, 1 or NULL and never
	// errDeopt: comparisons, logic and the other predicates.
	boolean bool
	// leaf marks a plain load (column, literal, aggregate slot): its
	// generic form costs less than unboxing and reboxing would.
	leaf bool

	value valueFn
	float floatFn
	int   intFn

	isCol  bool // column leaf at fr.rows[bi][ci]
	bi, ci int
	isLit  bool // literal leaf
	lit    Value
}

func litNode(v interface{}) node {
	n := node{leaf: true, isLit: true, lit: v}
	switch x := v.(type) {
	case bool:
		n.lit, n.kind = boolToInt(x), kindInt
	case int64:
		n.kind = kindInt
	case float64:
		n.kind = kindFloat
	}
	return n
}

// colNode is the typed column accessor: the one place a cell is loaded
// and unboxed, and so the seam a columnar table representation replaces.
func colNode(bi, ci int, typ sqlparse.ColType) node {
	n := node{leaf: true, isCol: true, bi: bi, ci: ci}
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
		n.value = func(fr *frame) (Value, error) { return fr.rows[bi][ci], nil }
	case n.isLit:
		v := n.lit
		n.value = func(*frame) (Value, error) { return v, nil }
	default: // a boolean node built from typed operands
		f := n.int
		n.value = func(fr *frame) (Value, error) {
			v, null, err := f(fr)
			if err != nil || null {
				return nil, err
			}
			return v, nil
		}
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
			switch x := fr.rows[bi][ci].(type) {
			case int64:
				return x, false, nil
			case nil:
				return 0, true, nil
			}
			return 0, false, errDeopt
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
			switch x := fr.rows[bi][ci].(type) {
			case float64:
				return x, false, nil
			case nil:
				return 0, true, nil
			}
			return 0, false, errDeopt
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

// scalar is the form a consumer of the value calls: typed all the way up
// and boxed once where that saves boxing the intermediates, generic
// otherwise.
func (n *node) scalar() valueFn {
	generic := n.valueForm()
	if n.leaf || n.boolean || n.kind == kindAny {
		return generic
	}
	if n.kind == kindInt {
		return boxed(n.int, generic)
	}
	return boxed(n.float, generic)
}

// number is what the typed forms carry.
type number interface{ int64 | float64 }

// boxed runs a typed form and boxes its result; a cell that is not of
// its column's declared type sends the evaluation to the generic form.
func boxed[T number](f func(*frame) (T, bool, error), generic valueFn) valueFn {
	return func(fr *frame) (Value, error) {
		v, null, err := f(fr)
		switch {
		case err == errDeopt:
			return generic(fr)
		case err != nil || null:
			return nil, err
		}
		return v, nil
	}
}

// truth is the form a consumer of the three-valued truth value calls —
// filters, AND, OR, NOT: 1, 0 or NULL under AsBool, never errDeopt.
func (n *node) truth() intFn {
	if n.boolean {
		return n.intForm()
	}
	generic := n.valueForm()
	if n.leaf || n.kind == kindAny {
		return func(fr *frame) (int64, bool, error) {
			return truthOf(generic(fr))
		}
	}
	f := n.floatForm()
	return func(fr *frame) (int64, bool, error) {
		v, null, err := f(fr)
		if err != nil {
			return rescue(err, generic, fr)
		}
		return boolToInt(v != 0), null, nil
	}
}

func truthOf(v Value, err error) (int64, bool, error) {
	if err != nil || v == nil {
		return 0, true, err
	}
	return boolToInt(AsBool(v)), false, nil
}

// rescue handles a typed operand's error inside a predicate: errDeopt
// re-runs the predicate's generic form, anything else is the answer.
func rescue(err error, generic valueFn, fr *frame) (int64, bool, error) {
	if err != errDeopt {
		return 0, false, err
	}
	return truthOf(generic(fr))
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

// constValue evaluates an expression that reads no row; one that
// references a column is refused, not run against an empty frame.
func (c *compiler) constValue(e sqlparse.Expr) (Value, error) {
	c.resetRefs()
	n, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	if c.hi >= 0 {
		return nil, errNotConst
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
		list := make([]valueFn, len(v.List))
		for i, item := range v.List {
			n, err := c.compile(item)
			if err != nil {
				return node{}, err
			}
			list[i] = n.valueForm()
		}
		return inNode(x.valueForm(), list, v.Not), nil

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
	// The typed entry serves a call of exactly its arity whose every
	// argument is statically a number.
	t := fn.typed
	if t != nil && len(v.Args) != t.arity {
		t = nil
	}
	vals := make([]valueFn, len(v.Args))
	floats := make([]floatFn, len(v.Args))
	for i, a := range v.Args {
		n, err := c.compile(a)
		if err != nil {
			return node{}, err
		}
		vals[i] = n.valueForm()
		if n.kind == kindAny {
			t = nil
		}
		if t != nil {
			floats[i] = n.floatForm()
		}
	}
	call, buf := fn.call, make([]Value, len(vals))
	n := node{value: func(fr *frame) (Value, error) {
		for i, a := range vals {
			x, err := a(fr)
			if err != nil {
				return nil, err
			}
			buf[i] = x
		}
		return call(buf)
	}}
	if t == nil {
		return n, nil
	}
	core, fbuf := t.call, new([maxTypedArgs]float64)
	eval := func(fr *frame) (float64, bool, error) {
		// Every argument is evaluated before a NULL one decides, as the
		// generic call does: a later argument may hold the cell that
		// sends this call there.
		anyNull := false
		for i, a := range floats {
			x, null, err := a(fr)
			if err != nil {
				return 0, false, err
			}
			anyNull = anyNull || null
			fbuf[i] = x
		}
		if anyNull {
			return 0, true, nil
		}
		f, null := core(fbuf)
		return f, null, nil
	}
	if t.pred {
		n.kind = kindInt
		n.int = func(fr *frame) (int64, bool, error) {
			f, null, err := eval(fr)
			return int64(f), null, err
		}
	} else {
		n.kind, n.float = kindFloat, eval
	}
	return n, nil
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
		spec.arg = arg.scalar()
	case len(v.Args) == 0 && spec.kind == aggCount:
	default:
		return node{}, fmt.Errorf("sqlengine: aggregate %s takes one argument", v.Name)
	}
	slot := len(*c.aggs)
	*c.aggs = append(*c.aggs, spec)
	return node{leaf: true, value: func(fr *frame) (Value, error) { return fr.aggs[slot], nil }}, nil
}

// arithNode compiles + - * / %: int64 when both sides are (except /),
// float64 when both are numbers, generic otherwise.
func arithNode(op binOp, l, r *node) node {
	lv, rv := l.valueForm(), r.valueForm()
	n := node{value: func(fr *frame) (Value, error) {
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
	switch {
	case l.kind == kindAny || r.kind == kindAny:
	case l.kind == kindInt && r.kind == kindInt && op != opDiv:
		li, ri := l.intForm(), r.intForm()
		n.kind = kindInt
		n.int = func(fr *frame) (int64, bool, error) {
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
		}
	default:
		lf, rf := l.floatForm(), r.floatForm()
		n.kind = kindFloat
		n.float = func(fr *frame) (float64, bool, error) {
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
		}
	}
	return n
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

// cmpNode compiles a comparison: exact on two integers, on float64 when
// both sides are numbers, through Compare otherwise. NULL if either side
// is.
func cmpNode(op binOp, l, r *node) node {
	lv, rv := l.valueForm(), r.valueForm()
	generic := func(fr *frame) (Value, error) {
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
	n := node{kind: kindInt, boolean: true}
	switch {
	case l.kind == kindAny || r.kind == kindAny:
		n.value = generic
	case l.kind == kindInt && r.kind == kindInt:
		n.int = cmpTyped(op, l.intForm(), r.intForm(), generic)
	default:
		n.int = cmpTyped(op, l.floatForm(), r.floatForm(), generic)
	}
	return n
}

func cmpTyped[T number](op binOp, l, r func(*frame) (T, bool, error), generic valueFn) intFn {
	return func(fr *frame) (int64, bool, error) {
		a, an, err := l(fr)
		if err != nil {
			return rescue(err, generic, fr)
		}
		b, bn, err := r(fr)
		if err != nil {
			return rescue(err, generic, fr)
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
	xv := x.valueForm()
	n := node{kind: x.kind, value: func(fr *frame) (Value, error) {
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
	switch x.kind {
	case kindInt:
		n.int = negTyped(x.intForm())
	case kindFloat:
		n.float = negTyped(x.floatForm())
	}
	return n
}

func negTyped[T number](x func(*frame) (T, bool, error)) func(*frame) (T, bool, error) {
	return func(fr *frame) (T, bool, error) {
		v, null, err := x(fr)
		return -v, null, err
	}
}

// betweenNode compiles x [NOT] BETWEEN lo AND hi: NULL if any of the
// three is. It goes typed only where both of its comparisons are the
// same kind generically: all integers, or both on float64.
func betweenNode(x, lo, hi *node, not bool) node {
	xv, lov, hiv := x.valueForm(), lo.valueForm(), hi.valueForm()
	generic := func(fr *frame) (Value, error) {
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
	n := node{kind: kindInt, boolean: true}
	numeric := x.kind != kindAny && lo.kind != kindAny && hi.kind != kindAny
	switch {
	case numeric && x.kind == kindInt && lo.kind == kindInt && hi.kind == kindInt:
		n.int = betweenTyped(x.intForm(), lo.intForm(), hi.intForm(), not, generic)
	case numeric && (x.kind == kindFloat || (lo.kind == kindFloat && hi.kind == kindFloat)):
		n.int = betweenTyped(x.floatForm(), lo.floatForm(), hi.floatForm(), not, generic)
	default:
		n.value = generic
	}
	return n
}

func betweenTyped[T number](x, lo, hi func(*frame) (T, bool, error), not bool, generic valueFn) intFn {
	return func(fr *frame) (int64, bool, error) {
		v, vn, err := x(fr)
		if err != nil {
			return rescue(err, generic, fr)
		}
		l, ln, err := lo(fr)
		if err != nil {
			return rescue(err, generic, fr)
		}
		h, hn, err := hi(fr)
		if err != nil {
			return rescue(err, generic, fr)
		}
		// Compare's order: a NaN is neither below nor above anything.
		return boolToInt((!(v < l) && !(v > h)) != not), vn || ln || hn, nil
	}
}

// inNode compiles x [NOT] IN (list). With a NULL in the list an unmatched
// x is UNKNOWN, not FALSE: `x NOT IN (1, NULL)` is NULL, never TRUE. A
// NULL x and a match both stop the evaluation of the list.
func inNode(x valueFn, list []valueFn, not bool) node {
	return node{kind: kindInt, boolean: true, value: func(fr *frame) (Value, error) {
		v, err := x(fr)
		if err != nil || IsNull(v) {
			return nil, err
		}
		found, sawNull := false, false
		for _, item := range list {
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
	}}
}

func isNullNode(x *node, not bool) node {
	xv := x.valueForm()
	n := node{kind: kindInt, boolean: true}
	if x.leaf || x.kind == kindAny {
		n.value = func(fr *frame) (Value, error) {
			v, err := xv(fr)
			if err != nil {
				return nil, err
			}
			return boolToInt(IsNull(v) != not), nil
		}
		return n
	}
	xf := x.floatForm()
	n.int = func(fr *frame) (int64, bool, error) {
		_, null, err := xf(fr)
		if err == errDeopt {
			var v Value
			v, err = xv(fr)
			null = IsNull(v)
		}
		return boolToInt(null != not), false, err
	}
	return n
}

func likeNode(l, r *node) node {
	lv, rv := l.valueForm(), r.valueForm()
	return node{kind: kindInt, boolean: true, value: func(fr *frame) (Value, error) {
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
	}}
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
