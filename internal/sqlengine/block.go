package sqlengine

import (
	"math"

	"repro/internal/sqlparse"
)

// blockFn is a conjunct's block form: it narrows sel — positions of one
// binding's rows, in the order a scan visits them — to those for which the
// conjunct is TRUE, reading their cells straight from that binding's
// columns, and returns the narrowed slice, which shares sel's array and
// keeps its order. It cannot fail: a conjunct gets one only where its row
// form cannot fail either, and a row it drops is one whose row form is
// FALSE or NULL — a NULL argument included.
//
// Two shapes have one, and their kernels make the row form's decisions: a
// guarded comparison or BETWEEN whose call reads column leaves only
// (guardedCmpBlock, guardedBetweenBlock), and a numeric column compared
// with, or BETWEEN, numeric constants (cmpBlock, betweenBlock).
type blockFn func(cols []column, sel []int32) []int32

// dropNulls narrows sel to the positions whose cell of c is not NULL.
func dropNulls(c *column, sel []int32) []int32 {
	if len(c.nulls) == 0 {
		return sel
	}
	kept := 0
	for _, p := range sel {
		sel[kept] = p
		if !c.null(int(p)) {
			kept++
		}
	}
	return sel[:kept]
}

// rangeBlock keeps the rows whose cell x of column ci, taken in F as the row
// form takes it, lies in [lo, hi] as BETWEEN decides it — !(x < lo) &&
// !(x > hi), so a NaN lies in every range — or, with not, outside it. Every
// comparison of a column with a constant is such a range (cmpBlock).
func rangeBlock[T, F number](ci int, lo, hi F, not bool, cells func(*column) []T) blockFn {
	return func(cols []column, sel []int32) []int32 {
		c := &cols[ci]
		xs, kept := cells(c), 0
		if not {
			for _, p := range sel {
				x := F(xs[p])
				sel[kept] = p
				if x < lo || x > hi {
					kept++
				}
			}
		} else {
			for _, p := range sel {
				x := F(xs[p])
				sel[kept] = p
				if !(x < lo || x > hi) {
					kept++
				}
			}
		}
		return dropNulls(c, sel[:kept])
	}
}

func intCells(c *column) []int64     { return c.ints }
func floatCells(c *column) []float64 { return c.floats }

// cmpRange is the comparison x op c as a range of rangeBlock: least and
// most are the ends of F's order, which no x lies beyond.
func cmpRange[F number](op binOp, c, least, most F) (lo, hi F, not bool) {
	switch op {
	case opGe, opLt:
		return c, most, op == opLt
	case opLe, opGt:
		return least, c, op == opGt
	}
	return c, c, op == opNe
}

// cmpBlock is the block form of a numeric column compared with a numeric
// constant, on either side, under cmpNode's kind rules: an integer column
// against an integer constant exactly, every other pair on float64. It is
// nil for any other comparison.
func cmpBlock(op binOp, l, r *node) blockFn {
	if r.isCol {
		l, r, op = r, l, mirrored(op)
	}
	if !l.isCol || !l.kind.numeric() {
		return nil
	}
	if l.kind == kindInt && r.kind == kindInt {
		c, ok := r.constInt()
		if !ok {
			return nil
		}
		lo, hi, not := cmpRange(op, c, math.MinInt64, math.MaxInt64)
		return rangeBlock(l.ci, lo, hi, not, intCells)
	}
	c, ok := r.constFloat()
	if !ok {
		return nil
	}
	lo, hi, not := cmpRange(op, c, math.Inf(-1), math.Inf(1))
	return floatRange(l, lo, hi, not)
}

// betweenBlock is the block form of a numeric column [NOT] BETWEEN two
// numeric constants, under betweenNode's kind rules: exact when all three
// are integers, on float64 when the column or both bounds are floats. It is
// nil for any other BETWEEN, the mixed ones betweenNode leaves generic
// among them.
func betweenBlock(x, lo, hi *node, not bool) blockFn {
	if !x.isCol || !x.kind.numeric() {
		return nil
	}
	if x.kind == kindInt && lo.kind == kindInt && hi.kind == kindInt {
		l, lok := lo.constInt()
		h, hok := hi.constInt()
		if !lok || !hok {
			return nil
		}
		return rangeBlock(x.ci, l, h, not, intCells)
	}
	if x.kind != kindFloat && (lo.kind != kindFloat || hi.kind != kindFloat) {
		return nil
	}
	l, lok := lo.constFloat()
	h, hok := hi.constFloat()
	if !lok || !hok {
		return nil
	}
	return floatRange(x, l, h, not)
}

// floatRange is rangeBlock on float64 over a numeric column leaf: an
// integer column's cells widen, as its floatForm widens them.
func floatRange(x *node, lo, hi float64, not bool) blockFn {
	if x.kind == kindInt {
		return rangeBlock(x.ci, lo, hi, not, intCells)
	}
	return rangeBlock(x.ci, lo, hi, not, floatCells)
}

// argCells are the cells of a typed call's column arguments in one block:
// each argument's []float64, or its []int64 to widen as floatForm does.
type argCells struct {
	n      int
	isInt  [maxTypedArgs]bool
	floats [maxTypedArgs][]float64
	ints   [maxTypedArgs][]int64
}

// cellArgs returns the columns of a typed call's n arguments when every one
// is a column leaf of one binding — what its block form loads — and n = 0
// otherwise.
func (tc *typedCall) cellArgs() (cols [maxTypedArgs]int, n int) {
	for i := range tc.nodes {
		a := &tc.nodes[i]
		if !a.isCol || a.bi != tc.nodes[0].bi {
			return cols, 0
		}
		cols[i] = a.ci
	}
	return cols, len(tc.nodes)
}

// resolve takes the argument columns of one block and drops from sel the
// rows where any of them is NULL: the rows for which the row form's load
// reports NULL without calling anything.
func (a *argCells) resolve(cols []column, args []int, sel []int32) []int32 {
	a.n = len(args)
	for i, ci := range args {
		c := &cols[ci]
		a.isInt[i], a.floats[i], a.ints[i] = c.typ == sqlparse.TypeInt, c.floats, c.ints
		sel = dropNulls(c, sel)
	}
	return sel
}

// load fills the call's buffer with row p's arguments, as typedCall.load
// would.
func (a *argCells) load(p int32, buf *[maxTypedArgs]float64) {
	for i := 0; i < a.n; i++ {
		if a.isInt[i] {
			buf[i] = float64(a.ints[i][p])
		} else {
			buf[i] = a.floats[i][p]
		}
	}
}

// The answers a guarded block form adds to the rows kept are 0 and 1; these
// two stand for what the row form does instead on a verdict.
const (
	callRow = 2 + iota // it makes the call
	second             // it asks a BETWEEN's second guard
)

// guardBlock is the block form of a guarded comparison or BETWEEN: the
// guards (the comparison's one, or the two of a BETWEEN's bounds), the row
// form's answer for each verdict of the first (first) and of the second
// (then), and how the row form settles the call's result.
type guardBlock struct {
	tc          *typedCall
	args        []int
	gs          [2]guard
	first, then [3]int
	settle      func(y float64) bool
}

// guardedCmpBlock is guardedCmp's comparison as a block form: answer holds
// for a result below, equal to and above c. It is nil unless every argument
// is a column leaf.
func guardedCmpBlock(tc *typedCall, g guard, answer [3]int64, c float64) blockFn {
	return (&guardBlock{
		tc: tc, gs: [2]guard{g},
		first:  [3]int{undecided: callRow, below: int(answer[0]), above: int(answer[2])},
		settle: func(y float64) bool { return answer[threeWay(y, c)+1] == 1 },
	}).form()
}

// guardedBetweenBlock is guardedBetween's form for a block: the guards
// specialised on l and h decide where they settle it, as the row form asks
// them, and the call decides the rest.
func guardedBetweenBlock(tc *typedCall, gLo, gHi guard, l, h float64, not bool) blockFn {
	in, out := int(boolToInt(!not)), int(boolToInt(not))
	return (&guardBlock{
		tc: tc, gs: [2]guard{gLo, gHi},
		first:  [3]int{undecided: callRow, below: out, above: second},
		then:   [3]int{undecided: callRow, below: in, above: out},
		settle: func(y float64) bool { return (!(y < l) && !(y > h)) != not },
	}).form()
}

// form is the block form, or nil where an argument is not a column leaf. A
// log-affine guard is a range test on the cells (logAffineLoop); any other
// is asked row by row (askLoop).
func (b *guardBlock) form() blockFn {
	args, n := b.tc.cellArgs()
	if n == 0 {
		return nil
	}
	b.args = args[:n]
	if b.gs[0].ask != nil {
		return b.askLoop
	}
	return func(cols []column, sel []int32) []int32 {
		for _, ci := range b.args {
			sel = dropNulls(&cols[ci], sel)
		}
		if x := &cols[b.args[0]]; x.typ == sqlparse.TypeInt {
			return logAffineCells(b, x.ints, cols, sel)
		} else {
			return logAffineCells(b, x.floats, cols, sel)
		}
	}
}

// rest is the answer for the arguments in the call's buffer where the first
// guard's answer a is neither 0 nor 1: for second, the second guard's, where
// that is 0 or 1; else the call's, settled as the row form settles it.
func (b *guardBlock) rest(a int) int {
	buf := &b.tc.buf
	if a == second {
		a = b.then[b.gs[1].decide(buf)]
	}
	if a == callRow {
		y, null := b.tc.fn.call(buf)
		if a = 0; !null && b.settle(y) {
			a = 1
		}
	}
	return a
}

// askLoop loads each row's arguments into the call's buffer, as the row
// form's load does, and asks the guards as the row form asks them.
func (b *guardBlock) askLoop(cols []column, sel []int32) []int32 {
	var cells argCells
	sel = cells.resolve(cols, b.args, sel)
	kept := 0
	for _, p := range sel {
		cells.load(p, &b.tc.buf)
		sel[kept] = p
		if a := b.first[b.gs[0].ask(&b.tc.buf)]; a < callRow {
			kept += a
		} else {
			kept += b.rest(a)
		}
	}
	return sel[:kept]
}

// logAffineCells runs logAffineLoop over the first argument's cells xs and
// the second argument's column, if the call has one.
func logAffineCells[T number](b *guardBlock, xs []T, cols []column, sel []int32) []int32 {
	if len(b.args) == 1 {
		return logAffineLoop(b, xs, []float64(nil), sel)
	}
	if x2 := &cols[b.args[1]]; x2.typ == sqlparse.TypeInt {
		return logAffineLoop(b, xs, x2.ints, sel)
	} else {
		return logAffineLoop(b, xs, x2.floats, sel)
	}
}

// logAffineLoop is a log-affine guard's block form: a range test on the
// cells. It reads each row's cell x — and for a pair x2 — straight from the
// column, widened as floatForm widens an integer, holds the first guard's
// shell in locals, and tests x against it with shellPick, the test
// guard.side is made of, so that it decides exactly where side does. Where
// the answer is 0 or 1 it adds it to the rows kept without a branch on it;
// anything else is rest's. So it makes the call only where side is
// undecided: in a shell, and on a NaN, infinite, zero, negative or subnormal
// cell (or a second cell, or product of k with it, that is not normal:
// pairShell).
func logAffineLoop[T, U number](b *guardBlock, xs []T, x2s []U, sel []int32) []int32 {
	g, buf := &b.gs[0], &b.tc.buf
	under, over := b.first[g.under], b.first[g.over]
	kept := 0
	if !g.pair {
		lo, hi := g.lo, g.hi
		for _, p := range sel {
			x := float64(xs[p])
			sel[kept] = p
			if a := shellPick(x, lo, hi, under, over, callRow); a < callRow {
				kept += a
			} else {
				buf[0] = x
				kept += b.rest(a)
			}
		}
		return sel[:kept]
	}
	k := g.k
	for _, p := range sel {
		x, x2 := float64(xs[p]), float64(x2s[p])
		lo, hi := pairShell(k, x2)
		sel[kept] = p
		if a := shellPick(x, lo, hi, under, over, callRow); a < callRow {
			kept += a
		} else {
			buf[0], buf[1] = x, x2
			kept += b.rest(a)
		}
	}
	return sel[:kept]
}
