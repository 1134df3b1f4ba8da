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

// guardedCmpBlock is guardedCmp's comparison as a block form: answer holds
// for a result below, equal to and above c. It loads the arguments into the
// call's own buffer, asks the same guard — a log-affine guard is a value,
// decided here (guard.side) with no call; any other is the closure ask — and
// makes the call only where the guard is undecided: the row form's decision,
// written out again so that it stays inside the loop. It is nil unless every
// argument is a column leaf.
func guardedCmpBlock(tc *typedCall, g guard, answer [3]int64, c float64) blockFn {
	args, n := tc.cellArgs()
	if n == 0 {
		return nil
	}
	keep := [3]bool{answer[0] == 1, answer[1] == 1, answer[2] == 1}
	return func(cols []column, sel []int32) []int32 {
		var cells argCells
		sel = cells.resolve(cols, args[:n], sel)
		kept := 0
		for _, p := range sel {
			cells.load(p, &tc.buf)
			v := undecided
			if g.ask == nil {
				v = g.side(tc.buf[0], tc.buf[1])
			} else {
				v = g.ask(&tc.buf)
			}
			var in bool
			switch v {
			case below:
				in = keep[0]
			case above:
				in = keep[2]
			default:
				y, null := tc.fn.call(&tc.buf)
				in = !null && keep[threeWay(y, c)+1]
			}
			sel[kept] = p
			if in {
				kept++
			}
		}
		return sel[:kept]
	}
}

// guardedBetweenBlock is guardedBetween's form for a block: the guards
// specialised on l and h decide where they settle it, as guardedCmpBlock asks
// them, and the call decides the rest.
func guardedBetweenBlock(tc *typedCall, gLo, gHi guard, l, h float64, not bool) blockFn {
	args, n := tc.cellArgs()
	if n == 0 {
		return nil
	}
	return func(cols []column, sel []int32) []int32 {
		var cells argCells
		sel = cells.resolve(cols, args[:n], sel)
		kept := 0
		for _, p := range sel {
			cells.load(p, &tc.buf)
			var vl, vh verdict
			if gLo.ask == nil {
				vl, vh = gLo.side(tc.buf[0], tc.buf[1]), gHi.side(tc.buf[0], tc.buf[1])
			} else {
				vl, vh = gLo.ask(&tc.buf), gHi.ask(&tc.buf)
			}
			in, decided := false, true
			switch vl {
			case below:
			case above:
				switch vh {
				case below:
					in = true
				case undecided:
					decided = false
				}
			default:
				decided = false
			}
			if decided {
				in = in != not
			} else {
				y, null := tc.fn.call(&tc.buf)
				in = !null && (!(y < l) && !(y > h)) != not
			}
			sel[kept] = p
			if in {
				kept++
			}
		}
		return sel[:kept]
	}
}
