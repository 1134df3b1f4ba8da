package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlparse"
)

// This file is the engine's previous evaluator, kept as the reference the
// compiled expressions are checked against (differential_test.go): a
// tree-walking interpreter that re-resolves names and re-dispatches
// operators on every row. It shares the value model (Compare, AsFloat,
// AsBool, likeMatch) and the function table with the engine and nothing
// else; its arithmetic and its operator dispatch are its own. The one
// deliberate change from the evaluator that shipped is AND / OR, which
// follow SQL's three-valued logic here as in the compiler.

// refBinding associates a FROM-clause name (alias or table name) with a
// schema and the current row.
type refBinding struct {
	name   string
	schema Schema
	row    Row
}

// evalEnv is the evaluation context for one joined row.
type evalEnv struct {
	bindings []*refBinding
	funcs    map[string]function
	// resolved caches column-reference resolution: expression node ->
	// (binding index, column index). Populated lazily; expression trees
	// are not shared across concurrent queries.
	resolved map[*sqlparse.ColumnRef][2]int
}

func newEvalEnv(bindings []*refBinding, funcs map[string]function) *evalEnv {
	return &evalEnv{
		bindings: bindings,
		funcs:    funcs,
		resolved: map[*sqlparse.ColumnRef][2]int{},
	}
}

// resolveColumn finds the binding and column for a reference.
func (env *evalEnv) resolveColumn(cr *sqlparse.ColumnRef) (int, int, error) {
	if pos, ok := env.resolved[cr]; ok {
		return pos[0], pos[1], nil
	}
	bi, ci := -1, -1
	if cr.Table != "" {
		for i, b := range env.bindings {
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
		for i, b := range env.bindings {
			if c := b.schema.ColIndex(cr.Column); c >= 0 {
				if bi >= 0 {
					return 0, 0, fmt.Errorf("sqlengine: ambiguous column %q", cr.Column)
				}
				bi, ci = i, c
			}
		}
		if bi < 0 {
			return 0, 0, fmt.Errorf("sqlengine: unknown column %q", cr.Column)
		}
	}
	env.resolved[cr] = [2]int{bi, ci}
	return bi, ci, nil
}

// Eval evaluates an expression against the current rows of the bindings.
// Aggregate calls must have been replaced before evaluation.
func (env *evalEnv) Eval(e sqlparse.Expr) (Value, error) {
	switch v := e.(type) {
	case *sqlparse.Literal:
		switch lit := v.Val.(type) {
		case bool:
			return boolToInt(lit), nil
		default:
			return lit, nil
		}

	case *sqlparse.ColumnRef:
		bi, ci, err := env.resolveColumn(v)
		if err != nil {
			return nil, err
		}
		row := env.bindings[bi].row
		if row == nil {
			return nil, fmt.Errorf("sqlengine: no current row for table %s", env.bindings[bi].name)
		}
		return row[ci], nil

	case *sqlparse.Star:
		return nil, fmt.Errorf("sqlengine: '*' is not a scalar expression")

	case *sqlparse.FuncCall:
		if v.IsAggregate() {
			return nil, fmt.Errorf("sqlengine: aggregate %s in scalar context", v.Name)
		}
		fn, ok := env.funcs[strings.ToLower(v.Name)]
		if !ok {
			return nil, fmt.Errorf("sqlengine: unknown function %q", v.Name)
		}
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			x, err := env.Eval(a)
			if err != nil {
				return nil, err
			}
			args[i] = x
		}
		return fn.call(args)

	case *sqlparse.BinaryExpr:
		return env.evalBinary(v)

	case *sqlparse.UnaryExpr:
		x, err := env.Eval(v.X)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "-":
			switch n := x.(type) {
			case nil:
				return nil, nil
			case int64:
				return -n, nil
			default:
				f, err := AsFloat(x)
				if err != nil {
					return nil, err
				}
				return -f, nil
			}
		case "NOT":
			if IsNull(x) {
				return nil, nil
			}
			return boolToInt(!AsBool(x)), nil
		default:
			return nil, fmt.Errorf("sqlengine: unknown unary operator %q", v.Op)
		}

	case *sqlparse.BetweenExpr:
		x, err := env.Eval(v.X)
		if err != nil {
			return nil, err
		}
		lo, err := env.Eval(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := env.Eval(v.Hi)
		if err != nil {
			return nil, err
		}
		if IsNull(x) || IsNull(lo) || IsNull(hi) {
			return nil, nil
		}
		cLo, err := Compare(x, lo)
		if err != nil {
			return nil, err
		}
		cHi, err := Compare(x, hi)
		if err != nil {
			return nil, err
		}
		in := cLo >= 0 && cHi <= 0
		if v.Not {
			in = !in
		}
		return boolToInt(in), nil

	case *sqlparse.InExpr:
		x, err := env.Eval(v.X)
		if err != nil {
			return nil, err
		}
		if IsNull(x) {
			return nil, nil
		}
		found := false
		sawNull := false
		for _, item := range v.List {
			y, err := env.Eval(item)
			if err != nil {
				return nil, err
			}
			if IsNull(y) {
				sawNull = true
				continue
			}
			if Equal(x, y) {
				found = true
				break
			}
		}
		if !found && sawNull {
			// SQL three-valued logic: with a NULL in the list, an
			// unmatched x is UNKNOWN, not FALSE — `x NOT IN (1, NULL)`
			// is NULL, never TRUE.
			return nil, nil
		}
		if v.Not {
			found = !found
		}
		return boolToInt(found), nil

	case *sqlparse.IsNullExpr:
		x, err := env.Eval(v.X)
		if err != nil {
			return nil, err
		}
		res := IsNull(x)
		if v.Not {
			res = !res
		}
		return boolToInt(res), nil

	default:
		return nil, fmt.Errorf("sqlengine: cannot evaluate %T", e)
	}
}

func (env *evalEnv) evalBinary(b *sqlparse.BinaryExpr) (Value, error) {
	// AND/OR short-circuit under SQL three-valued logic: the right side
	// is skipped only when the left side decides the result.
	switch b.Op {
	case "AND", "OR":
		decides := b.Op == "OR"
		l, err := env.Eval(b.L)
		if err != nil {
			return nil, err
		}
		if !IsNull(l) && AsBool(l) == decides {
			return boolToInt(decides), nil
		}
		r, err := env.Eval(b.R)
		if err != nil {
			return nil, err
		}
		if !IsNull(r) && AsBool(r) == decides {
			return boolToInt(decides), nil
		}
		if IsNull(l) || IsNull(r) {
			return nil, nil
		}
		return boolToInt(!decides), nil
	}

	l, err := env.Eval(b.L)
	if err != nil {
		return nil, err
	}
	r, err := env.Eval(b.R)
	if err != nil {
		return nil, err
	}

	switch b.Op {
	case "+", "-", "*", "/", "%":
		return evalArith(b.Op, l, r)
	case "=", "!=", "<", "<=", ">", ">=":
		if IsNull(l) || IsNull(r) {
			return nil, nil
		}
		c, err := Compare(l, r)
		if err != nil {
			return nil, err
		}
		var res bool
		switch b.Op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return boolToInt(res), nil
	case "LIKE":
		if IsNull(l) || IsNull(r) {
			return nil, nil
		}
		ls, rs := toString(l), toString(r)
		return boolToInt(likeMatch(ls, rs)), nil
	default:
		return nil, fmt.Errorf("sqlengine: unknown operator %q", b.Op)
	}
}

// evalArith performs numeric arithmetic with int/float promotion.
func evalArith(op string, l, r Value) (Value, error) {
	if IsNull(l) || IsNull(r) {
		return nil, nil
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt && op != "/" {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "%":
			if ri == 0 {
				return nil, nil // SQL: division by zero yields NULL
			}
			return li % ri, nil
		}
	}
	lf, err := AsFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := AsFloat(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	case "%":
		// Only a true zero divisor yields NULL; fractional divisors
		// (e.g. `x % 0.5`) must not be truncated to integers first — a
		// divisor in (-1, 1) would truncate to 0 and panic the scan lane
		// with an integer divide by zero.
		if rf == 0 {
			return nil, nil
		}
		return math.Mod(lf, rf), nil
	}
	return nil, fmt.Errorf("sqlengine: unknown arithmetic operator %q", op)
}
