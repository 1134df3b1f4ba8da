package sqlengine

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/sphgeom"
)

// function is one entry of an engine's function table.
type function struct {
	call Func
	// typed is set on builtins that also have an unboxed entry; UDFs
	// registered through RegisterFunc have only call.
	typed *typedFunc
}

// maxTypedArgs is the widest typed entry (qserv_ptInSphericalBox).
const maxTypedArgs = 6

// typedFunc is the unboxed entry of a builtin over numbers: the compiler
// calls it instead of the generic Func when a call has exactly arity
// arguments and every one is statically a number. It is only called with
// no argument NULL, and reports whether its result is.
type typedFunc struct {
	arity int
	pred  bool // the result is 0 or 1 and surfaces as an int64
	call  func(a *[maxTypedArgs]float64) (f float64, null bool)
}

// registerNumeric installs a builtin of arity numbers that is NULL when
// any argument is, with both of its entries derived from call.
func (e *Engine) registerNumeric(name string, n int, pred bool, call func(a *[maxTypedArgs]float64) (float64, bool)) {
	generic := func(args []Value) (Value, error) {
		if err := arity(name, args, n); err != nil {
			return nil, err
		}
		var f [maxTypedArgs]float64
		for i, a := range args {
			if IsNull(a) {
				return nil, nil
			}
			x, err := AsFloat(a)
			if err != nil {
				return nil, err
			}
			f[i] = x
		}
		y, null := call(&f)
		switch {
		case null:
			return nil, nil
		case pred:
			return int64(y), nil
		}
		return y, nil
	}
	e.funcs[lower(name)] = function{call: generic, typed: &typedFunc{arity: n, pred: pred, call: call}}
}

// registerBuiltins installs the function set every Qserv database
// instance carries: the astronomy UDFs the paper's queries use (section
// 5.3 and 6.2) plus ordinary math helpers.
func registerBuiltins(e *Engine) {
	// fluxToAbMag converts a calibrated flux (Jansky-scaled units in the
	// PT1.1 schema) to an AB magnitude: m = -2.5 log10(f) - 48.6.
	e.registerNumeric("fluxToAbMag", 1, false, func(a *[maxTypedArgs]float64) (float64, bool) {
		if a[0] <= 0 {
			return 0, true // undefined magnitude, SQL NULL
		}
		return -2.5*math.Log10(a[0]) - 48.6, false
	})

	// qserv_angSep(ra1, decl1, ra2, decl2) returns the angular distance
	// in degrees between two positions (the worker-side UDF behind
	// near-neighbor predicates).
	e.registerNumeric("qserv_angSep", 4, false, func(a *[maxTypedArgs]float64) (float64, bool) {
		return sphgeom.AngSepDeg(a[0], a[1], a[2], a[3]), false
	})
	// scisql-compatible alias.
	e.funcs["scisql_angsep"] = e.funcs["qserv_angsep"]

	// qserv_ptInSphericalBox(ra, decl, raMin, declMin, raMax, declMax)
	// returns 1 when the point lies in the (RA-wrap aware) box. This is
	// what qserv_areaspec_box rewrites into on workers (section 5.3).
	e.registerNumeric("qserv_ptInSphericalBox", 6, true, func(a *[maxTypedArgs]float64) (float64, bool) {
		box := sphgeom.NewBox(a[2], a[4], a[3], a[5])
		return float64(boolToInt(box.Contains(sphgeom.NewPoint(a[0], a[1])))), false
	})

	// qserv_ptInSphericalCircle(ra, decl, raC, declC, radius).
	e.registerNumeric("qserv_ptInSphericalCircle", 5, true, func(a *[maxTypedArgs]float64) (float64, bool) {
		c := sphgeom.NewCircle(sphgeom.NewPoint(a[2], a[3]), a[4])
		return float64(boolToInt(c.Contains(sphgeom.NewPoint(a[0], a[1])))), false
	})

	// Math helpers. A NaN result is NULL.
	for name, fn := range map[string]func(float64) float64{
		"ABS": math.Abs,
		"SQRT": func(x float64) float64 {
			if x < 0 {
				return math.NaN()
			}
			return math.Sqrt(x)
		},
		"FLOOR": math.Floor, "CEIL": math.Ceil, "LOG10": math.Log10, "LN": math.Log,
		"SIN": math.Sin, "COS": math.Cos, "RADIANS": sphgeom.RadOf, "DEGREES": sphgeom.DegOf,
	} {
		e.registerNumeric(name, 1, false, func(a *[maxTypedArgs]float64) (float64, bool) {
			y := fn(a[0])
			return y, math.IsNaN(y)
		})
	}
	e.funcs["pow"] = function{
		call: func(args []Value) (Value, error) {
			if err := arity("POW", args, 2); err != nil {
				return nil, err
			}
			if IsNull(args[0]) || IsNull(args[1]) {
				return nil, nil
			}
			a, err := AsFloat(args[0])
			if err != nil {
				return nil, err
			}
			b, err := AsFloat(args[1])
			if err != nil {
				return nil, err
			}
			return math.Pow(a, b), nil
		},
		typed: &typedFunc{arity: 2, call: func(a *[maxTypedArgs]float64) (float64, bool) {
			return math.Pow(a[0], a[1]), false
		}},
	}
	e.RegisterFunc("ROUND", func(args []Value) (Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("sqlengine: ROUND takes 1 or 2 arguments, got %d", len(args))
		}
		if IsNull(args[0]) {
			return nil, nil
		}
		x, err := AsFloat(args[0])
		if err != nil {
			return nil, err
		}
		digits := int64(0)
		if len(args) == 2 {
			if IsNull(args[1]) {
				return nil, nil
			}
			digits, err = AsInt(args[1])
			if err != nil {
				return nil, err
			}
		}
		scale := math.Pow(10, float64(digits))
		return math.Round(x*scale) / scale, nil
	})
	e.RegisterFunc("GREATEST", variadicExtreme("GREATEST", 1))
	e.RegisterFunc("LEAST", variadicExtreme("LEAST", -1))
	e.RegisterFunc("IFNULL", func(args []Value) (Value, error) {
		if err := arity("IFNULL", args, 2); err != nil {
			return nil, err
		}
		if IsNull(args[0]) {
			return args[1], nil
		}
		return args[0], nil
	})
	e.RegisterFunc("MOD", func(args []Value) (Value, error) {
		if err := arity("MOD", args, 2); err != nil {
			return nil, err
		}
		return arith(opMod, args[0], args[1])
	})
}

// SlowIdentity returns a UDF that hands its one argument back and makes
// its callers pay d per call: tests and benches that must catch a scan
// mid-flight register it on the worker engines and wrap a column in it,
// which makes scan length theirs to set instead of a property of the
// engine. The pause is taken as one sleep of a millisecond or more every
// so many calls (a sleep of microseconds lasts a millisecond anyway), and
// it is a bounded sleep, never a wait on the test: a SELECT holds the
// engine's read lock while it runs. With d <= 0 it is a plain identity.
// It is a test and bench helper; nothing registers it in production.
func SlowIdentity(d time.Duration) Func {
	every := int64(1) // time.Sleep returns at once for d <= 0
	if d > 0 {
		every = int64(max(1, time.Millisecond/d))
	}
	var calls atomic.Int64
	return func(args []Value) (Value, error) {
		if err := arity("slow identity", args, 1); err != nil {
			return nil, err
		}
		if calls.Add(1)%every == 0 {
			time.Sleep(time.Duration(every) * d)
		}
		return args[0], nil
	}
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func arity(name string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("sqlengine: %s takes %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func variadicExtreme(name string, dir int) Func {
	return func(args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("sqlengine: %s needs at least one argument", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			if IsNull(a) || IsNull(best) {
				return nil, nil
			}
			c, err := Compare(a, best)
			if err != nil {
				return nil, err
			}
			if c*dir > 0 {
				best = a
			}
		}
		return best, nil
	}
}
