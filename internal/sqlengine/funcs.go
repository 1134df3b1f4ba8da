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
	// guard, when set, is what lets a comparison of a call with a constant
	// be decided before the call is made (see guard). The compiler
	// specialises it once on the constant c; ok is false for a c it has
	// nothing to decide against. UDFs registered through RegisterFunc have
	// no typed entry, so they are never guarded.
	guard func(c float64) (g guard, ok bool)
	// minus, when set, is the typed entry of f(x...) - f(y...), over the
	// arguments of both calls in that order: the compiler builds a
	// subtraction of two calls of this builtin through it, which is how the
	// difference comes to have a guard of its own. Its call must be the
	// subtraction of the two results, NULL when either is.
	minus *typedFunc
	// band, when set beside guard, puts the guard's above verdict in the
	// terms a join can skip rows by (see declBand); ok is false for a c the
	// guard is not built for.
	band func(c float64) (b declBand, ok bool)
}

// verdict is a guard's answer about one call, given only its arguments.
type verdict uint8

const (
	undecided verdict = iota // make the call and compare its result
	below                    // the call would return a number that is < c
	above                    // the call would return a number that is > c
)

// guard is a typed entry's guard specialised on a constant c. Handed the
// arguments of one call — none of them NULL — it says how the call's result
// compares with c, as float64's < and > order the value call computes: not
// the function mathematics defines, the one the code returns, rounding
// included. It answers below or above only where that is certain, which
// every guard argues beside its code from a bound on call's floating-point
// error; wherever it answers undecided the compiled comparison makes the
// call, so a guard can change what a comparison costs and never what it
// answers.
//
// A log-affine builtin's guard is a value (logAffineGuard): the threshold k
// its argument is compared with, the shell [lo, hi] around it, the verdicts
// for a cell below and above the shell, and whether it is the guard of a
// difference of two calls (pair), whose shell is around k times the second
// cell. Its block form (logAffineLoop, in block.go) is a range test on the
// cells: it reads these fields into locals, tests each cell with side's own
// pieces (pairShell, shellPick), and calls exactly where side is undecided.
// Any other builtin's guard is the closure ask, and its block form asks it
// row by row (guardBlock.askLoop).
type guard struct {
	k, lo, hi   float64
	under, over verdict
	pair        bool
	ask         func(a *[maxTypedArgs]float64) verdict
}

// decide is the guard's verdict on one call's loaded arguments. Its
// receiver, like side's, is a copy: the closures that hold a guard keep it
// in their own context.
func (g guard) decide(a *[maxTypedArgs]float64) verdict {
	if g.ask != nil {
		return g.ask(a)
	}
	return g.side(a[0], a[1])
}

// side is a log-affine guard's verdict on the cell x, and for a pair on the
// cells x and x2 (x2 is not read otherwise). A block form tests its cells
// with the same two pieces, pairShell and shellPick (logAffineLoop).
func (g guard) side(x, x2 float64) verdict {
	lo, hi := g.lo, g.hi
	if g.pair {
		lo, hi = pairShell(g.k, x2)
	}
	return shellPick(x, lo, hi, g.under, g.over, undecided)
}

// pairShell is the shell of a pair's guard with threshold k around the
// second cell x2: k*x2*(1 +- guardShell), or NaN ends — which no cell is
// beyond or below, so shellPick decides none — where x2 or k*x2 is not a
// normal number. x2 must be normal too: the bound is math.Log10's on normal
// numbers, and on a subnormal it is off by whole units (math.Log10(1e-310)
// is -307.95).
func pairShell(k, x2 float64) (lo, hi float64) {
	kx2 := k * x2
	if !(x2 >= minNormal && x2 <= math.MaxFloat64) || !(kx2 >= minNormal && kx2 <= math.MaxFloat64/2) {
		return math.NaN(), math.NaN()
	}
	return kx2 * (1 - guardShell), kx2 * (1 + guardShell)
}

// shellPick is over for a cell x beyond the shell [lo, hi], under for one
// below it, and inside for any other: for one in the shell, and for one that
// is not a positive normal number — NaN, an infinity, zero, negative or
// subnormal. The common case is tested first. hi >= minNormal and
// lo <= MaxFloat64/2 (logAffineGuard and pairShell build no other shell),
// so x > hi needs no test that x is normal from below, nor x < lo one from
// above. It is the one statement of the shell test: guard.side picks
// verdicts with it, a block form the answers they give (logAffineLoop).
func shellPick[V any](x, lo, hi float64, under, over, inside V) V {
	if x > hi && x <= math.MaxFloat64 {
		return over
	}
	if x < lo && x >= minNormal {
		return under
	}
	return inside
}

// guardShell is the relative half-width of the shell around a guard's
// threshold inside which it leaves the decision to the call. The guards'
// error bounds are two to three orders of magnitude inside it.
const guardShell = 1e-9

// minNormal is the smallest positive normal float64: below it a product
// with 1 +- guardShell no longer has the relative precision the shells
// assume.
const minNormal = 0x1p-1022

// registerNumeric installs a builtin of arity numbers that is NULL when
// any argument is, with both of its entries derived from call. It returns
// the typed entry, for a builtin that has more to declare on it.
func (e *Engine) registerNumeric(name string, n int, pred bool, call func(a *[maxTypedArgs]float64) (float64, bool)) *typedFunc {
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
	t := &typedFunc{arity: n, pred: pred, call: call}
	e.funcs[lower(name)] = function{call: generic, typed: t}
	return t
}

// registerBuiltins installs the function set every Qserv database
// instance carries: the astronomy UDFs the paper's queries use (section
// 5.3 and 6.2) plus ordinary math helpers.
func registerBuiltins(e *Engine) {
	// fluxToAbMag converts a calibrated flux (Jansky-scaled units in the
	// PT1.1 schema) to an AB magnitude: m = -2.5 log10(f) - 48.6, undefined
	// (SQL NULL) for a flux that is not positive.
	e.registerLogAffine("fluxToAbMag", -2.5, -48.6)

	// qserv_angSep(ra1, decl1, ra2, decl2) returns the angular distance
	// in degrees between two positions (the worker-side UDF behind
	// near-neighbor predicates).
	e.registerNumeric("qserv_angSep", 4, false, func(a *[maxTypedArgs]float64) (float64, bool) {
		return sphgeom.AngSepDeg(a[0], a[1], a[2], a[3]), false
	})
	angSep := e.funcs["qserv_angsep"].typed
	angSep.guard, angSep.band = angSepGuard, angSepBand
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

// registerLogAffine installs the one-argument builtin
//
//	y(x) = a*log10(x) + b for x > 0, NULL for x <= 0,
//
// and derives from that one declaration its guards: of y(x) against a
// constant, and (typedFunc.minus) of y(x1) - y(x2) against a constant.
// The guards' error bound assumes |b| <= 1000*|a|.
func (e *Engine) registerLogAffine(name string, a, b float64) {
	if a == 0 || math.Abs(b) > 1000*math.Abs(a) {
		panic(fmt.Sprintf("sqlengine: %s: no guard bound for y = %g*log10(x) + %g", name, a, b))
	}
	t := e.registerNumeric(name, 1, false, func(arg *[maxTypedArgs]float64) (float64, bool) {
		if arg[0] <= 0 {
			return 0, true
		}
		return a*math.Log10(arg[0]) + b, false
	})
	// y(x) ? c is x against 10^((c-b)/a), and y(x1) - y(x2) = a*log10(x1/x2),
	// so the difference against c is x1 against 10^(c/a) * x2.
	t.guard = func(c float64) (guard, bool) { return logAffineGuard(a, (c-b)/a, false) }
	t.minus = &typedFunc{
		arity: 2,
		call: func(arg *[maxTypedArgs]float64) (float64, bool) {
			if arg[0] <= 0 || arg[1] <= 0 {
				return 0, true
			}
			return (a*math.Log10(arg[0]) + b) - (a*math.Log10(arg[1]) + b), false
		},
		guard: func(c float64) (guard, bool) { return logAffineGuard(a, c/a, true) },
	}
}

// logAffineGuard decides y(x) against c — or, for a pair, y(x1) - y(x2)
// against c — by comparing x with the threshold k = 10^exp, for a pair x1
// with k*x2: y is monotone in x, falling when a < 0. It decides (guard.side)
// only for x outside k*(1 +- guardShell), with x — for a pair both cells —
// and the threshold normal numbers (so not for a zero, negative, subnormal,
// infinite or NaN cell), and is not built when k itself is not one.
//
// Why the shell is safe. For a normal x, math.Log10(x) is a handful of
// roundings at 2^-53 relative on a value of at most 308: within 3e-13 of
// log10(x). The multiplication by a and the addition of b round a value
// of at most 308*|a| + |b| twice more, so the computed y(x) is within
// |a|*6e-13 of the real one, and a computed difference of two within
// |a|*1.3e-12. The threshold's exponent is rounded twice and math.Pow adds
// a few ulps: k is within 3e-13 relative of 10^exp, which moves the real
// y at k by |a|*1.3e-13. Outside the shell the real y (or difference) is
// at least |a|*log10(1 + 1e-9) = |a|*4.3e-10 away from c: more than 300
// times all of those errors together, so the computed result is on the
// same side of c as the real one.
func logAffineGuard(a, exp float64, pair bool) (guard, bool) {
	k := math.Pow(10, exp)
	if !(k >= minNormal && k <= math.MaxFloat64/2) {
		return guard{}, false // under- or overflow, or a NaN constant
	}
	g := guard{k: k, lo: k * (1 - guardShell), hi: k * (1 + guardShell), under: above, over: below, pair: pair}
	if a > 0 {
		g.under, g.over = below, above
	}
	return g, true
}

// angSepGuard decides qserv_angSep(ra1, decl1, ra2, decl2) against r from
// the declinations alone: two points are at least as far apart as their
// declinations, so a declination difference beyond r puts the separation
// above r — the section 4.4 zone idea at its cheapest. It decides nothing
// else: not "below", not for a declination outside [-90, 90] or an RA
// difference that is not finite (the function then returns what its formula
// makes of them), and it is not built for r above 179 degrees.
//
// Why the shell is safe. AngSepDeg is the haversine formula: its
// RA term cos(decl1)*cos(decl2)*sin^2(dRA/2) is computed non-negative for
// declinations in [-90, 90] (cos of the float nearest pi/2 is 6e-17, not
// negative), so what it returns is at least what it returns for dRA = 0,
// its own round trip of |decl1 - decl2| through radians, sin, sqrt and
// asin. That round trip loses at most 7e-14 degrees absolutely (the two
// conversions to radians are rounded before they are subtracted) and
// 1.3e-12 relatively up to 179.9 degrees (a few roundings, times the
// conditioning of asin near 1, at most 573 there); beyond 179.9 it loses
// up to 2e-6 degrees, and still returns more than 179.89 > r. The guard
// asks for a declination difference above r*(1 + 1e-9) + 1e-9: for every
// r three orders of magnitude more than that loss.
func angSepGuard(r float64) (guard, bool) {
	b, ok := angSepBand(r)
	if !ok {
		return guard{}, false
	}
	return guard{ask: func(a *[maxTypedArgs]float64) verdict {
		if b.inDomain(a[1]) && b.inDomain(a[3]) && b.apart(a[1], a[3]) && math.Abs(a[0]-a[2]) <= math.MaxFloat64 {
			return above
		}
		return undecided
	}}, true
}

// declBand is angSepGuard's above verdict, taken apart so that a join can
// apply it to whole runs of rows: for a call f(ra1, decl1, ra2, decl2) the
// guard answers above exactly when both declinations are inDomain, they are
// apart, and ra1 - ra2 is finite. The guard is written in these same
// methods, so a row a band join skips by them is a row the guard answers
// above for.
type declBand struct{ far float64 }

func angSepBand(r float64) (declBand, bool) {
	return declBand{far: r*(1+guardShell) + guardShell}, r <= 179
}

// The declinations the guard decides for.
const declMin, declMax = -90, 90

func (b declBand) inDomain(decl float64) bool { return decl >= declMin && decl <= declMax }

func (b declBand) apart(decl1, decl2 float64) bool { return math.Abs(decl1-decl2) > b.far }

// raSafe reports whether an RA is small enough that its difference with
// any other safe one is finite, which is all the guard asks of the RAs.
func raSafe(ra float64) bool { return math.Abs(ra) <= math.MaxFloat64/2 }

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
