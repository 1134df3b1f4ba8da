package sqlengine

import (
	"math/rand"
	"testing"
)

// What sink_test.go borrows from the internal tests: it is an external
// test, because it holds the engine's output to packages that import the
// engine (dump, rowcodec).

// GoldenSelects returns the statements of testdata/golden_select.json and
// the engine they run on.
func GoldenSelects(t *testing.T) (*Engine, []string) { return goldenEngine(t), goldenStatements }

// DiffEngine returns an engine holding the differential tests' tables t
// and u: NULLs, -0.0, NaN, the infinities, the int64 extremes, the empty
// string.
func DiffEngine(t *testing.T) *Engine {
	e := New("LSST")
	db, err := e.Database("LSST")
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range diffTables() {
		db.Put(tbl)
	}
	return e
}

// RandomExpr draws the text of one expression over t and u, as the
// differential tests do.
func RandomExpr(r *rand.Rand, depth int) string { return exprGen{r}.expr(depth).SQL() }

// BenchHV2 is the scan benches' High Volume 2 chunk statement, and
// BenchEngine the engine holding its chunk table, of n rows.
const BenchHV2 = benchHV2

func BenchEngine(tb testing.TB, n int) *Engine { return benchEngine(tb, n) }

// withBlockFormsOff runs f with every scan's whole filter run row by row,
// as withBandJoinOff runs it with the band join off: the block forms' answers
// are held to the row forms' through it.
func withBlockFormsOff(f func()) {
	blockFormsOff = true
	defer func() { blockFormsOff = false }()
	f()
}

// CountTypedCalls wraps the typed entry of a builtin — and, where it
// declares one, the entry for the difference of two of its calls — with a
// counter of the calls compiled statements make through it from here on.
// The generic entry, which the reference evaluator calls, is not counted.
func CountTypedCalls(e *Engine, name string) *int64 {
	n := new(int64)
	for t := e.funcs[lower(name)].typed; t != nil; t = t.minus {
		call := t.call
		t.call = func(a *[maxTypedArgs]float64) (float64, bool) {
			*n++
			return call(a)
		}
	}
	return n
}
