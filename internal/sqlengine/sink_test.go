package sqlengine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dump"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// TestSinkMatchesBoxed does not trust the engine's unboxed output path: a
// statement that writes its result into an encoding sink (what a worker's
// chunk query does) must produce, byte for byte, the stream dump.Dump makes
// of the boxed Result the same statement returns without one — rows, their
// order, the declared column types — and the same ExecStats. It runs every
// golden statement, then 2,000 seeded projections over the differential
// tests' tables: typed items and untyped ones side by side, with and
// without DISTINCT, ORDER BY and LIMIT.
func TestSinkMatchesBoxed(t *testing.T) {
	check := func(e *sqlengine.Engine, sql string) {
		t.Helper()
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		boxed, berr := e.ExecuteStmtOpts(sel, sqlengine.ExecOptions{})
		var w dump.Writer
		res, err := e.ExecuteStmtOpts(sel, sqlengine.ExecOptions{Sink: &w})
		if (err == nil) != (berr == nil) {
			t.Fatalf("%s: boxed run says %v, run into a sink %v", sql, berr, err)
		}
		if err != nil {
			return
		}
		if res.Rows != nil {
			t.Errorf("%s: a run into a sink returned %d boxed rows", sql, len(res.Rows))
		}
		if !reflect.DeepEqual(res.Cols, boxed.Cols) || !reflect.DeepEqual(res.Types, boxed.Types) || res.Stats != boxed.Stats {
			t.Errorf("%s:\n boxed %v %v %+v\n  sink %v %v %+v", sql, boxed.Cols, boxed.Types, boxed.Stats, res.Cols, res.Types, res.Stats)
		}
		if got, want := w.Frame("r", res.Schema(), 0), dump.Dump("r", boxed); !bytes.Equal(got, []byte(want)) {
			t.Errorf("%s:\n the sink's stream %q\n Dump of the rows  %q", sql, got, want)
		}
	}

	golden, selects := sqlengine.GoldenSelects(t)
	for _, sql := range selects {
		check(golden, sql)
	}

	e := sqlengine.DiffEngine(t)
	// An item no compiler can type: an integer for some rows, a float or a
	// string for others.
	e.RegisterFunc("mixed", func(args []sqlengine.Value) (sqlengine.Value, error) {
		switch x := args[0].(type) {
		case int64:
			switch x % 3 {
			case 0:
				return float64(x) / 2, nil
			case 1:
				return fmt.Sprint("ünï 星 ", x), nil
			}
		}
		return args[0], nil
	})
	r := rand.New(rand.NewSource(15))
	for n := 0; n < 2000 && !t.Failed(); n++ {
		items := []string{"t.i", "t.f", "t.s", "u.s", "t.m", "t.x", "u.j", "u.g", "'ünï 星'", "''", "NULL", "-0.0",
			"mixed(t.i)", "mixed(u.j)", "mixed(t.x + u.j)", "t.*", "*"}
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:1+r.Intn(4)]
		for i := r.Intn(4); i > 0; i-- {
			items = append(items, sqlengine.RandomExpr(r, r.Intn(3)))
		}
		sql := "SELECT "
		if n%7 == 0 {
			sql += "DISTINCT "
		}
		sql += strings.Join(items, ", ") + " FROM " + []string{"t, u", "u, t", "t"}[n%3]
		if n%3 == 2 {
			sql = strings.NewReplacer("u.s", "t.s", "u.j", "t.x", "u.g", "t.m").Replace(sql)
		}
		if n%2 == 0 {
			sql += " WHERE " + sqlengine.RandomExpr(r, 1+r.Intn(2))
		}
		if n%5 == 0 {
			sql += " ORDER BY " + sqlengine.RandomExpr(r, r.Intn(2)) + []string{"", " DESC"}[r.Intn(2)]
		}
		if n%4 == 0 {
			sql += fmt.Sprint(" LIMIT ", r.Intn(12))
		}
		if _, err := sqlparse.ParseSelect(sql); err != nil {
			continue // the generator's rarer forms do not all deparse into a select list
		}
		check(e, sql)
	}
}

// TestSinkAllocBudget is TestScanAllocBudget's HV2 line for a statement
// that writes into an encoding sink, as a worker's does: nothing is
// allocated per row it returns — no row, no box — only per statement (and
// for the sink's buffer as it grows, which this one already has).
func TestSinkAllocBudget(t *testing.T) {
	sel, err := sqlparse.ParseSelect(sqlengine.BenchHV2)
	if err != nil {
		t.Fatal(err)
	}
	var enc rowcodec.Encoder
	run := func(e *sqlengine.Engine) (allocs float64, out int64) {
		allocs = testing.AllocsPerRun(20, func() {
			enc.Buf, enc.Rows = enc.Buf[:0], 0
			res, err := e.ExecuteStmtOpts(sel, sqlengine.ExecOptions{Sink: &enc})
			if err != nil {
				t.Fatal(err)
			}
			out = res.Stats.RowsOut
		})
		return allocs, out
	}
	allocs, out := run(sqlengine.BenchEngine(t, 2400))
	fewer, outFewer := run(sqlengine.BenchEngine(t, 1200))
	if out < 120 || outFewer >= out || int64(enc.Rows) != outFewer {
		t.Fatalf("HV2 returned %d rows of 2400 and %d of 1200, the sink counted %d", out, outFewer, enc.Rows)
	}
	if allocs > 64 {
		t.Errorf("HV2 into an encoding sink: %.0f allocations (budget 64)", allocs)
	}
	if fewer != allocs {
		t.Errorf("%.0f allocations for %d output rows, %.0f for %d: they grow with the rows returned", allocs, out, fewer, outFewer)
	}
}
