package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlparse"
)

// The tests of the table boundary: what goes into columns comes back out
// bit for bit, what does not fit its column's declared type is converted
// the way INSERT always has or refused, and readers never see an append
// half done.

// boundaryValues is the row codec's value table (rowcodec_test.go), by the
// column type that stores each value as it is.
var boundaryValues = map[sqlparse.ColType][]Value{
	sqlparse.TypeInt:    {int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64), int64(1<<53 + 1)},
	sqlparse.TypeFloat:  {0.0, math.Copysign(0, -1), 1e-30, -1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
	sqlparse.TypeString: {"", "plain", "it's \"quoted\"", "multi-byte: héllo 世界 🌌", "nul\x00byte", strings.Repeat("long ", 100)},
}

// TestColumnsRoundTrip: every value of the row codec's table, with and
// without NULLs around it, reads back from a table exactly as it went in,
// whether it went in boxed (Insert) or cell by cell (an Appender, what
// a row decoder drives); and a column's NULL bitmap exists only once the
// column holds a NULL.
func TestColumnsRoundTrip(t *testing.T) {
	for typ, vals := range boundaryValues {
		for _, withNull := range []bool{false, true} {
			want := append([]Value(nil), vals...)
			if withNull {
				want = append(append([]Value{nil}, want...), nil)
			}
			schema := Schema{{Name: "v", Type: typ}}
			boxed, cellwise := NewTable("boxed", schema), NewTable("cellwise", schema)
			a := cellwise.Appender()
			for _, v := range want {
				if err := boxed.Insert(Row{v}); err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(a.BeginRow(1), appendCell(a, 0, v)); err != nil {
					t.Fatal(err)
				}
			}
			a.Commit()
			for _, tbl := range []*Table{boxed, cellwise} {
				if tbl.Len() != len(want) {
					t.Fatalf("%s %v: %d rows, want %d", tbl.Name, typ, tbl.Len(), len(want))
				}
				for i, w := range want {
					if got := tbl.Row(i)[0]; !sameValue(got, w) {
						t.Errorf("%s %v row %d: %#v, want %#v", tbl.Name, typ, i, got, w)
					}
				}
				if has := tbl.data.Load().cols[0].nulls != nil; has != withNull {
					t.Errorf("%s %v: NULL bitmap present = %v with NULLs = %v", tbl.Name, typ, has, withNull)
				}
			}
		}
	}
}

// appendCell hands a boxed value to the Appender method a row decoder
// would call for it. The row codec has no boolean: they travel as
// integers.
func appendCell(a *Appender, col int, v Value) error {
	switch x := v.(type) {
	case int64:
		return a.Int(col, x)
	case float64:
		return a.Float(col, x)
	case string:
		return a.Str(col, []byte(x))
	case bool:
		return a.Int(col, boolToInt(x))
	}
	return a.Null(col)
}

// TestInsertCoerces pins the table boundary's conversions — a cell of
// another type than its column's is converted to the column's type, or
// refused — through both ways in: Table.Insert and an Appender's typed
// cells.
func TestInsertCoerces(t *testing.T) {
	for _, tc := range []struct {
		typ  sqlparse.ColType
		in   Value
		want Value
	}{
		{sqlparse.TypeFloat, int64(3), 3.0},
		{sqlparse.TypeFloat, int64(1<<53 + 1), float64(1 << 53)},
		{sqlparse.TypeFloat, "1.5", 1.5},
		{sqlparse.TypeFloat, " 7", nil}, // not a number: refused
		{sqlparse.TypeFloat, true, 1.0},
		{sqlparse.TypeInt, 2.0, int64(2)},
		{sqlparse.TypeInt, 2.75, int64(2)},
		{sqlparse.TypeInt, -2.75, int64(-2)},
		{sqlparse.TypeInt, "12", int64(12)},
		{sqlparse.TypeInt, "1.5", nil}, // not an integer: refused
		{sqlparse.TypeInt, "abc", nil},
		{sqlparse.TypeInt, false, int64(0)},
		{sqlparse.TypeString, int64(12), "12"},
		{sqlparse.TypeString, 1.5, "1.5"},
		{sqlparse.TypeString, 1e300, "1e+300"},
		{sqlparse.TypeString, true, "1"},
		{sqlparse.TypeInt, nil, nil},
	} {
		refused := tc.want == nil && tc.in != nil
		check := func(way string, tbl *Table, err error) {
			t.Helper()
			switch {
			case refused && err == nil:
				t.Errorf("%s: %#v into %v was stored as %#v, want it refused", way, tc.in, tc.typ, tbl.Row(1)[1])
			case refused:
				for _, part := range []string{"table " + tbl.Name, "column v", "row 1"} {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("%s: error %q does not name %s", way, err, part)
					}
				}
				if tbl.Len() != 1 {
					t.Errorf("%s: a refused row left the table %d rows long, want 1", way, tbl.Len())
				}
			case err != nil:
				t.Errorf("%s: %#v into %v: %v", way, tc.in, tc.typ, err)
			case !sameValue(tbl.Row(1)[1], tc.want) || tbl.Row(1)[0] != int64(8):
				t.Errorf("%s: %#v into %v stored %#v, want %#v", way, tc.in, tc.typ, tbl.Row(1), tc.want)
			}
		}
		// Every table starts with one row, so the cell in question is in
		// row 1, after a good cell of the same row went in.
		schema := Schema{{Name: "k", Type: sqlparse.TypeInt}, {Name: "v", Type: tc.typ}}
		fresh := func(name string) *Table {
			tbl := NewTable(name, schema)
			if err := tbl.Insert(Row{int64(7), nil}); err != nil {
				t.Fatal(err)
			}
			return tbl
		}

		tbl := fresh("boxed")
		check("Insert", tbl, tbl.Insert(Row{int64(8), tc.in}))

		tbl = fresh("cellwise")
		a := tbl.Appender()
		err := a.BeginRow(2)
		if err == nil {
			err = a.Int(0, 8)
		}
		if err == nil {
			err = appendCell(a, 1, tc.in)
		}
		if err == nil {
			a.Commit()
		}
		check("Appender", tbl, err)
	}
}

// TestAbandonedAppendLeavesNoNulls: NULL bits are the one thing an append
// writes where published rows live (the bitmap's last word). One that is
// never committed must not leak them into the rows appended next.
func TestAbandonedAppendLeavesNoNulls(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "v", Type: sqlparse.TypeInt}})
	if err := tbl.Insert(Row{int64(1)}, Row{nil}, Row{int64(3)}); err != nil {
		t.Fatal(err)
	}
	a := tbl.Appender()
	for i := 0; i < 100; i++ {
		if err := a.Null(0); err != nil {
			t.Fatal(err)
		}
	}
	// a is dropped, as after a batch that failed to decode.
	more := make([]Row, 100)
	for i := range more {
		more[i] = Row{int64(10 + i)}
	}
	if err := tbl.Insert(more...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.Len(); i++ {
		if got := tbl.Row(i)[0]; (got == nil) != (i == 1) {
			t.Fatalf("row %d reads %v after an abandoned append of NULLs", i, got)
		}
	}
}

// TestScanRacesAppends: scans and index dives running while another
// goroutine appends see a prefix of the table — some whole number of the
// rows appended so far, every one of them complete — and the race
// detector sees nothing. Row i is (i, i as a DOUBLE, i as a VARCHAR, NULL
// when i is odd), so a sum over a prefix has one right answer and a torn
// row has nowhere to hide.
func TestScanRacesAppends(t *testing.T) {
	e := New("db")
	mustTable(t, e, "t", "i BIGINT, f DOUBLE, s VARCHAR, x BIGINT")
	mustIndex(t, e, "t", "i")
	db, _ := e.Database("db")
	tbl, _ := db.Table("t")
	const batches, perBatch = 200, 7
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			rows := make([]Row, perBatch)
			for j := range rows {
				i := int64(b*perBatch + j)
				rows[j] = Row{i, float64(i), fmt.Sprint(i), nil}
				if i%2 == 0 {
					rows[j][3] = i
				}
			}
			if err := tbl.Insert(rows...); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := int64(0); last < batches*perBatch; {
				res, err := e.Query("SELECT COUNT(*), SUM(i), SUM(f), COUNT(x), COUNT(s), MAX(i) FROM t WHERE i >= 0")
				if err != nil {
					t.Error(err)
					return
				}
				n := res.Rows[0][0].(int64)
				if n < last || n%perBatch != 0 {
					t.Errorf("scan saw %d rows after %d: not a growing whole number of batches", n, last)
					return
				}
				if last = n; n == 0 {
					continue
				}
				want := Row{n, n * (n - 1) / 2, float64(n * (n - 1) / 2), (n + 1) / 2, n, n - 1}
				for c := range want {
					if res.Rows[0][c] != want[c] {
						t.Errorf("scan of a %d-row prefix: column %d = %v, want %v", n, c, res.Rows[0][c], want[c])
						return
					}
				}
				// A dive for the last row the scan saw finds exactly it.
				dive := mustQuery(t, e, fmt.Sprintf("SELECT i, f, s, x FROM t WHERE i = %d", n-1))
				if len(dive.Rows) != 1 || dive.Rows[0][1] != float64(n-1) || dive.Rows[0][2] != fmt.Sprint(n-1) {
					t.Errorf("dive for row %d found %v", n-1, dive.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

// TestResidentBytesMatchesHeap holds Table.ResidentBytes — what a worker's
// memory budget is charged — to the heap's own figure for a 100k-row
// Object-shaped table with its director index: within 15 %.
func TestResidentBytesMatchesHeap(t *testing.T) {
	const rows = 100_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	batch := benchObjectRows(2048)
	before := heap()
	tbl := NewTable("Object_1", benchObjectSchema)
	if err := tbl.CreateIndex("objectId"); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < rows; n += len(batch) {
		for i, r := range batch[:min(len(batch), rows-n)] {
			r[0] = int64(n + i)
		}
		if err := tbl.Insert(batch[:min(len(batch), rows-n)]...); err != nil {
			t.Fatal(err)
		}
	}
	held := float64(heap() - before)
	claimed := float64(tbl.ResidentBytes())
	t.Logf("%d rows: ResidentBytes %.1f MB, heap %.1f MB, paper accounting (ByteSize) %.1f MB",
		tbl.Len(), claimed/1e6, held/1e6, float64(tbl.ByteSize())/1e6)
	if ratio := claimed / held; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("ResidentBytes %.0f is %.2fx the heap's %.0f: want within 15%%", claimed, ratio, held)
	}
	runtime.KeepAlive(tbl)
}

// TestAppendFromReadsTheRowsItWasGiven: AppendFrom copies the rows at its
// positions — src's below the split, more's from it on — into the columns
// its map names, NULLs included, and a src that grew after the positions
// were taken does not move them: a position at or past the split is still
// more's row, never src's new tail.
func TestAppendFromReadsTheRowsItWasGiven(t *testing.T) {
	schema := Schema{{"id", sqlparse.TypeInt}, {"x", sqlparse.TypeFloat}, {"s", sqlparse.TypeString}}
	src, more := NewTable("src", schema), NewTable("more", schema)
	if err := src.Insert(Row{int64(0), 0.5, "a"}, Row{int64(1), nil, "b"}, Row{int64(2), 2.5, nil}); err != nil {
		t.Fatal(err)
	}
	if err := more.Insert(Row{int64(10), 10.5, "m"}, Row{nil, 11.5, "n"}); err != nil {
		t.Fatal(err)
	}
	split := src.Len()
	positions := []int32{4, 0, 3, 1, 2}
	if err := src.Insert(Row{int64(3), 3.5, "grown"}, Row{int64(4), 4.5, "grown"}); err != nil {
		t.Fatal(err)
	}
	out := NewTable("out", Schema{schema[2], schema[0]})
	out.AppendFrom(src, more, split, positions, []int{2, 0})
	want := []Row{{"n", nil}, {"a", int64(0)}, {"m", int64(10)}, {"b", int64(1)}, {nil, int64(2)}}
	if out.Len() != len(want) {
		t.Fatalf("%d rows, want %d", out.Len(), len(want))
	}
	for i, w := range want {
		if got := out.Row(i); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
}
