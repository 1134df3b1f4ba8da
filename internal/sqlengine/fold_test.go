package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// foldSchema is what TestAggregateFoldIsTheRowForm reads: an indexed id for
// dives, the filter's column w, three GROUP BY keys — in long runs, a new key
// every row, NULL keys beside 0 keys — and aggregate arguments of both
// numeric types whose NULL bitmap is absent (i0, f0), sparse (i1, f1) and
// covering the whole first block (i2, f2).
var foldSchema = Schema{
	{Name: "id", Type: sqlparse.TypeInt}, {Name: "w", Type: sqlparse.TypeInt},
	{Name: "kr", Type: sqlparse.TypeInt}, {Name: "ki", Type: sqlparse.TypeInt}, {Name: "kn", Type: sqlparse.TypeInt},
	{Name: "i0", Type: sqlparse.TypeInt}, {Name: "i1", Type: sqlparse.TypeInt}, {Name: "i2", Type: sqlparse.TypeInt},
	{Name: "f0", Type: sqlparse.TypeFloat}, {Name: "f1", Type: sqlparse.TypeFloat}, {Name: "f2", Type: sqlparse.TypeFloat},
}

// foldArgs are the columns every fold statement aggregates, at their
// positions in foldSchema.
var foldArgs = []string{"i0", "i1", "i2", "f0", "f1", "f2"}

// foldRows draws n rows of foldSchema. The finite cells of f0 span forty
// decades, so that its sum depends on the order of the additions; f1 and f2
// hold NaN (first in the table and in the second block, and later), the
// infinities, both zeros and subnormals; the integers reach both ends of
// int64, where a sum wraps, and 2^53 + 1, where its float64 sum rounds.
func foldRows(r *rand.Rand, n int) []Row {
	ints := []int64{math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1<<53 + 1), 0, -1, 7}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, minNormal}
	anInt := func() Value {
		if r.Intn(3) == 0 {
			return ints[r.Intn(len(ints))]
		}
		return r.Int63n(2_000_001) - 1_000_000
	}
	finite := func() float64 {
		if r.Intn(8) == 0 {
			return special[3+r.Intn(len(special)-3)] // a zero or a subnormal
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
	}
	anyFloat := func() float64 {
		if r.Intn(6) == 0 {
			return special[r.Intn(len(special))]
		}
		return finite()
	}
	rows := make([]Row, n)
	for p := range rows {
		var kn Value = int64(p / 40 % 3)
		if p/3%4 == 0 {
			kn = nil
		}
		row := Row{int64(p % 13), int64(r.Intn(10)), int64(p / 97), int64(p % 3), kn,
			anInt(), anInt(), anInt(), finite(), anyFloat(), anyFloat()}
		if p == 0 || r.Intn(50) == 0 {
			row[9] = math.NaN()
		}
		if p == 512 {
			row[10] = math.NaN()
		}
		for _, col := range []int{6, 9} {
			if r.Intn(20) == 0 {
				row[col] = nil
			}
		}
		if p < interruptCheckRows {
			row[7], row[10] = nil, nil
		}
		rows[p] = row
	}
	return rows
}

// foldReference answers a fold statement of TestAggregateFoldIsTheRowForm in
// plain Go over the generated cells: the rows in the order the scan visits
// them (0..n-1, or the dive's keys in turn, each key's rows ascending) that
// pass keep, grouped by key in first-seen order, and per group COUNT(*) and,
// per argument, COUNT, SUM, AVG, MIN and MAX — summed in row order, a MIN or
// MAX replaced only by a cell below (above) it — after the w of the group's
// first row.
func foldReference(rows []Row, dive []int64, keep func(Row) bool, key int) []Row {
	var order []int
	if dive == nil {
		for p := range rows {
			order = append(order, p)
		}
	}
	for _, k := range dive {
		for p, row := range rows {
			if row[0] == k {
				order = append(order, p)
			}
		}
	}
	type group struct {
		key  Value
		rows []Row
	}
	var groups []*group
	byKey := map[Value]*group{}
	for _, p := range order {
		row := rows[p]
		if !keep(row) {
			continue
		}
		var k Value
		if key >= 0 {
			k = row[key]
		}
		g := byKey[k]
		if g == nil {
			g = &group{key: k}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}
	if key < 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	var out []Row
	for _, g := range groups {
		var res Row
		if key >= 0 {
			res = append(res, g.key)
		}
		var first Value // w, as the group's first row has it
		if len(g.rows) > 0 {
			first = g.rows[0][1]
		}
		res = append(res, first, int64(len(g.rows)))
		for _, name := range foldArgs {
			col := foldSchema.ColIndex(name)
			var cells []Value
			for _, row := range g.rows {
				if row[col] != nil {
					cells = append(cells, row[col])
				}
			}
			res = append(res, int64(len(cells)))
			if len(cells) == 0 {
				res = append(res, nil, nil, nil, nil)
				continue
			}
			switch cells[0].(type) {
			case int64:
				sum, fsum, lo, hi := int64(0), 0.0, cells[0].(int64), cells[0].(int64)
				for _, c := range cells {
					x := c.(int64)
					sum, fsum = sum+x, fsum+float64(x)
					lo, hi = min(lo, x), max(hi, x)
				}
				res = append(res, sum, fsum/float64(len(cells)), lo, hi)
			default:
				sum, lo, hi := 0.0, cells[0].(float64), cells[0].(float64)
				for _, c := range cells {
					x := c.(float64)
					sum += x
					if x < lo {
						lo = x
					}
					if x > hi {
						hi = x
					}
				}
				res = append(res, sum, sum/float64(len(cells)), lo, hi)
			}
		}
		out = append(out, res)
	}
	return out
}

// TestAggregateFoldIsTheRowForm holds the aggregate fold to the row loop it
// stands in for and to a fold written out in plain Go: COUNT(*), and COUNT,
// SUM, AVG, MIN and MAX of BIGINT and DOUBLE columns whose NULL bitmap is
// absent, sparse or covers a whole block, holding NaN first and later, the
// infinities, both zeros and subnormals; with no GROUP BY, one BIGINT key in
// long runs, a key that changes every row, and NULL keys; over tables of 0,
// 1, 511, 512, 513 and 1,025 rows, scanned and dived into. Rows, their types,
// the order of the groups and ExecStats are the row loop's, and the values are
// the plain fold's bit for bit. The statements that must not fold — a
// DISTINCT, an argument that is no column leaf, a key that is no BIGINT
// column, a conjunct without a block form — are held to the row loop too.
func TestAggregateFoldIsTheRowForm(t *testing.T) {
	e := New("db")
	db, _ := e.Database("db")
	r := rand.New(rand.NewSource(29))
	sizes := []int{0, 1, 511, 512, 513, 1025}
	tables := map[int][]Row{}
	for _, n := range sizes {
		tables[n] = foldRows(r, n)
		tbl := NewTable(fmt.Sprintf("t_%d", n), foldSchema)
		if err := tbl.Insert(tables[n]...); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("id"); err != nil {
			t.Fatal(err)
		}
		db.Put(tbl)
	}
	var items []string
	for _, a := range foldArgs {
		items = append(items, fmt.Sprintf("COUNT(%[1]s), SUM(%[1]s), AVG(%[1]s), MIN(%[1]s), MAX(%[1]s)", a))
	}
	aggs := "w, COUNT(*), " + strings.Join(items, ", ") // w: the group's first row
	w := func(row Row) int64 { return row[1].(int64) }
	wheres := []struct {
		sql  string
		dive []int64
		keep func(Row) bool
	}{
		{"", nil, func(Row) bool { return true }},
		{" WHERE w >= 3", nil, func(row Row) bool { return w(row) >= 3 }},
		{" WHERE w < 5 AND w > 0", nil, func(row Row) bool { return w(row) < 5 && w(row) > 0 }},
		{" WHERE id IN (4, 1, 7)", []int64{4, 1, 7}, func(Row) bool { return true }},
		{" WHERE id IN (4, 1, 7) AND w BETWEEN 2 AND 8", []int64{4, 1, 7}, func(row Row) bool { return w(row) >= 2 && w(row) <= 8 }},
	}
	run := func(sel *sqlparse.Select) (*Result, string) {
		res, err := e.ExecuteStmt(sel)
		if err != nil {
			t.Fatalf("%s: %v", sel.SQL(), err)
		}
		return res, fmt.Sprintf("%v %v %+v\n%s", res.Cols, res.Types, res.Stats, render(res))
	}
	// same holds the statement to the row loop, and reports whether it folds.
	same := func(sql string) (*Result, bool) {
		sel := mustParse(t, sql)
		p, err := e.Prepare(sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, got := run(sel)
		var want string
		withBlockFormsOff(func() { _, want = run(sel) })
		if got != want {
			t.Fatalf("%s:\nfolded:\n%s\nrow by row:\n%s", sql, got, want)
		}
		return res, p.plan.out.folds
	}
	for _, n := range sizes {
		for _, key := range []string{"", "kr", "ki", "kn"} {
			for _, wh := range wheres {
				sql := fmt.Sprintf("SELECT %s FROM t_%d%s", aggs, n, wh.sql)
				ki := -1
				if key != "" {
					sql = fmt.Sprintf("SELECT %s, %s FROM t_%d%s GROUP BY %[1]s", key, aggs, n, wh.sql)
					ki = foldSchema.ColIndex(key)
				}
				res, folds := same(sql)
				if !folds {
					t.Fatalf("%s does not fold", sql)
				}
				if wh.dive != nil && n > 0 && res.Stats.RandReads == 0 {
					t.Fatalf("%s: no index dive", sql)
				}
				want := render(&Result{Rows: foldReference(tables[n], wh.dive, wh.keep, ki)})
				if got := render(res); got != want {
					t.Fatalf("%s:\nthe engine answers\n%s\nthe plain fold\n%s", sql, got, want)
				}
			}
		}
		for _, sql := range []string{
			"SELECT kr, COUNT(DISTINCT i1), MIN(f1) FROM t_%d GROUP BY kr",
			"SELECT SUM(i0 + 1), MAX(f0 * 2) FROM t_%d WHERE w > 2",
			"SELECT f0 > 0, COUNT(*), SUM(f1) FROM t_%d GROUP BY f0 > 0",
			"SELECT kr, ki, COUNT(*) FROM t_%d GROUP BY kr, ki",
		} {
			if _, folds := same(fmt.Sprintf(sql, n)); folds {
				t.Fatalf("%s folds", sql)
			}
		}
		// The output folds, but the scan hands it each row the conjunct
		// without a block form keeps.
		same(fmt.Sprintf("SELECT kn, COUNT(*), SUM(f0), MIN(i1) FROM t_%d WHERE w > 2 AND w %% 2 = 1 GROUP BY kn", n))
	}
}

// foldStatementsAgree runs COUNT(*), and COUNT, SUM, MIN and MAX of every
// column of blockSchema, over the rows of tbl the conjunct text keeps, folded
// and row by row: the answers, types and ExecStats must be equal.
func foldStatementsAgree(t testing.TB, eng *Engine, tbl *Table, text string) {
	t.Helper()
	items := []string{"COUNT(*)"}
	for _, c := range blockSchema {
		items = append(items, fmt.Sprintf("COUNT(%[1]s), SUM(%[1]s), MIN(%[1]s), MAX(%[1]s)", c.Name))
	}
	sel := mustParse(t, "SELECT "+strings.Join(items, ", ")+" FROM t WHERE "+text)
	tables := []*Table{tbl}
	run := func() string {
		p, err := eng.Prepare(sel, tables)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		res, err := p.Run(tables, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return fmt.Sprintf("%v %+v\n%s", res.Types, res.Stats, render(res))
	}
	got := run()
	var want string
	withBlockFormsOff(func() { want = run() })
	if got != want {
		t.Fatalf("aggregates WHERE %s:\nfolded:\n%s\nrow by row:\n%s", text, got, want)
	}
}
