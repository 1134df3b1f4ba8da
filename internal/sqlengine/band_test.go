package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"repro/internal/sqlparse"
)

// bandSchema is the three columns a near-neighbour statement reads.
var bandSchema = Schema{
	{Name: "id", Type: sqlparse.TypeInt},
	{Name: "ra", Type: sqlparse.TypeFloat},
	{Name: "decl", Type: sqlparse.TypeFloat},
}

// hostileDecls are the declinations a band join has to leave to the nested
// loop: NULL, what is not a number, what is off the sphere by the last digit.
var hostileDecls = []Value{nil, math.NaN(), math.Inf(1), math.Inf(-1), 90.0000001, -90.0000001, 1e300, -1e300}

// hostileRAs make the guard's RA difference something other than a finite
// number.
var hostileRAs = []Value{nil, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1e308}

// bandRows draws n rows in a patch a few radii across, a share of them
// hostile, ids from base.
func bandRows(r *rand.Rand, n int, base int64) []Row {
	rows := make([]Row, n)
	for i := range rows {
		var ra, decl Value = 10 + r.Float64()*0.3, -0.2 + r.Float64()*0.4
		switch r.Intn(12) {
		case 0:
			decl = hostileDecls[r.Intn(len(hostileDecls))]
		case 1:
			ra = hostileRAs[r.Intn(len(hostileRAs))]
		case 2:
			decl = []Value{90.0, -90.0, 0.0, math.Copysign(0, -1)}[r.Intn(4)]
		}
		rows[i] = Row{base + int64(i), ra, decl}
	}
	return rows
}

// sortedForBand orders rows as the worker's subchunk builder does: the
// declinations a sorted run cannot hold first, the rest ascending.
func sortedForBand(rows []Row) []Row {
	out := slices.Clone(rows)
	key := func(r Row) float64 {
		d, ok := r[2].(float64)
		if !ok || !(d >= -90 && d <= 90) {
			return math.Inf(-1)
		}
		return d
	}
	slices.SortStableFunc(out, func(a, b Row) int {
		switch ka, kb := key(a), key(b); {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	return out
}

func bandTable(t testing.TB, name string, rows []Row, mark bool) *Table {
	t.Helper()
	tbl := NewTable(name, bandSchema)
	if err := tbl.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	if mark {
		if err := tbl.MarkSorted("decl", -90, 90); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// render makes a result comparable: rows in order, NaN spelled.
func render(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%v\n", r)
	}
	return sb.String()
}

// withBandJoinOff runs f with the band join forced off.
func withBandJoinOff(f func()) {
	bandJoinOff = true
	defer func() { bandJoinOff = false }()
	f()
}

// TestBandJoinIsTheNestedLoop holds the band join to the nested loop it
// stands in for, on the engine alone: tables sorted as the subchunk builder
// sorts them, holding NULL, NaN, infinite and just-off-the-sphere
// declinations and RAs whose difference is not finite, joined by every shape
// of the guarded comparison a band is planned for (and some it must not be),
// must return the same rows in the same order with the band join on and
// forced off — and the band join must actually have run.
func TestBandJoinIsTheNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	banded := 0
	for round := 0; round < 12; round++ {
		e := New("db")
		db, _ := e.Database("db")
		outer, inner := bandRows(r, 30+r.Intn(40), 0), bandRows(r, 40+r.Intn(60), 1000)
		db.Put(bandTable(t, "o", outer, false))
		db.Put(bandTable(t, "sorted", sortedForBand(inner), true))
		db.Put(bandTable(t, "shuffled", inner, true)) // says it is sorted; is not
		db.Put(bandTable(t, "plain", sortedForBand(inner), false))
		radius := []float64{0, 1e-9, 0.003, 0.02, 0.1, 0.5, -1, 178.9, 179.5}[r.Intn(9)]
		preds := []string{
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl) <= %v", radius),
			fmt.Sprintf("%v > qserv_angSep(a.ra, a.decl, b.ra, b.decl)", radius),
			fmt.Sprintf("%v >= scisql_angSep(a.ra, a.decl, b.ra, b.decl)", radius),
			fmt.Sprintf("qserv_angSep(10.1, a.decl, b.ra, b.decl) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl) < %v AND a.id + b.id > 1010", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl) < %v AND b.id %% 3 = 0", radius),
			// Not for a band: the conjunct is not first, its y2 is not the
			// sorted column, its arguments are expressions, it is no < or <=.
			fmt.Sprintf("a.id + b.id > 1010 AND qserv_angSep(a.ra, a.decl, b.ra, b.decl) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.decl, b.ra) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl + 0) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl + 0, b.ra, b.decl) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl) > %v", radius),
			fmt.Sprintf("NOT qserv_angSep(a.ra, a.decl, b.ra, b.decl) < %v", radius),
			fmt.Sprintf("qserv_angSep(a.ra, a.decl, b.ra, b.decl) < %v AND a.id = b.id - 1000", radius),
		}
		for _, table := range []string{"sorted", "shuffled", "plain"} {
			for pi, pred := range preds {
				for _, shape := range []string{
					"SELECT a.id, b.id, b.decl FROM o a, %s b WHERE %s",
					"SELECT COUNT(*), SUM(b.id), MIN(a.id) FROM o a, %s b WHERE %s",
					"SELECT a.id, b.id FROM o a, %s b WHERE %s LIMIT 7",
				} {
					sel := mustParse(t, fmt.Sprintf(shape, table, pred))
					on, err := e.ExecuteStmt(sel)
					if err != nil {
						t.Fatalf("%s: %v", sel.SQL(), err)
					}
					var off *Result
					withBandJoinOff(func() { off, err = e.ExecuteStmt(sel) })
					if err != nil {
						t.Fatalf("%s, band join off: %v", sel.SQL(), err)
					}
					if got, want := render(on), render(off); got != want {
						t.Fatalf("round %d: %s\nband join:\n%s\nnested loop:\n%s", round, sel.SQL(), got, want)
					}
					if on.Stats.PairsConsidered > off.Stats.PairsConsidered {
						t.Errorf("%s: the band join visited %d pairs, the nested loop %d", sel.SQL(), on.Stats.PairsConsidered, off.Stats.PairsConsidered)
					}
					skipped := on.Stats.PairsConsidered < off.Stats.PairsConsidered
					if skipped && (table == "plain" || (pi >= 7 && pi != 13)) {
						t.Errorf("%s: %d pairs visited of %d where no band join may be planned", sel.SQL(), on.Stats.PairsConsidered, off.Stats.PairsConsidered)
					}
					if skipped {
						banded++
					}
					if table == "sorted" && pi < 5 && radius >= 0 && radius < 0.05 && !strings.Contains(shape, "LIMIT") &&
						on.Stats.PairsConsidered*2 > off.Stats.PairsConsidered {
						t.Errorf("%s: the band join visited %d of %d pairs", sel.SQL(), on.Stats.PairsConsidered, off.Stats.PairsConsidered)
					}
				}
			}
		}
	}
	if banded < 100 {
		t.Errorf("the band join skipped pairs in %d statements: too few to have tested it", banded)
	}
}

// TestBandJoinVisitsWhatTheGuardLeaves is the invariant itself, with no
// second run to compare with: every pair the band join does not visit is a
// pair the guard answers above for.
func TestBandJoinVisitsWhatTheGuardLeaves(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for round := 0; round < 200; round++ {
		inner := sortedForBand(bandRows(r, 80, 0))
		tbl := bandTable(t, "b", inner, true)
		d := tbl.data.Load()
		radius := []float64{0, 0.003, 0.02, 0.5, -1}[r.Intn(5)]
		b, _ := angSepBand(radius)
		g, _ := angSepGuard(radius)
		var x1, y1 float64
		j := &bandJoin{b: b, x2: 1, y2: 2,
			x1: func(*frame) (float64, bool, error) { return x1, false, nil },
			y1: func(*frame) (float64, bool, error) { return y1, false, nil }}
		positions := make([]int, 0, d.n)
		for p := 0; p < d.n; p++ {
			if r.Intn(5) > 0 { // the binding's filter drops some
				positions = append(positions, p)
			}
		}
		run := j.over(d, positions)
		if run == nil {
			t.Fatal("no band join over a sorted table")
		}
		for _, outer := range bandRows(r, 40, 0) {
			ra, ok1 := outer[1].(float64)
			decl, ok2 := outer[2].(float64)
			if !ok1 || !ok2 {
				continue
			}
			x1, y1 = ra, decl
			var runs [4][]int
			run.visit(nil, &runs)
			visited := map[int]bool{}
			last := -1
			for _, seg := range runs {
				for _, p := range seg {
					if p <= last {
						t.Fatalf("visited positions %v are not ascending", runs)
					}
					visited[p], last = true, p
				}
			}
			for _, p := range positions {
				if visited[p] || d.cols[2].null(p) {
					continue
				}
				args := [maxTypedArgs]float64{ra, decl, d.cols[1].floats[p], d.cols[2].floats[p]}
				if d.cols[1].null(p) {
					continue // a NULL RA makes the conjunct NULL before the guard is asked
				}
				if g.decide(&args) != above {
					t.Fatalf("radius %v: the band join skips row %v for (%v, %v), which the guard does not answer above for", radius, tbl.Row(p), ra, decl)
				}
			}
		}
	}
}

// TestSortedMarkIsCheckedNotTrusted: MarkSorted marks the run that is
// there, whatever the caller believes; appends keep the mark only while they
// keep the order.
func TestSortedMarkIsCheckedNotTrusted(t *testing.T) {
	row := func(decl Value) Row { return Row{int64(0), 1.0, decl} }
	from := func(tbl *Table) int {
		if s := tbl.data.Load().sorted; s != nil {
			return s.from
		}
		return -1
	}
	tbl := bandTable(t, "t", []Row{row(nil), row(math.NaN()), row(95.0), row(-3.0), row(-3.0), row(0.5), row(90.0)}, true)
	if got := from(tbl); got != 3 {
		t.Errorf("sorted run starts at row %d, want 3", got)
	}
	lying := bandTable(t, "t", []Row{row(5.0), row(4.0), row(3.0)}, true)
	if got := from(lying); got != 2 {
		t.Errorf("a descending table's run starts at row %d, want 2 (its last row)", got)
	}
	if got := from(bandTable(t, "t", []Row{row(1.0), row(nil)}, true)); got != 2 {
		t.Errorf("a table ending in NULL has a run from row %d, want 2 (empty)", got)
	}
	if got := from(bandTable(t, "t", nil, true)); got != 0 {
		t.Errorf("an empty table's run starts at %d, want 0", got)
	}
	// Appends that continue the run keep the mark, an index build too.
	if err := tbl.Insert(row(90.0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if got := from(tbl); got != 3 {
		t.Errorf("after an in-order append and an index build the run starts at %d, want 3", got)
	}
	for _, bad := range []Value{89.0, nil, math.NaN(), 90.5} {
		tt := bandTable(t, "t", []Row{row(1.0), row(90.0)}, true)
		if err := tt.Insert(row(90.0), row(bad)); err != nil {
			t.Fatal(err)
		}
		if got := from(tt); got != -1 {
			t.Errorf("appending %v after 90 left the table marked sorted from %d", bad, got)
		}
	}
	// An empty run takes its first row from an append.
	empty := bandTable(t, "t", []Row{row(nil)}, true)
	if err := empty.Insert(row(2.0), row(3.0)); err != nil {
		t.Fatal(err)
	}
	if got := from(empty); got != 1 {
		t.Errorf("a run begun by an append starts at %d, want 1", got)
	}
	if err := tbl.MarkSorted("id", 0, 1); err == nil {
		t.Error("MarkSorted accepted a BIGINT column")
	}
	if err := tbl.MarkSorted("nope", 0, 1); err == nil {
		t.Error("MarkSorted accepted a column the table has not")
	}
}

// TestInterruptLandsWithinPairsOfABandJoin: a kill inside the window loop
// lands within interruptCheckRows pairs, as in the nested loop.
func TestInterruptLandsWithinPairsOfABandJoin(t *testing.T) {
	const rows, killAt = 20000, 1000
	e := New("db")
	db, _ := e.Database("db")
	cells := make([]Row, rows)
	for i := range cells {
		cells[i] = Row{int64(i), 10.0, float64(i) * 1e-6} // every row within 0.02 degrees of every other
	}
	db.Put(bandTable(t, "t", cells, true))
	interrupt, calls := make(chan struct{}), 0
	e.RegisterFunc("test_slow", func(args []Value) (Value, error) {
		if calls++; calls == killAt {
			close(interrupt)
		}
		return args[0], nil
	})
	sel := mustParse(t, "SELECT COUNT(*) FROM t a, t b WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) < 0.5 AND test_slow(a.id + b.id) < 0")
	_, err := e.ExecuteStmtOpts(sel, ExecOptions{Interrupt: interrupt})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v after %d predicate calls, want ErrInterrupted", err, calls)
	}
	if calls > killAt+interruptCheckRows {
		t.Errorf("the join made %d predicate calls after the kill, want at most %d", calls-killAt, interruptCheckRows)
	}
}

// TestPreparedRunIsTheStatement holds Prepared.Run to its contract: run
// over tables handed to it — catalog tables, a table no catalog holds, or
// for a nil entry the one the statement names — it answers as the statement
// with those tables' names written into it, run over a catalog that holds
// them all — rows, order, types, stats and errors — whether the plan is
// reused (same schema; an index there or not; a sorted mark there or not)
// or has to be made afresh (another schema, an entry without an alias
// reading another table, a function registered since, a table gone from
// the catalog).
func TestPreparedRunIsTheStatement(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	// e's catalog lacks t_loose; ref's holds it too, so that the statement
	// with its name written in has an answer.
	e, ref := New("db"), New("db")
	db, refDB := mustDB(t, e), mustDB(t, ref)
	tables := map[string]*Table{}
	put := func(tbl *Table) {
		tables[tbl.Name] = tbl
		refDB.Put(tbl)
		if tbl.Name != "t_loose" {
			db.Put(tbl)
		}
	}
	for i := 0; i < 5; i++ {
		rows := bandRows(r, 50+10*i, int64(1000*i))
		name := fmt.Sprintf("t_%d", i)
		if i == 4 {
			name = "t_loose"
		}
		tbl := bandTable(t, name, sortedForBand(rows), i%2 == 0)
		if i < 2 {
			if err := tbl.CreateIndex("id"); err != nil {
				t.Fatal(err)
			}
		}
		put(tbl)
	}
	// Same column names, another type; and another column order.
	other := NewTable("t_other", Schema{{Name: "id", Type: sqlparse.TypeFloat}, {Name: "ra", Type: sqlparse.TypeFloat}, {Name: "decl", Type: sqlparse.TypeFloat}})
	if err := other.Insert(Row{1003.5, 10.1, 0.01}, Row{2.0, 10.1, 0.02}); err != nil {
		t.Fatal(err)
	}
	put(other)
	swapped := NewTable("t_swapped", Schema{bandSchema[2], bandSchema[1], bandSchema[0]})
	if err := swapped.Insert(Row{0.01, 10.1, int64(7)}); err != nil {
		t.Fatal(err)
	}
	put(swapped)

	statements := []string{
		"SELECT * FROM t_0 AS a WHERE id = 1003",
		"SELECT id, decl FROM t_0 AS a WHERE id IN (3, 1003, 2003, 3003) AND ra > 10.1",
		"SELECT COUNT(*) FROM t_0 AS a",
		"SELECT COUNT(*) AS n, MAX(decl), MIN(ra) FROM t_0 AS a WHERE decl BETWEEN -0.1 AND 0.1",
		"SELECT id % 7 AS k, COUNT(*), SUM(decl) FROM t_0 AS a GROUP BY k ORDER BY k",
		"SELECT DISTINCT id % 3 FROM t_0 AS a ORDER BY 1 DESC LIMIT 2",
		"SELECT a.id, b.id FROM t_0 AS a, t_1 AS b WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) < 0.02",
		"SELECT COUNT(*) FROM t_0 AS a, t_0 AS b WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) <= 0.05 AND a.id != b.id",
		"SELECT a.id, b.id FROM t_0 AS a, t_1 AS b WHERE a.id = b.id - 1000",
		"SELECT t_0.id FROM t_0 WHERE t_0.decl > 0",
		"SELECT id FROM t_0 WHERE decl > 0",
		"SELECT a.* FROM t_0 a, t_1 WHERE a.id = t_1.id - 1000 AND t_1.decl > 0",
		"SELECT id FROM t_0 AS a WHERE nosuchcolumn = 1",
	}
	// hand draws the tables a run reads — "" hands nil, the table the entry
	// names — and the statement with their names written in.
	names := []string{"t_0", "t_1", "t_2", "t_3", "t_other", "t_swapped", "t_loose", ""}
	hand := func(sel *sqlparse.Select) ([]*Table, *sqlparse.Select) {
		handed, fresh := make([]*Table, len(sel.From)), *sel
		fresh.From = slices.Clone(sel.From)
		for i := range handed {
			if name := names[r.Intn(len(names))]; name != "" {
				handed[i], fresh.From[i].Table = tables[name], name
			}
		}
		return handed, &fresh
	}
	for k, sql := range statements {
		sel := mustParse(t, sql)
		// Every other statement is prepared over tables handed to it.
		var first []*Table
		fresh := sel
		if k%2 == 1 {
			first, fresh = hand(sel)
		}
		prep, err := e.Prepare(sel, first)
		if err != nil {
			if _, ferr := ref.ExecuteStmt(fresh); ferr == nil || ferr.Error() != err.Error() {
				t.Errorf("%s over %v: Prepare fails with %v, the statement with %v", sql, first, err, ferr)
			}
			continue
		}
		for round := 0; round < 12; round++ {
			handed, fresh := hand(sel)
			if round == 0 {
				handed, fresh = nil, sel
			}
			if round == 6 {
				for _, eng := range []*Engine{e, ref} {
					eng.RegisterFunc("late_arrival", func([]Value) (Value, error) { return nil, nil })
				}
			}
			got, gerr := prep.Run(handed, ExecOptions{})
			want, werr := ref.ExecuteStmt(fresh)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Errorf("%s over %s: Run fails with %v, the statement with %v", sql, fresh.SQL(), gerr, werr)
				continue
			}
			if gerr != nil {
				continue
			}
			if render(got) != render(want) || !slices.Equal(got.Cols, want.Cols) || !slices.Equal(got.Types, want.Types) || got.Stats != want.Stats {
				t.Errorf("%s over %s:\nRun:       %v %v %+v\n%s\nstatement: %v %v %+v\n%s", sql, fresh.SQL(),
					got.Cols, got.Types, got.Stats, render(got), want.Cols, want.Types, want.Stats, render(want))
			}
		}
	}
	// A dive planned on an indexed table is a scan where there is no index,
	// with the same answer; the stats say which ran.
	dive, err := e.Prepare(mustParse(t, "SELECT id FROM t_0 AS a WHERE ra > 0 AND id = 3 AND decl < 100"), nil)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := dive.Run([]*Table{tables["t_1"]}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := dive.Run([]*Table{tables["t_2"]}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Stats.RandReads != 1 || indexed.Stats.SeqBytes != 0 || scanned.Stats.RandReads != 0 || scanned.Stats.SeqBytes == 0 {
		t.Errorf("dive over an indexed table: %+v; over one without the index: %+v", indexed.Stats, scanned.Stats)
	}
	// A table gone from the catalog since the statement was prepared over it
	// by name is missing for a run that reads it by name, as for the statement.
	gone := mustParse(t, "SELECT COUNT(*) FROM t_3 AS a WHERE decl > 0")
	prep, err := e.Prepare(gone, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("t_3", false); err != nil {
		t.Fatal(err)
	}
	_, gerr := prep.Run(nil, ExecOptions{})
	_, werr := e.ExecuteStmt(gone)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Errorf("over a dropped table: Run fails with %v, the statement with %v", gerr, werr)
	}
}

// TestPreparedRunKeepsNoTableAlive: a Prepared kept for later runs holds
// nothing of the tables a run read — not the table, not its columns — so
// tables a caller built for one run are garbage once it lets them go.
func TestPreparedRunKeepsNoTableAlive(t *testing.T) {
	e := New("db")
	mustDB(t, e).Put(bandTable(t, "t", nil, false))
	r := rand.New(rand.NewSource(48))
	for _, sql := range []string{
		"SELECT id, decl FROM t AS a WHERE ra > 10.1 ORDER BY decl, id",
		"SELECT id, COUNT(*), SUM(decl), MIN(ra) FROM t AS a GROUP BY id",
		"SELECT a.id, b.decl FROM t AS a, t AS b WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) < 0.05",
	} {
		prep, err := e.Prepare(mustParse(t, sql), nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl := bandTable(t, "loose", sortedForBand(bandRows(r, 300, 0)), true)
		table, cols := weak.Make(tbl), weak.Make(&tbl.data.Load().cols[0])
		if _, err := prep.Run([]*Table{tbl, tbl}[:len(prep.sel.From)], ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		tbl = nil
		for i := 0; i < 5 && (table.Value() != nil || cols.Value() != nil); i++ {
			runtime.GC()
		}
		if table.Value() != nil || cols.Value() != nil {
			t.Errorf("%s: after a run over a table nothing else holds, the table (collected: %v) or its columns (collected: %v) live on",
				sql, table.Value() == nil, cols.Value() == nil)
		}
		runtime.KeepAlive(prep)
	}
}

func mustDB(t *testing.T, e *Engine) *Database {
	t.Helper()
	db, err := e.Database(e.DefaultDB())
	if err != nil {
		t.Fatal(err)
	}
	return db
}
