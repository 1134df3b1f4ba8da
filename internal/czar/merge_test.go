package czar

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dump"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// planRegistry is the LSST registry the merge-session tests plan against.
func planRegistry(t testing.TB) *meta.Registry {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return datagen.LSSTRegistry(ch)
}

// planFor builds a real plan against the LSST registry, as the czar
// would, so merge-session tests exercise the planner's own metadata.
func planFor(t testing.TB, sql string, topK bool) *core.Plan {
	t.Helper()
	pl := core.NewPlanner(planRegistry(t), meta.NewObjectIndex())
	pl.TopK = topK
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(sel, []partition.ChunkID{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestZeroChunkSchemaTypedFromPlan(t *testing.T) {
	// The satellite fix: a zero-chunk query's synthesized result table
	// must carry plan-derived types, not DOUBLE everywhere.
	p := planFor(t, "SELECT objectId, ra_PS FROM Object WHERE objectId = 42", false)
	res, out, err := testSession(p, compactRows).finish()
	if err != nil {
		t.Fatal(err)
	}
	schema := res.Schema()
	if len(schema) != 2 || out.Len() != 0 || res.Rows != nil {
		t.Fatalf("schema = %+v, %d encoded rows, %d boxed", schema, out.Len(), len(res.Rows))
	}
	if schema[0].Name != "objectId" || schema[0].Type != sqlparse.TypeInt {
		t.Errorf("objectId column = %+v, want INT", schema[0])
	}
	if schema[1].Type != sqlparse.TypeFloat {
		t.Errorf("ra_PS column = %+v, want DOUBLE", schema[1])
	}
}

// testSession is a merge session over an engine of its own, as New makes
// the czar's, combining at threshold held rows, and passing a pass-through
// plan's rows through as execute's does.
func testSession(plan *core.Plan, threshold int) *mergeSession {
	return newMergeSession(plan, sqlengine.New("LSST"), threshold, plan.Streamable())
}

// intStream is a one-row chunk result stream of BIGINT columns (names
// comma-separated), as a worker would ship it.
func intStream(cols string, vals ...int64) []byte {
	row := make(sqlengine.Row, len(vals))
	for i, v := range vals {
		row[i] = v
	}
	return stream(cols, row)
}

// stream frames rows as the chunk result a worker would ship under cols
// (comma-separated); a column is declared by its first non-NULL cell, DOUBLE
// without one — a worker's guess.
func stream(cols string, rows ...sqlengine.Row) []byte {
	res := &sqlengine.Result{Cols: strings.Split(cols, ","), Rows: rows}
	for i := range res.Cols {
		typ := sqlparse.TypeFloat
		for _, r := range rows {
			if _, isInt := r[i].(int64); isInt {
				typ = sqlparse.TypeInt
			}
			if r[i] != nil {
				break
			}
		}
		res.Types = append(res.Types, typ)
	}
	return []byte(dump.Dump("r_x", res))
}

// boxed finishes a session and boxes its answer.
func boxed(t *testing.T, s *mergeSession) []sqlengine.Row {
	t.Helper()
	_, out, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	return out.Box(nil)
}

// TestTopKSessionHoldsAboutK: a top-K session fed two hundred two-row chunk
// results — unsorted against each other, NULL keys among them — combines as
// it goes: it never holds more than max(compactRows, 2 x what the last
// combine left) after an arrival, which with LIMIT 7 is 14 rows however
// many chunks answer, and it ends with the best seven, NULLs first
// ascending and last descending (MySQL's order).
func TestTopKSessionHoldsAboutK(t *testing.T) {
	const chunks, k = 200, 7
	for _, desc := range []bool{false, true} {
		sql := "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS LIMIT 7"
		if desc {
			sql = "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC LIMIT 7"
		}
		s := testSession(planFor(t, sql, true), 4)
		nullIDs := map[int64]bool{}
		for i := 0; i < chunks; i++ {
			// i*37 mod 200 visits every residue once: the keys arrive
			// scrambled. One chunk in forty has a NULL key.
			lo := sqlengine.Row{int64(2 * i), float64(i * 37 % chunks)}
			hi := sqlengine.Row{int64(2*i + 1), float64(chunks + i*37%chunks)}
			if i%40 == 0 {
				hi[1] = nil
				nullIDs[hi[0].(int64)] = true
			}
			if _, err := s.absorb(stream("objectId,ra_PS", hi, lo), nil); err != nil {
				t.Fatal(err)
			}
			if bound := max(s.compactRows, 2*s.floor); s.rows > bound || bound > 2*k {
				t.Fatalf("after chunk %d the session holds %d rows (bound %d, last combine left %d)", i, s.rows, bound, s.floor)
			}
		}
		rows := boxed(t, s)
		if len(rows) != k {
			t.Fatalf("desc=%v: %d rows: %v", desc, len(rows), rows)
		}
		for i, r := range rows {
			var want sqlengine.Value
			switch {
			case desc: // 399, 398, ...: none of the top seven was NULLed
				want = float64(2*chunks - 1 - i)
			case i >= len(nullIDs): // the five NULLs, then 0, 1
				want = float64(i - len(nullIDs))
			case !nullIDs[r[0].(int64)]:
				t.Errorf("ascending row %d is %v, want one of the NULL-keyed rows", i, r)
			}
			if r[1] != want {
				t.Errorf("desc=%v row %d = %v, want key %v", desc, i, r, want)
			}
		}
	}
}

// TestAggregateSessionInvariantUnderCombining: partials that mix integer,
// float and NULL cells finish to the same answer whether the session
// combines after every few arrivals or never. Integer sums stay int64; one
// float partial makes its column's sums floats; a group whose partials are
// all NULL sums to NULL; MIN and MAX fold; and a select-list column outside
// GROUP BY keeps rows apart in the session, so the answer still shows the
// first one that arrived.
func TestAggregateSessionInvariantUnderCombining(t *testing.T) {
	p := planFor(t, `SELECT chunkId, objectId, COUNT(*) AS n, SUM(subChunkId) AS si, SUM(uFlux_PS) AS sf,
		MIN(ra_PS) AS lo, MAX(decl_PS) AS hi FROM Object GROUP BY chunkId`, true)
	const cols = "qserv_c0,qserv_c1,qserv_c2,qserv_c3,qserv_c4,qserv_c5,qserv_c6"
	if got := strings.Join(p.ResultColumns, ","); got != cols {
		t.Fatalf("worker columns %s", got)
	}
	i, f := func(v int) sqlengine.Value { return int64(v) }, func(v float64) sqlengine.Value { return v }
	partials := [][]sqlengine.Row{
		//  chunkId objectId n   si    sf      lo      hi
		{{i(1), i(7), i(2), i(10), i(3), f(5.5), f(-1)}, {i(2), i(20), i(1), nil, nil, nil, nil}},
		{{i(1), i(7), i(3), i(5), f(0.5), f(2.5), f(4)}},
		{{i(3), i(30), i(4), i(1), i(2), f(9), f(9)}, {i(2), i(20), i(0), nil, nil, nil, nil}},
		{},
		{{i(1), i(8), i(1), nil, nil, f(7), f(-3)}, {i(3), i(31), i(1), i(6), i(4), nil, f(10)}},
		{{i(2), i(21), i(5), nil, nil, nil, nil}},
	}
	want := []sqlengine.Row{
		{i(1), i(7), i(6), i(15), f(3.5), f(2.5), f(4)},
		{i(2), i(20), i(6), nil, nil, nil, nil},
		{i(3), i(30), i(5), i(7), f(6), f(9), f(10)},
	}
	for _, threshold := range []int{4, 1 << 30} {
		s := testSession(p, threshold)
		for _, rows := range partials {
			if _, err := s.absorb(stream(cols, rows...), nil); err != nil {
				t.Fatal(err)
			}
		}
		if combined := s.floor > 0; combined != (threshold == 4) {
			t.Errorf("threshold %d: last combine left %d rows", threshold, s.floor)
		}
		got := boxed(t, s)
		if len(got) != len(want) {
			t.Fatalf("threshold %d: %v", threshold, got)
		}
		for r := range want {
			if !slices.Equal(got[r], want[r]) {
				t.Errorf("threshold %d, group %d: %v, want %v", threshold, r, got[r], want[r])
			}
		}
	}
}

// TestConcurrentAbsorbLosesNothing: 32 goroutines absorb into one session
// at once (run under -race in CI) — of a pass-through plan, which hands
// every row back and counts it, and of an aggregate plan whose combine
// trips mid-way, which keeps every count.
func TestConcurrentAbsorbLosesNothing(t *testing.T) {
	appendS := testSession(planFor(t, "SELECT objectId FROM Object", true), 8)
	countS := testSession(planFor(t, "SELECT COUNT(*) FROM Object GROUP BY chunkId", true), 8)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		passed []sqlengine.Row
	)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := appendS.absorb(intStream("objectId", int64(i)), nil)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			passed = b.Box(passed)
			mu.Unlock()
			// A count of i+1 in group i%4.
			if _, err := countS.absorb(intStream("qserv_c0,qserv_c1", int64(i+1), int64(i%4)), nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, r := range passed {
		seen[r[0].(int64)] = true
	}
	if len(seen) != 32 || len(boxed(t, appendS)) != 0 || appendS.rows != 32 {
		t.Errorf("the pass-through session passed %d distinct rows of 32, counted %d", len(seen), appendS.rows)
	}
	if countS.floor == 0 || countS.rows > 8 {
		t.Errorf("the aggregate session holds %d rows, its last combine left %d", countS.rows, countS.floor)
	}
	var total int64
	counts := boxed(t, countS)
	for _, r := range counts {
		total += r[0].(int64)
	}
	if len(counts) != 4 || total != 32*33/2 {
		t.Errorf("the aggregate session finished to %v: total %d, want %d in 4 groups", counts, total, 32*33/2)
	}
}

func TestMergeSessionRejectsArityMismatch(t *testing.T) {
	p := planFor(t, "SELECT objectId FROM Object", false)
	s := testSession(p, compactRows)
	bad := intStream("a,b", 1, 2)
	if _, err := s.absorb(bad, nil); err == nil {
		t.Error("arity mismatch vs plan must be rejected")
	}
	if _, err := s.absorb(intStream("objectId", 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.absorb(bad, nil); err == nil {
		t.Error("arity mismatch vs session schema must be rejected")
	}
}

// TestConcurrentQueriesMergeIndependently is the merge-path race test:
// many user queries — aggregate, top-K, grouped — in flight at once, each
// must produce its own correct answer with no cross-query interference
// (run under -race in CI), whether or not their sessions combine after
// nearly every chunk.
func TestConcurrentQueriesMergeIndependently(t *testing.T) {
	for _, threshold := range []int{compactRows, 2} {
		cz, _, _ := miniCluster(t)
		cz.compactRows = threshold
		concurrentQueries(t, cz)
	}
}

func concurrentQueries(t *testing.T, cz *Czar) {
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*3)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cz.Query("SELECT COUNT(*) FROM Object")
			if err == nil && res.Rows[0][0].(int64) != 4 {
				err = fmt.Errorf("count = %v", res.Rows[0][0])
			}
			errs <- err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cz.Query("SELECT objectId FROM Object ORDER BY objectId LIMIT 2")
			if err == nil {
				if len(res.Rows) != 2 || res.Rows[0][0].(int64) != 1 || res.Rows[1][0].(int64) != 2 {
					err = fmt.Errorf("top-2 = %v", res.Rows)
				}
			}
			errs <- err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cz.Query("SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId")
			if err == nil && len(res.Rows) != 2 {
				err = fmt.Errorf("groups = %v", res.Rows)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCombineFailureIsTheQuerys: a combine that fails — here one planted to
// read a column the partials lack — is reported as a merge failure, which
// execute labels `merge:`, not as the error of the chunk whose arrival
// tripped it.
func TestCombineFailureIsTheQuerys(t *testing.T) {
	plan := planFor(t, "SELECT COUNT(*) FROM Object", true)
	combine, err := sqlparse.ParseSelect("SELECT SUM(qserv_nosuch) FROM " + core.MergeTablePlaceholder)
	if err != nil {
		t.Fatal(err)
	}
	plan.Combine = combine
	s := testSession(plan, 2)
	if _, err := s.absorb(intStream("qserv_c0", 1), nil); err != nil {
		t.Fatal(err)
	}
	_, err = s.absorb(intStream("qserv_c0", 2), nil)
	if !errors.As(err, new(mergeError)) || !strings.Contains(err.Error(), "qserv_nosuch") {
		t.Errorf("a combine that cannot compile: %v", err)
	}
}
