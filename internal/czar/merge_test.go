package czar

import (
	"fmt"
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

func TestTopKFolderMergesSortedRuns(t *testing.T) {
	f := &topKFolder{keys: []core.TopKKey{{Col: 0, Desc: false}}, k: 3}
	// Batches arrive unsorted (multi-statement chunk results are
	// concatenations of sorted runs) and out of chunk order.
	f.fold([]sqlengine.Row{{int64(7)}, {int64(2)}, {int64(9)}})
	f.fold([]sqlengine.Row{{int64(1)}, {int64(8)}})
	f.fold([]sqlengine.Row{{int64(3)}})
	got := f.rows()
	want := []int64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i, w := range want {
		if got[i][0].(int64) != w {
			t.Errorf("row %d = %v, want %d", i, got[i][0], w)
		}
	}
}

func TestTopKFolderDescAndNulls(t *testing.T) {
	f := &topKFolder{keys: []core.TopKKey{{Col: 0, Desc: true}}, k: 2}
	f.fold([]sqlengine.Row{{nil}, {float64(5)}})
	f.fold([]sqlengine.Row{{float64(9)}, {float64(1)}})
	got := f.rows()
	// DESC with MySQL semantics: NULLs sort last, so the top 2 are 9, 5.
	if got[0][0].(float64) != 9 || got[1][0].(float64) != 5 {
		t.Errorf("rows = %v", got)
	}
}

func TestAggFolderCombines(t *testing.T) {
	ops := []core.PartialOp{core.PartialKey, core.PartialSum, core.PartialMin, core.PartialMax}
	f := newAggFolder(ops)
	f.fold([]sqlengine.Row{
		{int64(1), int64(10), float64(3), float64(3)},
		{int64(2), int64(1), float64(7), float64(7)},
	})
	f.fold([]sqlengine.Row{
		{int64(1), int64(5), float64(1), float64(9)},
		// NULL partials are the identity (SQL aggregates skip NULLs).
		{int64(2), nil, nil, nil},
	})
	rows := f.rows()
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	g1, g2 := rows[0], rows[1]
	if g1[0].(int64) != 1 || g1[1].(int64) != 15 || g1[2].(float64) != 1 || g1[3].(float64) != 9 {
		t.Errorf("group 1 = %v", g1)
	}
	if g2[0].(int64) != 2 || g2[1].(int64) != 1 || g2[2].(float64) != 7 || g2[3].(float64) != 7 {
		t.Errorf("group 2 = %v", g2)
	}
}

func TestAddPartialTyping(t *testing.T) {
	if got := addPartial(int64(2), int64(3)); got.(int64) != 5 {
		t.Errorf("int+int = %v", got)
	}
	if got := addPartial(int64(2), float64(0.5)); got.(float64) != 2.5 {
		t.Errorf("int+float = %v", got)
	}
	if got := addPartial(nil, nil); !sqlengine.IsNull(got) {
		t.Errorf("null+null = %v", got)
	}
}

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
	schema, batches, rows := newMergeSession(p, 2).finish()
	if len(schema) != 2 || len(batches) != 0 || len(rows) != 0 {
		t.Fatalf("schema = %+v, %d batches, %d rows", schema, len(batches), len(rows))
	}
	if schema[0].Name != "objectId" || schema[0].Type != sqlparse.TypeInt {
		t.Errorf("objectId column = %+v, want INT", schema[0])
	}
	if schema[1].Type != sqlparse.TypeFloat {
		t.Errorf("ra_PS column = %+v, want DOUBLE", schema[1])
	}
}

// intStream is a one-row chunk result stream of BIGINT columns (names
// comma-separated), as a worker would ship it.
func intStream(cols string, vals ...int64) []byte {
	res := &sqlengine.Result{Cols: strings.Split(cols, ",")}
	row := make(sqlengine.Row, len(vals))
	for i, v := range vals {
		res.Types = append(res.Types, sqlparse.TypeInt)
		row[i] = v
	}
	res.Rows = []sqlengine.Row{row}
	return []byte(dump.Dump("r_x", res))
}

func TestMergeSessionStripedFoldAndFinish(t *testing.T) {
	p := planFor(t, "SELECT objectId FROM Object", false)
	s := newMergeSession(p, 4)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.absorb(intStream("objectId", int64(i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	_, batches, _ := s.finish()
	var rows []sqlengine.Row
	for _, b := range batches {
		rows = b.Box(rows)
	}
	if len(rows) != 32 {
		t.Fatalf("rows = %d, want 32", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[0].(int64)] = true
	}
	if len(seen) != 32 {
		t.Errorf("lost rows across stripes: %d distinct", len(seen))
	}
}

func TestMergeSessionRejectsArityMismatch(t *testing.T) {
	p := planFor(t, "SELECT objectId FROM Object", false)
	s := newMergeSession(p, 1)
	bad := intStream("a,b", 1, 2)
	if _, _, err := s.absorb(bad); err == nil {
		t.Error("arity mismatch vs plan must be rejected")
	}
	if _, _, err := s.absorb(intStream("objectId", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.absorb(bad); err == nil {
		t.Error("arity mismatch vs session schema must be rejected")
	}
}

// TestConcurrentQueriesMergeIndependently is the merge-path race test:
// many user queries of all three folder kinds in flight at once, each
// must produce its own correct answer with no cross-query interference
// (run under -race in CI).
func TestConcurrentQueriesMergeIndependently(t *testing.T) {
	cz, _, _ := miniCluster(t)
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
