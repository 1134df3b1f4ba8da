package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlparse"
)

func testSetup(t testing.TB) (*meta.Registry, *Planner, []partition.ChunkID) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	ix := meta.NewObjectIndex()
	// Objects 1..10 indexed across a few chunks.
	for i := int64(1); i <= 10; i++ {
		c, s := ch.Locate(sphgeom.NewPoint(float64(i)*10, float64(i)))
		ix.Put(i, meta.ChunkSub{Chunk: c, Sub: s})
	}
	return reg, NewPlanner(reg, ix), ch.AllChunks()
}

func mustPlan(t *testing.T, pl *Planner, placed []partition.ChunkID, sql string) *Plan {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := pl.Plan(sel, placed)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

func TestAnalyzeDetectsPartitionedRefs(t *testing.T) {
	reg, _, _ := testSetup(t)
	sel, _ := sqlparse.ParseSelect("SELECT o.objectId, f.filterName FROM Object o, Filter f WHERE o.objectId = 1")
	a, err := Analyze(sel, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PartRefs) != 1 || a.PartRefs[0].Info.Name != "Object" {
		t.Errorf("part refs: %+v", a.PartRefs)
	}
	if len(a.NonPartRefs) != 1 || a.NonPartRefs[0].Table != "Filter" {
		t.Errorf("non-part refs: %+v", a.NonPartRefs)
	}
}

func TestAnalyzeUnknownTable(t *testing.T) {
	reg, _, _ := testSetup(t)
	sel, _ := sqlparse.ParseSelect("SELECT * FROM NoSuchTable")
	if _, err := Analyze(sel, reg); err == nil {
		t.Error("unknown table should fail analysis")
	}
	sel2, _ := sqlparse.ParseSelect("SELECT * FROM OtherDB.Object")
	if _, err := Analyze(sel2, reg); err == nil {
		t.Error("wrong database qualifier should fail")
	}
}

func TestAnalyzeAreaspecBox(t *testing.T) {
	reg, _, _ := testSetup(t)
	sel, _ := sqlparse.ParseSelect(
		"SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04")
	a, err := Analyze(sel, reg)
	if err != nil {
		t.Fatal(err)
	}
	box, ok := a.Region.(sphgeom.Box)
	if !ok {
		t.Fatalf("region = %#v", a.Region)
	}
	if box.RAMin != 0 || box.RAMax != 10 || box.DeclMin != 0 || box.DeclMax != 10 {
		t.Errorf("box = %v", box)
	}
	// Paper's example rewrite: the areaspec call becomes
	// qserv_ptInSphericalBox(ra_PS, decl_PS, 0, 0, 10, 10) = 1.
	where := a.Stmt.Where.SQL()
	if !strings.Contains(where, "qserv_ptInSphericalBox(ra_PS, decl_PS, 0, 0, 10, 10)") {
		t.Errorf("areaspec not rewritten: %s", where)
	}
	if strings.Contains(where, "areaspec") {
		t.Errorf("areaspec pseudo-function leaked to workers: %s", where)
	}
	// The user predicate survives.
	if !strings.Contains(where, "uRadius_PS") {
		t.Errorf("user predicate lost: %s", where)
	}
}

func TestAnalyzeAreaspecCircle(t *testing.T) {
	reg, _, _ := testSetup(t)
	sel, _ := sqlparse.ParseSelect(
		"SELECT objectId FROM Object WHERE qserv_areaspec_circle(100, -30, 2.5)")
	a, err := Analyze(sel, reg)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := a.Region.(sphgeom.Circle)
	if !ok || c.Radius != 2.5 || c.Center.RA != 100 {
		t.Fatalf("circle region: %#v", a.Region)
	}
	if !strings.Contains(a.Stmt.Where.SQL(), "qserv_ptInSphericalCircle") {
		t.Errorf("circle rewrite: %s", a.Stmt.Where.SQL())
	}
}

func TestAnalyzeAreaspecErrors(t *testing.T) {
	reg, _, _ := testSetup(t)
	for _, sql := range []string{
		"SELECT * FROM Object WHERE qserv_areaspec_box(1, 2, 3)",                                 // arity
		"SELECT * FROM Object WHERE qserv_areaspec_box(ra_PS, 0, 1, 1)",                          // non-literal
		"SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1,1) AND qserv_areaspec_box(2,2,3,3)", // duplicate
		"SELECT filterName FROM Filter WHERE qserv_areaspec_box(0,0,1,1)",                        // unpartitioned
	} {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Analyze(sel, reg); err == nil {
			t.Errorf("Analyze(%q) should fail", sql)
		}
	}
}

func TestAnalyzeObjectIDDetection(t *testing.T) {
	reg, _, _ := testSetup(t)
	cases := map[string][]int64{
		"SELECT * FROM Object WHERE objectId = 42":            {42},
		"SELECT * FROM Object WHERE 42 = objectId":            {42},
		"SELECT * FROM Object WHERE objectId IN (1, 2, 3)":    {1, 2, 3},
		"SELECT * FROM Object o WHERE o.objectId = 7":         {7},
		"SELECT * FROM Source WHERE objectId = 9":             {9},
		"SELECT * FROM Object WHERE objectId > 5":             nil, // range: no index
		"SELECT * FROM Object WHERE objectId = ra_PS":         nil, // non-literal
		"SELECT * FROM Object WHERE NOT (objectId = 3)":       nil, // not top-level
		"SELECT * FROM Object WHERE objectId = 1 OR ra_PS= 2": nil, // disjunction
	}
	for sql, want := range cases {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		a, err := Analyze(sel, reg)
		if err != nil {
			t.Fatalf("analyze %q: %v", sql, err)
		}
		if len(a.ObjectIDs) != len(want) {
			t.Errorf("%q: ids = %v, want %v", sql, a.ObjectIDs, want)
			continue
		}
		for i := range want {
			if a.ObjectIDs[i] != want[i] {
				t.Errorf("%q: ids = %v, want %v", sql, a.ObjectIDs, want)
			}
		}
	}
}

func TestAnalyzeNearNeighbor(t *testing.T) {
	reg, _, _ := testSetup(t)
	sel, _ := sqlparse.ParseSelect(`SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(-5,-5,5,5)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`)
	a, err := Analyze(sel, reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NearNeighbor == nil {
		t.Fatal("near-neighbor not detected")
	}
	if a.NearNeighbor.First != "o1" || a.NearNeighbor.Second != "o2" || a.NearNeighbor.Radius != 0.1 {
		t.Errorf("nn: %+v", a.NearNeighbor)
	}
}

func TestAnalyzeObjectSourceJoinIsNotNearNeighbor(t *testing.T) {
	reg, _, _ := testSetup(t)
	// SHV2: Object x Source with an angSep predicate is NOT a
	// subchunked self-join (different tables).
	sel, _ := sqlparse.ParseSelect(`SELECT o.objectId, s.sourceId FROM Object o, Source s
		WHERE o.objectId = s.objectId
		AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045`)
	a, err := Analyze(sel, reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NearNeighbor != nil {
		t.Errorf("Object x Source misdetected as near-neighbor: %+v", a.NearNeighbor)
	}
	if len(a.PartRefs) != 2 {
		t.Errorf("part refs = %d", len(a.PartRefs))
	}
}

func TestAnalyzeAggregates(t *testing.T) {
	reg, _, _ := testSetup(t)
	for sql, want := range map[string]bool{
		"SELECT COUNT(*) FROM Object":                  true,
		"SELECT objectId FROM Object":                  false,
		"SELECT objectId FROM Object GROUP BY chunkId": true,
		"SELECT fluxToAbMag(zFlux_PS) FROM Object":     false,
	} {
		sel, _ := sqlparse.ParseSelect(sql)
		a, err := Analyze(sel, reg)
		if err != nil {
			t.Fatal(err)
		}
		if a.HasAggregates != want {
			t.Errorf("%q: HasAggregates = %v", sql, a.HasAggregates)
		}
	}
}

func TestPlanChunkSelectionFullSky(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT COUNT(*) FROM Object")
	if len(p.Chunks) != len(placed) {
		t.Errorf("full-sky chunks = %d, want %d", len(p.Chunks), len(placed))
	}
}

func TestPlanChunkSelectionSpatial(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed,
		"SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(1, 3, 2, 4)")
	if len(p.Chunks) == 0 || len(p.Chunks) >= len(placed)/10 {
		t.Errorf("spatial restriction hit %d of %d chunks", len(p.Chunks), len(placed))
	}
}

func TestPlanChunkSelectionByIndex(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId = 3")
	if len(p.Chunks) != 1 {
		t.Fatalf("index point query hit %d chunks, want 1", len(p.Chunks))
	}
	// Multiple ids may share chunks; the set is deduplicated.
	p2 := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId IN (1, 2, 3)")
	if len(p2.Chunks) == 0 || len(p2.Chunks) > 3 {
		t.Errorf("IN query chunks = %d", len(p2.Chunks))
	}
	// Unknown id: no chunks at all.
	p3 := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId = 99999")
	if len(p3.Chunks) != 0 {
		t.Errorf("missing id chunks = %d, want 0", len(p3.Chunks))
	}
}

func TestPlanRejectsUnpartitionedOnly(t *testing.T) {
	_, pl, placed := testSetup(t)
	sel, _ := sqlparse.ParseSelect("SELECT * FROM Filter")
	if _, err := pl.Plan(sel, placed); err == nil {
		t.Error("unpartitioned-only query should be rejected by the planner")
	}
}

func TestChunkQueryTableSubstitution(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT objectId FROM Object WHERE ra_PS > 10")
	cq := p.QueryFor(1234)
	if len(cq.Statements) != 1 {
		t.Fatalf("statements = %d", len(cq.Statements))
	}
	sql := cq.Statements[0]
	// Paper: "The reference to the Object table is converted to
	// LSST.Object_CC".
	if !strings.Contains(sql, "Object_1234") || !strings.Contains(sql, "LSST") {
		t.Errorf("chunk SQL: %s", sql)
	}
	// The generated SQL must itself parse.
	if _, err := sqlparse.ParseScript(string(cq.Payload())); err != nil {
		t.Errorf("generated chunk query unparseable: %v\n%s", err, cq.Payload())
	}
}

func TestChunkQueryAggregateSplitAvg(t *testing.T) {
	// The paper's rewriting example: AVG(uFlux_SG) becomes worker
	// SUM + COUNT and merge SUM(SUM)/SUM(COUNT).
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed,
		"SELECT AVG(uFlux_SG) FROM Object WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04")
	cq := p.QueryFor(p.Chunks[0])
	sql := cq.Statements[0]
	if !strings.Contains(sql, "SUM(uFlux_SG)") || !strings.Contains(sql, "COUNT(uFlux_SG)") {
		t.Errorf("worker SQL missing split aggregates: %s", sql)
	}
	if strings.Contains(sql, "AVG") {
		t.Errorf("AVG leaked to worker: %s", sql)
	}
	merge := p.Merge.SQL()
	if !strings.Contains(merge, "SUM(") || !strings.Contains(merge, "/") {
		t.Errorf("merge SQL: %s", merge)
	}
	if !strings.Contains(merge, "FROM "+MergeTablePlaceholder) {
		t.Errorf("merge statement does not read the session table: %s", merge)
	}
}

func TestChunkQueryCountSplit(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT COUNT(*) FROM Object")
	cq := p.QueryFor(7)
	if !strings.Contains(cq.Statements[0], "COUNT(*)") {
		t.Errorf("worker: %s", cq.Statements[0])
	}
	merge := p.Merge.SQL()
	if !strings.Contains(merge, "SUM(") {
		t.Errorf("COUNT must merge as SUM: %s", merge)
	}
}

func TestChunkQueryGroupBy(t *testing.T) {
	// HV3: GROUP BY chunkId must group on workers and re-group on merge.
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed,
		"SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId")
	cq := p.QueryFor(5)
	sql := cq.Statements[0]
	if !strings.Contains(sql, "GROUP BY chunkId") {
		t.Errorf("worker group by missing: %s", sql)
	}
	merge := p.Merge.SQL()
	if !strings.Contains(merge, "GROUP BY") {
		t.Errorf("merge group by missing: %s", merge)
	}
	// Output column names preserved.
	if !strings.Contains(merge, "AS n") || !strings.Contains(merge, "chunkId") {
		t.Errorf("merge output names: %s", merge)
	}
}

func TestChunkQueryNearNeighbor(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(-5, -5, 5, 5)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`)
	if p.SubChunksByChunk == nil {
		t.Fatal("near-neighbor plan must use subchunks")
	}
	c := p.Chunks[0]
	cq := p.QueryFor(c)
	if len(cq.SubChunks) == 0 {
		t.Fatal("no subchunks in chunk query")
	}
	// Two statements, written for the first subchunk: self pairs +
	// overlap pairs.
	if len(cq.Statements) != 2 {
		t.Fatalf("statements = %d for %d subchunks", len(cq.Statements), len(cq.SubChunks))
	}
	// Payload has the CLASS header followed by the paper's SUBCHUNKS
	// header.
	payload := string(cq.Payload())
	if !strings.HasPrefix(payload, "-- CLASS: FULLSCAN\n-- SUBCHUNKS: ") {
		t.Errorf("payload header: %q", payload[:40])
	}
	if h, err := ParseHeader(cq.Payload()); err != nil || !slices.Equal(h.SubChunks, cq.SubChunks) {
		t.Errorf("header round trip: %v %v", h.SubChunks, err)
	}
	// First statement joins subchunk x subchunk; second subchunk x
	// overlap.
	if !strings.Contains(cq.Statements[0], "Object_") {
		t.Errorf("statement 0: %s", cq.Statements[0])
	}
	if !strings.Contains(cq.Statements[1], "ObjectFullOverlap_") {
		t.Errorf("statement 1 must use the overlap table: %s", cq.Statements[1])
	}
	// Only the o2 side flips to overlap.
	if strings.Count(cq.Statements[1], "ObjectFullOverlap_") != 1 {
		t.Errorf("both sides flipped: %s", cq.Statements[1])
	}
	// Generated SQL parses.
	if _, err := sqlparse.ParseScript(strings.Join(cq.Statements, ";\n")); err != nil {
		t.Errorf("generated NN SQL unparseable: %v", err)
	}
}

func TestNearNeighborRadiusExceedsOverlap(t *testing.T) {
	_, pl, placed := testSetup(t)
	sel, _ := sqlparse.ParseSelect(`SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 5.0`)
	if _, err := pl.Plan(sel, placed); err == nil {
		t.Error("radius > overlap must be rejected")
	} else if !strings.Contains(err.Error(), "overlap") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestPassThroughOrderByLimit(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed,
		"SELECT objectId, ra_PS FROM Object WHERE ra_PS > 1 ORDER BY ra_PS DESC LIMIT 5")
	cq := p.QueryFor(3)
	// Ordering happens at merge; the worker statement must not sort but
	// may not push the limit (ordered query).
	if strings.Contains(cq.Statements[0], "ORDER BY") {
		t.Errorf("worker should not order: %s", cq.Statements[0])
	}
	if strings.Contains(cq.Statements[0], "LIMIT") {
		t.Errorf("ordered limit must not push down: %s", cq.Statements[0])
	}
	merge := p.Merge.SQL()
	if !strings.Contains(merge, "ORDER BY ra_PS DESC") || !strings.Contains(merge, "LIMIT 5") {
		t.Errorf("merge: %s", merge)
	}
}

func TestTopKPushdown(t *testing.T) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	p := mustPlan(t, pl, placed,
		"SELECT objectId, ra_PS FROM Object WHERE ra_PS > 1 ORDER BY ra_PS DESC, objectId LIMIT 5")
	cq := p.QueryFor(3)
	// With pushdown enabled, the chunk statement carries the full
	// top-K: ORDER BY and LIMIT both ship to workers.
	if !strings.Contains(cq.Statements[0], "ORDER BY ra_PS DESC, objectId") {
		t.Errorf("worker statement missing pushed ORDER BY: %s", cq.Statements[0])
	}
	if !strings.Contains(cq.Statements[0], "LIMIT 5") {
		t.Errorf("worker statement missing pushed LIMIT: %s", cq.Statements[0])
	}
	if _, err := sqlparse.ParseScript(string(cq.Payload())); err != nil {
		t.Errorf("pushed-down chunk query unparseable: %v", err)
	}
	// The merge still re-sorts and re-limits the partials.
	merge := p.Merge.SQL()
	if !strings.Contains(merge, "ORDER BY ra_PS DESC") || !strings.Contains(merge, "LIMIT 5") {
		t.Errorf("merge lost ordering: %s", merge)
	}
	// The plan carries the statement that keeps the best K of whatever
	// chunk results the czar holds: the merge ordering over every result
	// column.
	want := "SELECT * FROM " + MergeTablePlaceholder + " ORDER BY ra_PS DESC, objectId LIMIT 5"
	if !p.TopK || p.Combine == nil || p.Combine.SQL() != want {
		t.Fatalf("TopK=%v, combine statement %v, want %s", p.TopK, p.Combine, want)
	}
	if p.Streamable() {
		t.Error("a plan with a combine statement streams its chunk results")
	}
}

func TestTopKPushdownHiddenOrderColumn(t *testing.T) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	p := mustPlan(t, pl, placed, "SELECT objectId FROM Object ORDER BY decl_PS LIMIT 3")
	cq := p.QueryFor(3)
	// The hidden key rides as qserv_ord0 and the worker sorts by it.
	if !strings.Contains(cq.Statements[0], "qserv_ord0") ||
		!strings.Contains(cq.Statements[0], "ORDER BY") ||
		!strings.Contains(cq.Statements[0], "LIMIT 3") {
		t.Errorf("worker statement: %s", cq.Statements[0])
	}
	// The combine statement sorts by the hidden column and keeps it: its
	// answer is read by the merge statement, which sorts by it again.
	want := "SELECT * FROM " + MergeTablePlaceholder + " ORDER BY qserv_ord0 LIMIT 3"
	if !p.TopK || p.Combine == nil || p.Combine.SQL() != want {
		t.Fatalf("TopK=%v, combine statement %v, want %s", p.TopK, p.Combine, want)
	}
	if got := p.ResultColumns; len(got) != 2 || got[1] != "qserv_ord0" {
		t.Errorf("result columns %v", got)
	}
}

func TestTopKPushdownGates(t *testing.T) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	cases := map[string]string{
		// No LIMIT: nothing to bound, no pushdown.
		"no limit": "SELECT objectId FROM Object ORDER BY ra_PS",
		// DISTINCT: a worker limit before dedup is unsound.
		"distinct": "SELECT DISTINCT objectId FROM Object ORDER BY objectId LIMIT 5",
		// Aggregates: workers must see every row to compute partials.
		"aggregate": "SELECT COUNT(*) FROM Object GROUP BY chunkId ORDER BY chunkId LIMIT 5",
	}
	for label, sql := range cases {
		p := mustPlan(t, pl, placed, sql)
		if p.TopK {
			t.Errorf("%s: pushdown must not apply to %q", label, sql)
		}
		cq := p.QueryFor(p.Chunks[0])
		if strings.Contains(cq.Statements[0], "ORDER BY") {
			t.Errorf("%s: worker statement carries ORDER BY: %s", label, cq.Statements[0])
		}
	}
	// Planner knob off: the ordered-limit query keeps the old shape.
	pl.TopK = false
	p := mustPlan(t, pl, placed, "SELECT objectId FROM Object ORDER BY ra_PS LIMIT 5")
	if p.TopK || strings.Contains(p.QueryFor(3).Statements[0], "LIMIT") {
		t.Errorf("pushdown applied with the knob off")
	}
}

// TestCombineStatement: an aggregate plan's combine statement re-aggregates
// every partial under the worker column's own name and groups by the rest,
// so its answer is a chunk result again; a plan whose rows only accumulate
// has none.
func TestCombineStatement(t *testing.T) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	p := mustPlan(t, pl, placed,
		"SELECT COUNT(*) AS n, AVG(ra_PS), MIN(decl_PS), MAX(decl_PS), chunkId FROM Object GROUP BY chunkId")
	// Worker items: COUNT(*), SUM(ra_PS), COUNT(ra_PS), MIN, MAX, chunkId.
	want := "SELECT SUM(qserv_c0) AS qserv_c0, SUM(qserv_c1) AS qserv_c1, SUM(qserv_c2) AS qserv_c2, " +
		"MIN(qserv_c3) AS qserv_c3, MAX(qserv_c4) AS qserv_c4, qserv_c5 AS qserv_c5 " +
		"FROM " + MergeTablePlaceholder + " GROUP BY qserv_c5"
	if p.Combine == nil || p.Combine.SQL() != want {
		t.Fatalf("combine statement %v, want %s", p.Combine, want)
	}
	// A select-list column outside GROUP BY is a key too: rows that differ
	// in it stay apart, as they do in the session table without a combine.
	loose := mustPlan(t, pl, placed, "SELECT objectId, COUNT(*) FROM Object")
	if got, want := loose.Combine.SQL(), "SELECT qserv_c0 AS qserv_c0, SUM(qserv_c1) AS qserv_c1 FROM "+
		MergeTablePlaceholder+" GROUP BY qserv_c0"; got != want {
		t.Errorf("combine statement %s, want %s", got, want)
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM Object",
		"SELECT SUM(zFlux_PS) / COUNT(*), MIN(ra_PS) FROM Object GROUP BY chunkId ORDER BY MAX(ra_PS) LIMIT 2",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC LIMIT 10",
		"SELECT objectId FROM Object ORDER BY decl_PS LIMIT 3",
	} {
		p := mustPlan(t, pl, placed, sql)
		if p.Combine == nil {
			t.Errorf("%s: no combine statement", sql)
			continue
		}
		sel, err := sqlparse.ParseSelect(p.Combine.SQL())
		if err != nil {
			t.Errorf("%s: combine statement unparseable: %v\n%s", sql, err, p.Combine.SQL())
			continue
		}
		if p.Streamable() {
			t.Errorf("%s: streams and combines", sql)
		}
		if _, star := sel.Items[0].Expr.(*sqlparse.Star); star {
			continue
		}
		var aliases []string
		for _, it := range sel.Items {
			aliases = append(aliases, it.Alias)
		}
		if !slices.Equal(aliases, p.ResultColumns) {
			t.Errorf("%s: combine answers columns %v, a chunk result has %v", sql, aliases, p.ResultColumns)
		}
	}
	// Plans whose chunk results are only ever concatenated have none: plain
	// pass-through, DISTINCT, a bare LIMIT, ORDER BY without LIMIT, and
	// ORDER BY + LIMIT when nothing is pushed down.
	for _, sql := range []string{
		"SELECT objectId FROM Object",
		"SELECT DISTINCT chunkId FROM Object",
		"SELECT objectId FROM Object LIMIT 7",
		"SELECT objectId FROM Object ORDER BY ra_PS",
		"SELECT * FROM Object ORDER BY noSuchColumn LIMIT 3",
	} {
		if p := mustPlan(t, pl, placed, sql); p.Combine != nil {
			t.Errorf("%s: combine statement %s", sql, p.Combine.SQL())
		}
	}
	pl.TopK = false
	if p := mustPlan(t, pl, placed, "SELECT objectId FROM Object ORDER BY ra_PS LIMIT 5"); p.Combine != nil {
		t.Errorf("pushdown off: combine statement %s", p.Combine.SQL())
	}
}

func TestResultTypesInferred(t *testing.T) {
	_, pl, placed := testSetup(t)
	// Satellite fix: zero-chunk synthesized results must not type every
	// column as DOUBLE.
	p := mustPlan(t, pl, placed, "SELECT objectId, ra_PS FROM Object WHERE objectId = 99999")
	if got := p.ResultType(0); got != sqlparse.TypeInt {
		t.Errorf("objectId type = %v, want INT", got)
	}
	if got := p.ResultType(1); got != sqlparse.TypeFloat {
		t.Errorf("ra_PS type = %v, want DOUBLE", got)
	}
	// Star expansion carries catalog types through.
	p2 := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId = 99999")
	if got := p2.ResultType(0); got != sqlparse.TypeInt {
		t.Errorf("star objectId type = %v", got)
	}
	// Aggregate partials: COUNT is INT, SUM over a DOUBLE is DOUBLE.
	p3 := mustPlan(t, pl, placed, "SELECT COUNT(*), AVG(ra_PS) FROM Object")
	if got := p3.ResultType(0); got != sqlparse.TypeInt {
		t.Errorf("COUNT partial type = %v", got)
	}
	if got := p3.ResultType(1); got != sqlparse.TypeFloat {
		t.Errorf("SUM(ra_PS) partial type = %v", got)
	}
}

func TestPassThroughLimitPushdown(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT objectId FROM Object LIMIT 7")
	cq := p.QueryFor(3)
	if !strings.Contains(cq.Statements[0], "LIMIT 7") {
		t.Errorf("unordered limit should push down: %s", cq.Statements[0])
	}
	if !strings.Contains(p.Merge.SQL(), "LIMIT 7") {
		t.Errorf("merge limit missing")
	}
}

func TestPassThroughHiddenOrderColumn(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT objectId FROM Object ORDER BY decl_PS")
	cq := p.QueryFor(3)
	if !strings.Contains(cq.Statements[0], "qserv_ord0") {
		t.Errorf("hidden order column missing: %s", cq.Statements[0])
	}
	merge := p.Merge.SQL()
	// The final output must not include the hidden column.
	if !strings.Contains(merge, "SELECT objectId") {
		t.Errorf("merge must enumerate user columns: %s", merge)
	}
}

func TestStarOrderByColumn(t *testing.T) {
	_, pl, placed := testSetup(t)
	// LV1-style: SELECT * ... ORDER BY a base column works because star
	// carries every column through. Two chunks: the split's merge orders.
	p := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId IN (3, 7) ORDER BY ra_PS")
	if len(p.Chunks) != 2 || !strings.Contains(p.Merge.SQL(), "ORDER BY ra_PS") {
		t.Errorf("%d chunks, merge: %s", len(p.Chunks), p.Merge.SQL())
	}
	// One chunk: its worker orders, and the rows stream.
	one := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId = 3 ORDER BY ra_PS")
	if st := one.QueryFor(one.Chunks[0]).Statements[0]; !strings.HasSuffix(st, " ORDER BY ra_PS") || !one.Streamable() {
		t.Errorf("one chunk: streamable %v, worker statement %s", one.Streamable(), st)
	}
}

// TestOneChunkPlanRunsWhole: a plan of one chunk ships the user's statement
// whole, FROM rewritten, and its rows stream through a bare merge; the same
// statement split has the columns the whole one has. (Answers and
// rejections are held to the split's by TestOneChunkAnswersAsTheSplit.)
func TestOneChunkPlanRunsWhole(t *testing.T) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	const box = " FROM Object WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4"
	p := mustPlan(t, pl, placed, "SELECT COUNT(*)"+box)
	want := "SELECT COUNT(*) FROM LSST." + meta.ChunkTableName("Object", p.Chunks[0]) + " AS Object WHERE ((ra_PS BETWEEN 1 AND 2) AND (decl_PS BETWEEN 3 AND 4))"
	if got := p.QueryFor(p.Chunks[0]).Statements; len(p.Chunks) != 1 || len(got) != 1 || got[0] != want {
		t.Fatalf("%d chunks, worker statements %q, want %q", len(p.Chunks), got, want)
	}
	if !p.Streamable() || p.Combine != nil || p.TopK || p.Merge.SQL() != "SELECT * FROM "+MergeTablePlaceholder ||
		!slices.Equal(p.ResultColumns, []string{"COUNT(*)"}) || !slices.Equal(p.ResultTypes, []sqlparse.ColType{sqlparse.TypeInt}) {
		t.Errorf("streamable %v, combine %v, top-K %v, merge %s, result %v %v", p.Streamable(), p.Combine, p.TopK, p.Merge.SQL(), p.ResultColumns, p.ResultTypes)
	}

	plan := func(sql string, split bool) (p *Plan, err error) {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if !split {
			return pl.Plan(sel, placed)
		}
		WithSplitAlways(func() { p, err = pl.Plan(sel, placed) })
		return p, err
	}
	for _, sql := range []string{
		"SELECT COUNT(*)" + box,
		"SELECT AVG(objectId), SUM(ra_PS) / COUNT(*) AS r" + box,
		"SELECT chunkId, COUNT(*) AS n, MAX(ra_PS)" + box + " GROUP BY chunkId ORDER BY n DESC LIMIT 2",
		"SELECT DISTINCT subChunkId" + box,
		"SELECT ra_PS AS x, decl_PS AS x" + box + " ORDER BY objectId LIMIT 0",
		"SELECT MIN(ra_PS) AS x, MAX(ra_PS) AS x" + box,
		"SELECT *" + box + " ORDER BY decl_PS LIMIT 3",
		"SELECT * FROM Object WHERE objectId = 3 ORDER BY ra_PS",
	} {
		whole, err := plan(sql, false)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		split, err := plan(sql, true)
		if err != nil {
			t.Fatalf("%s, split: %v", sql, err)
		}
		if len(whole.Chunks) != 1 || !whole.Streamable() || split.Streamable() {
			t.Errorf("%s: %d chunks, streamable %v whole and %v split", sql, len(whole.Chunks), whole.Streamable(), split.Streamable())
		}
		if got, want := whole.OutputColumns(), split.OutputColumns(); !slices.Equal(got, want) || !slices.Equal(whole.ResultColumns, want) {
			t.Errorf("%s: columns %v (result %v) whole, %v split", sql, got, whole.ResultColumns, want)
		}
	}

	// A near-neighbour join splits on one chunk too: its chunk query is a
	// pair of statements, one per subchunk table pairing.
	nn := mustPlan(t, pl, placed, `SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(100.1, 0.1, 100.2, 0.2)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`)
	if len(nn.Chunks) != 1 || len(nn.QueryFor(nn.Chunks[0]).Statements) != 2 || nn.Combine == nil {
		t.Errorf("near-neighbour join on %d chunks: %q, combine %v", len(nn.Chunks), nn.QueryFor(nn.Chunks[0]).Statements, nn.Combine)
	}
}

func TestResultColumnsStarExpansion(t *testing.T) {
	reg, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT * FROM Object WHERE objectId = 1")
	info, _ := reg.Table("Object")
	if len(p.ResultColumns) != len(info.Schema) {
		t.Errorf("result columns = %v", p.ResultColumns)
	}
	p2 := mustPlan(t, pl, placed, "SELECT objectId, fluxToAbMag(zFlux_PS) AS zmag FROM Object")
	if len(p2.ResultColumns) != 2 || p2.ResultColumns[1] != "zmag" {
		t.Errorf("result columns = %v", p2.ResultColumns)
	}
}

func TestDistributedDistinctRejected(t *testing.T) {
	_, pl, placed := testSetup(t)
	sel, _ := sqlparse.ParseSelect("SELECT COUNT(DISTINCT objectId) FROM Object")
	if _, err := pl.Plan(sel, placed); err == nil {
		t.Error("COUNT(DISTINCT) must be rejected in distributed mode")
	}
}

func TestSelectDistinctPassThrough(t *testing.T) {
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed, "SELECT DISTINCT chunkId FROM Object")
	// Plain DISTINCT is fine: dedup again at merge.
	if !strings.Contains(p.Merge.SQL(), "DISTINCT") {
		t.Errorf("merge must dedup: %s", p.Merge.SQL())
	}
}

func TestMergeSQLParses(t *testing.T) {
	_, pl, placed := testSetup(t)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM Object",
		"SELECT AVG(uFlux_SG) FROM Object WHERE uRadius_PS > 0.04",
		"SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS LIMIT 10",
		"SELECT * FROM Object WHERE objectId = 3",
		"SELECT MIN(ra_PS), MAX(ra_PS) FROM Object",
		"SELECT SUM(zFlux_PS) / COUNT(*) FROM Object",
	} {
		p := mustPlan(t, pl, placed, sql)
		merge := p.Merge.SQL()
		if _, err := sqlparse.ParseSelect(merge); err != nil {
			t.Errorf("merge SQL for %q unparseable: %v\n%s", sql, err, merge)
		}
		if len(p.Chunks) > 0 {
			cq := p.QueryFor(p.Chunks[0])
			for _, st := range cq.Statements {
				if _, err := sqlparse.ParseSelect(st); err != nil {
					t.Errorf("chunk SQL for %q unparseable: %v\n%s", sql, err, st)
				}
			}
		}
	}
}

func TestSubChunksRestrictedByRegion(t *testing.T) {
	_, pl, placed := testSetup(t)
	full := mustPlan(t, pl, placed, `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`)
	restricted := mustPlan(t, pl, placed, `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(10, 10, 11, 11)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`)
	if len(restricted.Chunks) >= len(full.Chunks) {
		t.Errorf("region did not restrict chunks: %d vs %d", len(restricted.Chunks), len(full.Chunks))
	}
	// Within a boundary chunk, the subchunk list is also restricted.
	c := restricted.Chunks[0]
	if len(restricted.SubChunksByChunk[c]) >= len(full.SubChunksByChunk[c]) {
		t.Errorf("region did not restrict subchunks: %d vs %d",
			len(restricted.SubChunksByChunk[c]), len(full.SubChunksByChunk[c]))
	}
}

func TestPayloadHashStability(t *testing.T) {
	// The dispatch path hashes the payload (result addressing); the
	// payload for the same chunk must be deterministic.
	_, pl, placed := testSetup(t)
	p1 := mustPlan(t, pl, placed, "SELECT COUNT(*) FROM Object")
	p2 := mustPlan(t, pl, placed, "SELECT COUNT(*) FROM Object")
	if string(p1.QueryFor(5).Payload()) != string(p2.QueryFor(5).Payload()) {
		t.Error("payload not deterministic across plans")
	}
	if string(p1.QueryFor(5).Payload()) == string(p1.QueryFor(6).Payload()) {
		t.Error("different chunks must produce different payloads")
	}
}

func TestPlanClassification(t *testing.T) {
	_, pl, placed := testSetup(t)
	cases := []struct {
		sql   string
		class QueryClass
	}{
		// Secondary-index dives are interactive.
		{"SELECT * FROM Object WHERE objectId = 3", Interactive},
		{"SELECT objectId FROM Object WHERE objectId IN (1, 2, 3)", Interactive},
		// A tightly restricted region covering one chunk is a point query.
		{"SELECT * FROM Object WHERE qserv_areaspec_box(100.1, 0.1, 100.2, 0.2)", Interactive},
		// Full-sky filters and broad regions are scans.
		{"SELECT COUNT(*) FROM Object WHERE zFlux_PS > 1e-30", FullScan},
		{"SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0, 0, 60, 30)", FullScan},
		// Near-neighbor joins are never interactive, even on one chunk.
		{`SELECT COUNT(*) FROM Object o1, Object o2
		  WHERE qserv_areaspec_box(100.1, 0.1, 100.2, 0.2)
		  AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1`, FullScan},
	}
	for _, c := range cases {
		p := mustPlan(t, pl, placed, c.sql)
		if p.Class != c.class {
			t.Errorf("class(%q) = %v, want %v (chunks=%d)", c.sql, p.Class, c.class, len(p.Chunks))
		}
		cq := p.QueryFor(p.Chunks[0])
		if h, err := ParseHeader(cq.Payload()); err != nil || h.Class != c.class {
			t.Errorf("payload class round-trip for %q = %v, %v", c.sql, h.Class, err)
		}
	}
}

func TestSingleChunkUnrestrictedScanStaysFullScan(t *testing.T) {
	// An unrestricted filter over a catalog placed on ONE chunk is
	// still a table scan: it must not ride the interactive lane.
	_, pl, placed := testSetup(t)
	p := mustPlan(t, pl, placed[:1], "SELECT COUNT(*) FROM Object WHERE zFlux_PS > 1e-30")
	if len(p.Chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(p.Chunks))
	}
	if p.Class != FullScan {
		t.Errorf("single-chunk unrestricted scan class = %v, want FullScan", p.Class)
	}
}

// TestParseClassHeaderDefaults: ParseHeader reads the class (FullScan by
// default), the subchunk list and where the statements start, from the
// header block alone.
func TestParseClassHeaderDefaults(t *testing.T) {
	for _, c := range []struct {
		payload string
		class   QueryClass
		subs    []partition.SubChunkID
		body    string // the text from the statements' offset on
	}{
		{"SELECT 1;", FullScan, nil, "SELECT 1;"},
		{"-- CLASS: INTERACTIVE\nSELECT 1;", Interactive, nil, "SELECT 1;"},
		{"-- CLASS: garbage\nSELECT 1;", FullScan, nil, "SELECT 1;"},
		{"-- CLASS: FULLSCAN\n-- SUBCHUNKS: 7, 0,12\nSELECT 1;\n-- not a header line\n", FullScan, []partition.SubChunkID{7, 0, 12}, "SELECT 1;\n-- not a header line\n"},
		{"-- SUBCHUNKS:\n-- a note\nSELECT '-- SUBCHUNKS: 3';", FullScan, nil, "SELECT '-- SUBCHUNKS: 3';"},
		{"-- CLASS: INTERACTIVE", Interactive, nil, ""},
	} {
		h, err := ParseHeader([]byte(c.payload))
		if err != nil || h.Class != c.class || !slices.Equal(h.SubChunks, c.subs) || c.payload[h.Body:] != c.body {
			t.Errorf("ParseHeader(%q) = %v, %v, %q, %v; want %v, %v, %q", c.payload, h.Class, h.SubChunks, c.payload[h.Body:], err, c.class, c.subs, c.body)
		}
	}
	for _, bad := range []string{
		"-- SUBCHUNKS: 1, x\nSELECT 1;",
		"-- CHUNK: 7\nSELECT 1;",
		"-- CHUNK: 7 0123456789abcdef0123456789abcdeg\nSELECT 1;",
		"-- CHUNK: 7 0123456789abcdef0123456789abcdef 1,x\nSELECT 1;",
		"-- SUBCHUNKS: 1\n-- CHUNK: 7 0123456789abcdef0123456789abcdef\nSELECT 1;",
	} {
		if _, err := ParseHeader([]byte(bad)); err == nil {
			t.Errorf("the header of %q parsed", bad)
		}
	}
}
