package planopt

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlparse"
)

func setup(t testing.TB) (*meta.Registry, *meta.ObjectIndex, *meta.ChunkStats, []partition.ChunkID) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	ix := meta.NewObjectIndex()
	for i := int64(1); i <= 10; i++ {
		c, s := ch.Locate(sphgeom.NewPoint(float64(i)*10, float64(i)))
		ix.Put(i, meta.ChunkSub{Chunk: c, Sub: s})
	}
	return reg, ix, meta.NewChunkStats(), ch.AllChunks()
}

func analyze(t *testing.T, reg *meta.Registry, sql string) *core.Analysis {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	a, err := core.Analyze(sel, reg)
	if err != nil {
		t.Fatalf("analyze %q: %v", sql, err)
	}
	return a
}

func TestRouteIndexDive(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	o := New(reg, ix, stats, Config{Pruning: true})
	a := analyze(t, reg, "SELECT * FROM Object WHERE objectId = 3")
	rt := o.Route(a, placed)
	if rt.Kind != core.RouteIndexDive || len(rt.Chunks) != 1 {
		t.Fatalf("route = %+v", rt)
	}
	loc, _ := ix.Lookup(3)
	if rt.Chunks[0] != loc.Chunk {
		t.Fatalf("dive landed on %d, index says %d", rt.Chunks[0], loc.Chunk)
	}
	if rt.Pruned != len(placed)-1 {
		t.Fatalf("pruned = %d, want %d", rt.Pruned, len(placed)-1)
	}
}

func TestRouteDiveUnknownObjectDispatchesNothing(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	o := New(reg, ix, stats, Config{})
	a := analyze(t, reg, "SELECT * FROM Object WHERE objectId = 999999")
	rt := o.Route(a, placed)
	if rt.Kind != core.RouteIndexDive || len(rt.Chunks) != 0 {
		t.Fatalf("unknown object route = %+v", rt)
	}
}

func TestRouteSpatialFromCoordRanges(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	o := New(reg, ix, stats, Config{})
	a := analyze(t, reg, "SELECT * FROM Object WHERE ra_PS BETWEEN 10 AND 20 AND decl_PS > 0 AND decl_PS < 5")
	rt := o.Route(a, placed)
	if rt.Kind != core.RouteSpatial {
		t.Fatalf("route kind = %v", rt.Kind)
	}
	if len(rt.Chunks) == 0 || len(rt.Chunks) >= len(placed) {
		t.Fatalf("spatial cover %d of %d placed", len(rt.Chunks), len(placed))
	}
}

func TestRouteConePredicate(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	o := New(reg, ix, stats, Config{})
	a := analyze(t, reg, "SELECT * FROM Object WHERE qserv_angSep(ra_PS, decl_PS, 100.0, -30.0) < 1.5")
	rt := o.Route(a, placed)
	if rt.Kind != core.RouteSpatial {
		t.Fatalf("cone route kind = %v", rt.Kind)
	}
	if len(rt.Chunks) == 0 || len(rt.Chunks) >= len(placed)/2 {
		t.Fatalf("cone cover %d of %d placed", len(rt.Chunks), len(placed))
	}
}

func TestStatsPruningEliminatesDisjointChunks(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	// Half the chunks hold uFlux_PS in [0, 1], the other half in [5, 6].
	per := map[partition.ChunkID]map[string]meta.ColStats{}
	for i, c := range placed {
		lo := 0.0
		if i%2 == 1 {
			lo = 5.0
		}
		per[c] = map[string]meta.ColStats{"uFlux_PS": {Min: lo, Max: lo + 1, Rows: 10}}
	}
	stats.SetTable("Object", per)

	a := analyze(t, reg, "SELECT * FROM Object WHERE uFlux_PS < 2.0")
	on := New(reg, ix, stats, Config{Pruning: true})
	rt := on.Route(a, placed)
	if rt.Kind != core.RouteStats {
		t.Fatalf("route kind = %v, want STATS", rt.Kind)
	}
	if len(rt.Chunks) != (len(placed)+1)/2 {
		t.Fatalf("stats kept %d of %d chunks", len(rt.Chunks), len(placed))
	}
	if rt.Pruned != len(placed)-len(rt.Chunks) {
		t.Fatalf("pruned = %d", rt.Pruned)
	}

	// The knob really gates it.
	off := New(reg, ix, stats, Config{Pruning: false})
	if rt := off.Route(a, placed); rt.Kind != core.RouteFanOut || len(rt.Chunks) != len(placed) {
		t.Fatalf("pruning off still routed %+v", rt)
	}
}

func TestStatsPruningMissingStatsKeepsChunks(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	o := New(reg, ix, stats, Config{Pruning: true})
	a := analyze(t, reg, "SELECT * FROM Object WHERE uFlux_PS < 2.0")
	rt := o.Route(a, placed)
	if rt.Kind != core.RouteFanOut || len(rt.Chunks) != len(placed) {
		t.Fatalf("no-stats route = %+v, want untouched fan-out", rt)
	}
}

func TestStatsPruningRefinesADive(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	loc, _ := ix.Lookup(3)
	stats.SetTable("Object", map[partition.ChunkID]map[string]meta.ColStats{
		loc.Chunk: {"uFlux_PS": {Min: 0, Max: 1, Rows: 10}},
	})
	o := New(reg, ix, stats, Config{Pruning: true})
	a := analyze(t, reg, "SELECT * FROM Object WHERE objectId = 3 AND uFlux_PS > 4")
	rt := o.Route(a, placed)
	// The dive found the owning chunk, but its recorded flux range is
	// disjoint from the predicate: nothing needs dispatching. The kind
	// stays INDEX_DIVE — that is the dominant mechanism.
	if rt.Kind != core.RouteIndexDive || len(rt.Chunks) != 0 {
		t.Fatalf("refined dive = %+v", rt)
	}
}

func TestNearNeighborNeverStatsPruned(t *testing.T) {
	reg, ix, stats, placed := setup(t)
	per := map[partition.ChunkID]map[string]meta.ColStats{}
	for _, c := range placed {
		per[c] = map[string]meta.ColStats{"uFlux_PS": {Min: 5, Max: 6, Rows: 10}}
	}
	stats.SetTable("Object", per)
	o := New(reg, ix, stats, Config{Pruning: true})
	a := analyze(t, reg,
		"SELECT COUNT(*) FROM Object o1, Object o2 WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1 AND o1.uFlux_PS < 2")
	if a.NearNeighbor == nil {
		t.Fatal("near-neighbor not detected")
	}
	rt := o.Route(a, placed)
	if len(rt.Chunks) != len(placed) {
		t.Fatalf("near-neighbor plan was stats-pruned: %d of %d", len(rt.Chunks), len(placed))
	}
}

// TestPlanCostIndependentOfPlacement: planning an interactive query — the
// czar's read of the placed chunks, analysis, route and templates — costs
// the same allocations and, to within 5 %, bytes with 94 chunks placed as
// with the paper's 8,983, in its geometry: a dive or a small box does no
// work per placed chunk.
func TestPlanCostIndependentOfPlacement(t *testing.T) {
	ch, err := partition.NewChunker(partition.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	all := ch.AllChunks()
	target, _ := ch.Locate(sphgeom.NewPoint(30.3, 4.3))
	b, err := ch.ChunkBounds(target)
	if err != nil {
		t.Fatal(err)
	}
	ix := meta.NewObjectIndex()
	ix.Put(42, meta.ChunkSub{Chunk: target})
	stats := meta.NewChunkStats()
	ra, decl := (b.RAMin+b.RAMax)/2, (b.DeclMin+b.DeclMax)/2
	lv3 := fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN %.4f AND %.4f AND decl_PS BETWEEN %.4f AND %.4f AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30",
		ra-0.25, ra+0.25, decl-0.25, decl+0.25)

	cost := make(map[string][2]float64)
	for _, n := range []int{94, 8983} {
		placement := meta.NewPlacement()
		placement.Assign(target, "w0")
		for i, placed := 0, 1; placed < n; i++ {
			if all[i] != target {
				placement.Assign(all[i], "w0")
				placed++
			}
		}
		if got := len(placement.Chunks()); got != n {
			t.Fatalf("%d chunks placed, want %d", got, n)
		}
		pl := core.NewPlanner(reg, ix)
		pl.TopK = true
		pl.Router = New(reg, ix, stats, Config{Pruning: true})
		for _, sql := range []string{"SELECT * FROM Object WHERE objectId = 42", lv3} {
			sel, err := sqlparse.ParseSelect(sql)
			if err != nil {
				t.Fatal(err)
			}
			var p *core.Plan
			plan := func() {
				if p, err = pl.Plan(sel, placement.Chunks()); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, plan)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 20 {
				plan()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / 20
			if len(p.Chunks) != 1 || p.Chunks[0] != target || p.Route.Pruned != n-1 {
				t.Fatalf("%d placed, %s: routed to %v, %d pruned", n, sql, p.Chunks, p.Route.Pruned)
			}
			t.Logf("%d placed, %s: %.0f allocations, %.0f bytes", n, sql, allocs, bytes)
			// The race detector's own bookkeeping moves the byte count by a
			// few bytes: a cost per placed chunk moves it by kilobytes.
			if c, ok := cost[sql]; ok && (c[0] != allocs || math.Abs(c[1]-bytes) > c[1]/20) {
				t.Errorf("%s: %.0f allocations and %.0f bytes at %d placed, %.0f and %.0f at 94", sql, allocs, bytes, n, c[0], c[1])
			}
			cost[sql] = [2]float64{allocs, bytes}
		}
	}
}
