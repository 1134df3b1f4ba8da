package qserv

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// TestQueryAllocBudget is the end-to-end allocation ratchet: what one
// Cluster.Query costs, czar, fabric and workers together, for each class of
// the paper's workload, on a 4-worker cluster of 30 chunks with the result
// cache off, in allocations and in bytes. testing.AllocsPerRun repeats a
// query to within a few allocations and bytesPerRun to within a few hundred
// bytes, so the ceilings hold in tier-1 and, scaled by the race factors,
// under -race. A change that lowers a count lowers its
// ceiling with it; one that must raise a ceiling says why. It measures the
// in-memory path: a durable or budgeted worker's materializations are
// priced by the store's and the worker's own budgets.
func TestQueryAllocBudget(t *testing.T) {
	t.Setenv("QSERV_DATADIR", "")
	t.Setenv("QSERV_MEMBUDGET", "")
	cat, err := datagen.Generate(
		datagen.Config{Seed: 5, ObjectsPerPatch: 300, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.ResultCacheBytes = 0
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.Placement.Chunks()); n != 30 {
		t.Fatalf("the catalog spans %d chunks, the budgets are for 30", n)
	}
	obj := cat.Objects[4242]
	for _, tc := range []struct {
		class, sql string
		rows       int
		ceiling    float64 // allocations per query
		race       float64 // the ceiling's factor under -race
		bytes      float64 // bytes allocated per query
	}{
		{"HV1", "SELECT COUNT(*) FROM Object", 1, 2900, raceAllocFactor, 187.5e3},
		{"HV3", "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY chunkId", 30, 3690, raceAllocFactor, 310.5e3},
		{"HV2s", "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 10.4", 20, 3250, raceAllocFactor, 262.5e3},
		{"LV1", fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", obj.ObjectID), 1, 234, raceAllocFactor, 19.8e3},
		// The catalog has no Source rows: the dive finds the object's
		// chunk, whose Source table is empty.
		{"LV2", fmt.Sprintf("SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d", obj.ObjectID), 0, 272, raceAllocFactor, 23.1e3},
		// A one-degree box inside one chunk: the statement runs whole there.
		{"LV3", fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN %.4f AND %.4f AND decl_PS BETWEEN %.4f AND %.4f AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30",
			obj.RA-0.5, obj.RA+0.5, obj.Decl-0.5, obj.Decl+0.5), 1, 325, raceAllocFactor, 26.7e3},
		// The subchunk build draws on sync.Pools per row, which the race
		// detector empties at random: its own factor.
		{"SHV1", "SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(0, -10, 30, 10) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1", 1, 8760, racePoolAllocFactor, 740e3},
	} {
		rows := -1
		run := func() {
			res, err := cl.Query(tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.class, err)
			}
			rows = len(res.Rows)
			if tc.class == "LV3" && res.ChunksDispatched != 1 {
				t.Fatalf("LV3: %d chunks dispatched, want one", res.ChunksDispatched)
			}
		}
		allocs := testing.AllocsPerRun(5, run)
		bytes := bytesPerRun(5, run)
		t.Logf("%s: %.0f allocations, %.0f bytes per query", tc.class, allocs, bytes)
		if rows != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.class, rows, tc.rows)
		}
		if ceiling := tc.ceiling * tc.race; allocs > ceiling {
			t.Errorf("%s: %.0f allocations per query, ceiling %.0f", tc.class, allocs, ceiling)
		}
		if ceiling := tc.bytes * raceByteFactor; bytes > ceiling {
			t.Errorf("%s: %.0f bytes allocated per query, ceiling %.0f", tc.class, bytes, ceiling)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes one
// call of f allocates, on one P, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestIngestAllocBudget is the write side's allocation ratchet: what
// Cluster.Ingest costs per ingested row — partition pass, shipping lanes
// and the workers' batch application together — in allocations and in
// bytes, for the director table and its child table of a fixed catalog
// on a 4-worker cluster. It measures the in-memory path: a durable
// worker's store is priced by internal/chunkstore's own tests. A change
// that lowers a count lowers its ceiling with it; one that must raise a
// ceiling says why.
func TestIngestAllocBudget(t *testing.T) {
	t.Setenv("QSERV_DATADIR", "")
	t.Setenv("QSERV_MEMBUDGET", "")
	cat, err := datagen.Generate(
		datagen.Config{Seed: 5, ObjectsPerPatch: 300, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		table  string
		src    RowSource
		rows   int
		allocs float64 // allocations per row
		bytes  float64 // bytes allocated per row
	}{
		{"Object", objectSource(cat), len(cat.Objects), 13.3, 1245},
		{"Source", sourceSource(cat), len(cat.Sources), 8.8, 756},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := cl.Ingest(tc.table, tc.src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Rows) != tc.rows {
			t.Fatalf("%s: ingested %d rows, want %d", tc.table, st.Rows, tc.rows)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / float64(st.Rows)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(st.Rows)
		t.Logf("%s: %d rows, %.3f allocations and %.0f bytes per row", tc.table, st.Rows, allocs, bytes)
		if ceiling := tc.allocs * raceAllocFactor; allocs > ceiling {
			t.Errorf("%s: %.3f allocations per ingested row, ceiling %.3f", tc.table, allocs, ceiling)
		}
		if ceiling := tc.bytes * raceIngestByteFactor; bytes > ceiling {
			t.Errorf("%s: %.0f bytes allocated per ingested row, ceiling %.0f", tc.table, bytes, ceiling)
		}
	}
}
