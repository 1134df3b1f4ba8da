package qserv

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// TestQueryAllocBudget is the end-to-end allocation ratchet: what one
// Cluster.Query costs, czar, fabric and workers together, for each class of
// the paper's workload, on a 4-worker cluster of 30 chunks with the result
// cache off. testing.AllocsPerRun repeats a query to within a few
// allocations, so the ceilings hold in tier-1 and, scaled by
// raceAllocFactor, under -race. A change that lowers a count lowers its
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
	for _, tc := range []struct {
		class, sql string
		rows       int
		ceiling    float64
	}{
		{"HV1", "SELECT COUNT(*) FROM Object", 1, 3680},
		{"HV3", "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY chunkId", 30, 4340},
		{"HV2s", "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 10.4", 20, 3950},
		{"LV1", fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", cat.Objects[4242].ObjectID), 1, 300},
	} {
		rows := -1
		allocs := testing.AllocsPerRun(5, func() {
			res, err := cl.Query(tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.class, err)
			}
			rows = len(res.Rows)
		})
		if rows != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.class, rows, tc.rows)
		}
		if ceiling := tc.ceiling * raceAllocFactor; allocs > ceiling {
			t.Errorf("%s: %.0f allocations per query, ceiling %.0f", tc.class, allocs, ceiling)
		}
	}
}
