package qserv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
)

// TestQueryClassification checks the czar reports the scheduling class
// the planner assigned: index dives are interactive, full-sky filters
// are scans.
func TestQueryClassification(t *testing.T) {
	cl, _ := shared(t)
	got, err := cl.Query("SELECT * FROM Object WHERE objectId = 42")
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != ClassInteractive {
		t.Errorf("objectId dive class = %v, want Interactive", got.Class)
	}
	got, err = cl.Query("SELECT COUNT(*) AS n FROM Object WHERE zFlux_PS > 1e-30")
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != ClassFullScan {
		t.Errorf("full-sky filter class = %v, want FullScan", got.Class)
	}
}

// TestSharedScanClusterEquivalence runs both query classes through the
// live shared-scan path (DefaultClusterConfig enables SharedScans) and
// through a sharing-disabled cluster, comparing all answers to the
// single-node oracle.
func TestSharedScanClusterEquivalence(t *testing.T) {
	queries := []string{
		// FullScan class.
		"SELECT COUNT(*) AS n FROM Object WHERE zFlux_PS > 1e-30",
		"SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > 2.5e-31 AND decl_PS < 10",
		"SELECT AVG(ra_PS) AS m, COUNT(*) AS n FROM Object GROUP BY chunkId",
		// Interactive class.
		"SELECT * FROM Object WHERE objectId = 42",
		"SELECT objectId FROM Object WHERE objectId IN (1, 601, 1205)",
	}

	cl, oracle := shared(t)
	for _, sql := range queries {
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("shared-scan cluster: %s: %v", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, "shared "+sql)
	}
	// The full scans above must actually have used convoys.
	var bytesRead, scansLogical int64
	for _, w := range cl.Workers {
		bytesRead += w.ScanStats().BytesRead
		for _, r := range w.Reports() {
			scansLogical += r.Stats.SharedSeqBytes
		}
	}
	if bytesRead == 0 || scansLogical == 0 {
		t.Errorf("live path bypassed shared scans: physical=%d logical=%d", bytesRead, scansLogical)
	}

	// Same queries with sharing disabled must agree too.
	cat, err := datagen.Generate(
		datagen.Config{Seed: 42, ObjectsPerPatch: 600, MeanSourcesPerObject: 3},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.SharedScans = false
	plain, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	if err := plain.Load(cat); err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		got, err := plain.Query(sql)
		if err != nil {
			t.Fatalf("plain cluster: %s: %v", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, "plain "+sql)
	}
}

// TestConcurrentScansShareReads runs concurrent full-scan queries over
// the live cluster path and checks the physical bytes the convoys read
// stay below what independent scans would have cost.
func TestConcurrentScansShareReads(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 900, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.WorkerSlots = 2 // force scan-lane backlog so gangs coalesce
	cfg.ScanPieceRows = 128
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}

	const k = 6
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct predicates: identical payloads would dedupe at
			// the worker instead of convoying.
			sql := fmt.Sprintf("SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > %g", 1e-31*float64(i+1))
			_, errs[i] = cl.Query(sql)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}

	var physical, logical, saved int64
	for _, w := range cl.Workers {
		st := w.ScanStats()
		physical += st.BytesRead
		saved += st.ScansSaved
		for _, r := range w.Reports() {
			logical += r.Stats.SharedSeqBytes
		}
	}
	if saved == 0 {
		t.Error("no convoy ever shared an in-flight scan")
	}
	if physical >= logical {
		t.Errorf("shared scans read %d bytes, independent would read %d; no savings", physical, logical)
	}
}

// TestInteractiveLatencyUnderScanLoad is the cluster-level version of
// the scheduler guarantee: interactive queries answered while >= 4
// scans run must not inherit scan queue waits.
func TestInteractiveLatencyUnderScanLoad(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 11, ObjectsPerPatch: 900, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.WorkerSlots = 1 // scan gangs serialize; queues form
	cfg.ScanPieceRows = 128
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	// The scans' length is the test's to set, not the engine's: each takes
	// about 20 ms of its workers' one scan slot, the six dives about one.
	slowScans(cl, time.Microsecond)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM Object WHERE fluxToAbMag(test_slow(uFlux_PS)) - fluxToAbMag(gFlux_PS) > %d.25", -i)
			if _, err := cl.Query(sql); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Interactive dives while the scans are in flight.
	for i := 0; i < 6; i++ {
		if _, err := cl.Query(fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", 1+i*17)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	var intWaits, scanWaits []time.Duration
	for _, w := range cl.Workers {
		for _, r := range w.Reports() {
			if r.Err != nil {
				continue
			}
			switch r.Class {
			case core.Interactive:
				intWaits = append(intWaits, r.QueueWait())
			case core.FullScan:
				scanWaits = append(scanWaits, r.QueueWait())
			}
		}
	}
	if len(intWaits) == 0 || len(scanWaits) == 0 {
		t.Fatalf("report split = %d interactive / %d scan", len(intWaits), len(scanWaits))
	}
	worstInt := maxDuration(intWaits)
	worstScan := maxDuration(scanWaits)
	// Interactive jobs never share a lane with scans, so even the worst
	// interactive wait must undercut the worst scan wait.
	if worstInt >= worstScan {
		t.Errorf("worst interactive wait %v >= worst scan wait %v", worstInt, worstScan)
	}
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
