package qserv

import (
	"fmt"
	"strings"
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

// gangLoad runs the statements at once on cl, whose workers have one slow
// scan slot each (slowScans), so that same-chunk jobs of different
// statements queue behind one another and start as gangs. It returns the
// answers in order.
func gangLoad(t *testing.T, cl *Cluster, sqls []string) []*Result {
	t.Helper()
	out := make([]*Result, len(sqls))
	errs := make([]error, len(sqls))
	var wg sync.WaitGroup
	for i, sql := range sqls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = cl.Query(sql)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", sqls[i], err)
		}
	}
	return out
}

// gangJoins sums, over cl's workers, the scan jobs that started in a gang
// another job led.
func gangJoins(cl *Cluster) (joins int) {
	for _, w := range cl.Workers {
		for _, r := range w.Reports() {
			joins += r.ConvoyJoins
		}
	}
	return joins
}

// TestSharedScanClusterEquivalence runs both query classes alone and then
// all at once — the full scans of a chunk starting as gangs over one read
// of it — and holds every answer, either way, to the single-node oracle.
func TestSharedScanClusterEquivalence(t *testing.T) {
	// The oracle is asked each statement without test_slow.
	queries := []string{
		// FullScan class.
		"SELECT COUNT(*) AS n FROM Object WHERE test_slow(zFlux_PS) > 1e-30",
		"SELECT objectId, ra_PS FROM Object WHERE test_slow(uFlux_PS) > 2.5e-31 AND decl_PS < 10",
		"SELECT AVG(test_slow(ra_PS)) AS m, COUNT(*) AS n FROM Object GROUP BY chunkId",
		// Interactive class.
		"SELECT * FROM Object WHERE objectId = 42",
		"SELECT objectId FROM Object WHERE objectId IN (1, 601, 1205)",
	}
	_, oracle := shared(t)
	cat, err := datagen.Generate(
		datagen.Config{Seed: 42, ObjectsPerPatch: 600, MeanSourcesPerObject: 3},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.WorkerSlots = 1      // scan-lane backlog, so gangs coalesce
	cfg.ResultCacheBytes = 0 // every run executes
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	slowScans(cl, time.Microsecond)

	var want []*Result
	for _, sql := range queries {
		w, err := oracle.Query(strings.NewReplacer("test_slow(", "(").Replace(sql))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("alone: %s: %v", sql, err)
		}
		sameAnswer(t, got, w, "alone "+sql)
		want = append(want, w)
	}
	if n := gangJoins(cl); n != 0 {
		t.Errorf("%d gang joins with one statement at a time", n)
	}
	for i, got := range gangLoad(t, cl, queries) {
		sameAnswer(t, got, want[i], "together "+queries[i])
	}
	if gangJoins(cl) == 0 {
		t.Error("three full scans at once over one scan slot per worker never formed a gang")
	}
}

// TestConcurrentScansShareReads is the cluster-level form of the worker's
// TestGangSharesOneMaterialization: under a memory budget that keeps no
// unpinned chunk resident, concurrent full scans read each chunk from its
// segments once per gang, not once per job. Identical statements share
// the same way, and only that way: each query's chunk query is a job of
// its own.
func TestConcurrentScansShareReads(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 900, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.WorkerSlots = 1 // scan-lane backlog, so gangs coalesce
	cfg.DataDir = t.TempDir()
	cfg.WorkerMemoryBudget = 1
	cfg.ResultCacheBytes = 0
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	slowScans(cl, time.Microsecond)
	stats := func() (mats, read int64, scans, gangs int) {
		for _, w := range cl.Workers {
			mats += w.ResidencyStats().Materializations
			read += w.ScanStats().BytesRead
			for _, r := range w.Reports() {
				if r.Class == core.FullScan {
					scans++
					gangs += 1 - r.ConvoyJoins
				}
			}
		}
		return
	}

	// round runs the statements at once and checks what they shared: a
	// gang keeps what its members pin until the last of them is done, so
	// it materializes its chunk at most once. It returns the answers and
	// the full-scan jobs run.
	round := func(name string, sqls []string) ([]*Result, int) {
		t.Helper()
		mats0, read0, scans0, gangs0 := stats()
		answers := gangLoad(t, cl, sqls)
		mats, read, scans, gangs := stats()
		mats, read, scans, gangs = mats-mats0, read-read0, scans-scans0, gangs-gangs0
		if gangs >= scans {
			t.Fatalf("%s: %d full-scan jobs in %d gangs: no two ever started together", name, scans, gangs)
		}
		if mats > int64(gangs) || mats >= int64(scans) {
			t.Errorf("%s: %d materializations for %d jobs in %d gangs; want at most one per gang", name, mats, scans, gangs)
		}
		if read == 0 {
			t.Errorf("%s: materializations read no bytes", name)
		}
		return answers, scans
	}

	const k = 6
	var sqls []string
	for i := 0; i < k; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > %g", 1e-31*float64(i+1)))
	}
	want, scans := round("distinct statements", sqls)

	// The first statement k times at once: as many jobs as k distinct
	// statements, sharing reads through gangs, each with the answer the
	// statement had alone in the round above.
	same := make([]string, k)
	for i := range same {
		same[i] = sqls[0]
	}
	got, sameScans := round("identical statements", same)
	if sameScans != scans {
		t.Errorf("%d identical full scans ran %d chunk jobs, %d distinct ones %d: every query's chunk query is its own job", k, sameScans, k, scans)
	}
	for i := range got {
		sameAnswer(t, got[i], want[0], fmt.Sprintf("identical statement %d", i))
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
