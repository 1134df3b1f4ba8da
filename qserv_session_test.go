package qserv

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/sqlengine"
)

// scanCluster builds a small cluster whose scan backlog makes mid-
// flight cancellation deterministic: 2 workers x 1 scan slot over many
// chunks.
func scanCluster(t testing.TB) *Cluster {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 900, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.WorkerSlots = 1
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	return cl
}

// slowScans makes scan length a parameter of the test instead of a
// property of the engine: every worker engine gets an identity UDF,
// test_slow, that costs perRow per call, and a test that must catch a scan
// mid-flight wraps a column of its statement in it (an oracle is asked the
// statement without it). The window such a test polls for then stays open
// however fast a bare scan becomes.
func slowScans(cl *Cluster, perRow time.Duration) {
	for _, w := range cl.Workers {
		w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(perRow))
	}
}

// TestSubmitWaitMatchesQuery is the API-equivalence oracle: for every
// query shape, Submit+Wait must produce exactly what the synchronous
// Query wrapper produces, and both must match the single-node oracle.
func TestSubmitWaitMatchesQuery(t *testing.T) {
	cl, oracle := shared(t)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM Object",
		"SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > 2.5e-31 AND decl_PS < 10",
		"SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY chunkId",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 7",
		"SELECT * FROM Object WHERE objectId = 42",
	} {
		q, err := cl.Submit(context.Background(), sql)
		if err != nil {
			t.Fatalf("Submit(%q): %v", sql, err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("Wait(%q): %v", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, res, want, "session "+sql)
		p := q.Progress()
		if !p.Done || p.ChunksCompleted != p.ChunksTotal || p.ChunksTotal != res.ChunksDispatched {
			t.Errorf("%s: inconsistent terminal progress %+v vs %d dispatched", sql, p, res.ChunksDispatched)
		}
		if res.ID != q.ID() || res.ID == 0 {
			t.Errorf("%s: result id %d, handle id %d", sql, res.ID, q.ID())
		}
	}
}

// TestRowsStreamDeliversEveryRow drains the streaming iterator of a
// pass-through scan and checks it delivers exactly the final result's
// multiset of rows.
func TestRowsStreamDeliversEveryRow(t *testing.T) {
	cl, oracle := shared(t)
	sql := "SELECT objectId FROM Object WHERE uFlux_PS > 2.5e-31"
	q, err := cl.Submit(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	it := q.Rows()
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		counts[row[0].(int64)]++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(want.Rows) {
		t.Fatalf("streamed %d distinct rows, oracle has %d", len(counts), len(want.Rows))
	}
	for _, r := range want.Rows {
		if counts[r[0].(int64)] != 1 {
			t.Fatalf("row %v streamed %d times", r, counts[r[0].(int64)])
		}
	}
	// The rows had one reader: a second iterator gets none.
	it2 := q.Rows()
	if _, ok := it2.Next(); ok || !errors.Is(it2.Err(), ErrRowsTaken) {
		t.Errorf("second iterator: a row %v, err %v; want ErrRowsTaken", ok, it2.Err())
	}
}

// TestCancelMidScanReclaimsSlots is the acceptance criterion end to
// end: a full-scan query canceled mid-flight stops consuming worker
// scan slots, Wait returns context.Canceled, and a sibling query scanning
// the same chunks is unaffected.
func TestCancelMidScanReclaimsSlots(t *testing.T) {
	cl := scanCluster(t)
	oracle, err := lsstOracle(mustCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	slowScans(cl, 10*time.Microsecond)
	survivorSQL := "SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31"
	survivor, err := cl.Submit(context.Background(), "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 1e-31")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := cl.Submit(context.Background(), "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 2e-31")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := victim.Progress()
		if p.ChunksCompleted >= 2 && p.ChunksCompleted < p.ChunksTotal {
			break
		}
		if p.Done {
			t.Skip("victim finished before it could be canceled; cluster too fast for this machine")
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never mid-flight: %+v", p)
		}
		time.Sleep(100 * time.Microsecond)
	}
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after Cancel = %v, want context.Canceled", err)
	}
	if p := victim.Progress(); !p.Done {
		t.Error("canceled query not Done")
	}

	// The survivor finishes and matches the oracle: the sibling's kill
	// reached no gang-mate.
	res, err := survivor.Wait(context.Background())
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	want, err := oracle.Query(survivorSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != want.Rows[0][0].(int64) {
		t.Errorf("survivor = %v, oracle = %v", res.Rows[0][0], want.Rows[0][0])
	}

	// Slots reclaimed: with the victim dead and the survivor done,
	// every worker drains to zero active jobs and empty queues.
	reclaimed := func() bool {
		for _, w := range cl.Workers {
			if w.ActiveJobs() != 0 || w.QueueLen() != 0 {
				return false
			}
		}
		return true
	}
	for !reclaimed() {
		if time.Now().After(deadline) {
			for _, w := range cl.Workers {
				i, s := w.QueueLens()
				t.Logf("%s: active=%d queues=%d/%d", w.Name(), w.ActiveJobs(), i, s)
			}
			t.Fatal("worker slots never reclaimed after cancel")
		}
		time.Sleep(time.Millisecond)
	}

	// The kill actually reached workers mid-execution or in-queue:
	// fewer chunk executions than the victim's chunk fan-out.
	canceledReports := 0
	for _, w := range cl.Workers {
		for _, r := range w.Reports() {
			if r.Err != nil && errors.Is(r.Err, context.Canceled) {
				canceledReports++
			}
		}
	}
	if canceledReports == 0 {
		t.Log("no chunk query was mid-execution at cancel (all dequeued); still a valid kill")
	}
}

func mustCatalog(t testing.TB) *datagen.Catalog {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 900, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCancelDuringMergeLeaksNoGoroutines cancels many queries at random
// points of their dispatch/merge pipelines and checks the process
// returns to its goroutine baseline — no dispatch goroutine, merge
// folder, or session waiter survives its query.
func TestCancelDuringMergeLeaksNoGoroutines(t *testing.T) {
	cl := scanCluster(t)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		var qs []*Query
		for i := 0; i < 4; i++ {
			q, err := cl.Submit(context.Background(),
				fmt.Sprintf("SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > %g", 1e-31*float64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		// Cancel at staggered moments: immediately, after first merge,
		// and let some complete.
		qs[0].Cancel()
		for qs[1].Progress().ChunksCompleted == 0 && !qs[1].Progress().Done {
			time.Sleep(50 * time.Microsecond)
		}
		qs[1].Cancel()
		for _, q := range qs {
			_, err := q.Wait(context.Background())
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	// Goroutines wind down asynchronously after Wait returns.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineOption: an unmeetable per-query deadline surfaces as
// context.DeadlineExceeded from Wait.
func TestDeadlineOption(t *testing.T) {
	cl := scanCluster(t)
	q, err := cl.Submit(context.Background(),
		"SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31",
		WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want context.DeadlineExceeded", err)
	}
}

// TestSubmitContextCancelPropagates: canceling the submission context
// is equivalent to Cancel.
func TestSubmitContextCancelPropagates(t *testing.T) {
	cl := scanCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	q, err := cl.Submit(ctx, "SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1.5e-31")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := q.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestQueryOptionsOverride exercises the per-query knobs against the
// oracle: a class hint, with and without a deadline, preserves answers.
func TestQueryOptionsOverride(t *testing.T) {
	cl, oracle := shared(t)
	sql := "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 5"
	for _, opts := range [][]QueryOption{
		{WithClass(ClassInteractive)},
		{WithDeadline(time.Minute), WithClass(ClassFullScan)},
	} {
		q, err := cl.Submit(context.Background(), sql, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("%d rows, want %d", len(res.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if res.Rows[i][0].(int64) != want.Rows[i][0].(int64) {
				t.Fatalf("row %d: %v vs %v", i, res.Rows[i], want.Rows[i])
			}
		}
	}
	// Class hint really changes the wire class.
	q, err := cl.Submit(context.Background(),
		"SELECT COUNT(*) FROM Object WHERE decl_PS > 1000", WithClass(ClassInteractive))
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassInteractive {
		t.Errorf("class hint ignored: %v", res.Class)
	}
}

// TestRunningAndKill covers the registry: a mid-flight query is listed
// with its class and progress, Kill cancels it, and finished queries
// unregister. The scan is slowed (slowScans), so it is still in flight
// when it is listed however fast a bare scan is.
func TestRunningAndKill(t *testing.T) {
	cl := scanCluster(t)
	slowScans(cl, 10*time.Microsecond)
	q, err := cl.Submit(context.Background(), "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 2.5e-31")
	if err != nil {
		t.Fatal(err)
	}
	infos := cl.Running()
	var found *QueryInfo
	for i := range infos {
		if infos[i].ID == q.ID() {
			found = &infos[i]
		}
	}
	if found == nil {
		t.Fatalf("query %d not listed in %+v", q.ID(), infos)
	}
	if found.Class != ClassFullScan || !strings.Contains(found.SQL, "uFlux_PS") {
		t.Errorf("listed info wrong: %+v", found)
	}
	if !cl.Kill(q.ID()) {
		t.Fatal("Kill found nothing")
	}
	if _, err := q.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after Kill = %v", err)
	}
	// Unregistered once finished.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(cl.Running()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("finished query still listed: %+v", cl.Running())
		}
		time.Sleep(time.Millisecond)
	}
	if cl.Kill(q.ID()) {
		t.Error("Kill of a finished query reported true")
	}
}

// TestCloseCancelsInFlightAndIsIdempotent: Close drains in-flight
// queries (they fail, not hang), rejects new submissions, and can be
// called repeatedly and concurrently.
func TestCloseCancelsInFlightAndIsIdempotent(t *testing.T) {
	cl := scanCluster(t)
	var qs []*Query
	for i := 0; i < 3; i++ {
		q, err := cl.Submit(context.Background(),
			fmt.Sprintf("SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > %g", 1e-31*float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); cl.Close() }()
	}
	wg.Wait()
	for _, q := range qs {
		// Each in-flight query ended — either completed before the
		// close or canceled by it; none may hang.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := q.Wait(ctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("query hung across Close")
		}
	}
	if _, err := cl.Submit(context.Background(), "SELECT COUNT(*) FROM Object"); err == nil {
		t.Error("Submit after Close succeeded")
	}
	cl.Close() // idempotent (also exercised by t.Cleanup)
}

// TestCancelLocalQuery: even czar-local (unpartitioned-table) queries
// honor the kill — a canceled session never hands out its result.
func TestCancelLocalQuery(t *testing.T) {
	cl := scanCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := cl.Submit(ctx, "SELECT * FROM Filter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("local query Wait = %v, want context.Canceled", err)
	}
	// Un-canceled local queries still answer.
	res, err := cl.Query("SELECT COUNT(*) FROM Filter")
	if err != nil || res.Rows[0][0].(int64) != 6 {
		t.Fatalf("local query broken: %v %v", res, err)
	}
}
