package qserv

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	_ "repro/driver"
	"repro/internal/frontend"
)

// startFrontend serves a frontend over an existing cluster.
func startFrontend(t testing.TB, cl *Cluster, cfg FrontendConfig) *Frontend {
	t.Helper()
	f, err := cl.ServeFrontend("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFrontendDriverMatchesOracle runs real queries through the full
// stack — database/sql driver, wire protocol, frontend, czar, workers —
// and checks the answers against the single-node oracle.
func TestFrontendDriverMatchesOracle(t *testing.T) {
	cl, oracle := shared(t)
	f := startFrontend(t, cl, DefaultFrontendConfig())
	db, err := sql.Open("qserv", "qserv://tester@"+f.Addr()+"/LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, q := range []string{
		"SELECT COUNT(*) FROM Object",
		"SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > 2.5e-31 AND decl_PS < 10",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 7",
		// The paper's HV3: six partial-aggregate columns at the workers,
		// four in the answer. The header must name the four.
		"SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId",
		// An ORDER BY key outside the select list travels as a hidden
		// worker column the header must not name either.
		"SELECT objectId FROM Object ORDER BY ra_PS + decl_PS LIMIT 5",
	} {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cols, err := rows.Columns()
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{Cols: cols}
		for rows.Next() {
			vals := make([]any, len(cols))
			ptrs := make([]any, len(cols))
			for i := range vals {
				ptrs[i] = &vals[i]
			}
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatal(err)
			}
			got.Rows = append(got.Rows, vals)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, "driver "+q)
		if strings.Join(cols, ",") != strings.Join(want.Cols, ",") {
			t.Errorf("%s: header names %v, oracle %v", q, cols, want.Cols)
		}
	}

	// Placeholder point query (the interactive shape of the bench).
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM Object WHERE objectId = ?", 42).Scan(&n); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query("SELECT COUNT(*) FROM Object WHERE objectId = 42")
	if err != nil {
		t.Fatal(err)
	}
	if n != want.Rows[0][0].(int64) {
		t.Errorf("point query = %d, oracle %d", n, want.Rows[0][0])
	}
}

// TestFrontendStreamsBeforeScanCompletes proves the v2 promise on a
// real cluster: a pass-through scan's first row reaches the client
// while the czar still reports the query in flight.
func TestFrontendStreamsBeforeScanCompletes(t *testing.T) {
	cl := scanCluster(t)
	f := startFrontend(t, cl, DefaultFrontendConfig())
	c, err := frontend.Dial(f.Addr(), "astro", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowScans(cl, 10*time.Microsecond)
	st, err := c.Query(context.Background(), "SELECT objectId FROM Object WHERE test_slow(uFlux_PS) > 1e-31")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("no first row: %v", st.Err())
	}
	// The first row is in hand; is the query still running server-side?
	inFlight := false
	for _, qi := range cl.Running() {
		if !qi.Done && qi.ChunksCompleted < qi.ChunksTotal {
			inFlight = true
		}
	}
	var rest int64
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		rest++
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if !inFlight {
		// Legal but useless on a fast machine; only fail when the result
		// was big enough that buffering would have been observable.
		if rest > 1000 {
			t.Errorf("first row only arrived after the scan completed (%d rows)", rest+1)
		} else {
			t.Skip("scan finished before the first row was read; cluster too fast for this machine")
		}
	}
}

// TestFrontendDisconnectKillsQueryEndToEnd is the dropped-connection
// acceptance test: closing the client socket mid-scan must kill the
// query in the czar's registry AND free the workers' scan slots (the
// PR 3 cancellation path, now triggered by a disconnect instead of an
// explicit Cancel).
func TestFrontendDisconnectKillsQueryEndToEnd(t *testing.T) {
	cl := scanCluster(t)
	f := startFrontend(t, cl, DefaultFrontendConfig())
	c, err := frontend.Dial(f.Addr(), "astro", "LSST")
	if err != nil {
		t.Fatal(err)
	}

	slowScans(cl, 10*time.Microsecond)
	if _, err := c.Query(context.Background(), "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 2e-31"); err != nil {
		t.Fatal(err)
	}
	// Wait until the query is genuinely mid-flight on the workers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var mid bool
		for _, qi := range cl.Running() {
			if qi.ChunksCompleted >= 2 && qi.ChunksCompleted < qi.ChunksTotal {
				mid = true
			}
		}
		if mid {
			break
		}
		if len(cl.Running()) == 0 {
			t.Skip("query finished before the disconnect; cluster too fast for this machine")
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never mid-flight: %+v", cl.Running())
		}
		time.Sleep(100 * time.Microsecond)
	}

	c.Close() // the client vanishes — no Cancel, no KILL, just a dead socket

	// The czar's registry drains: the disconnect killed the query.
	for len(cl.Running()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("query still registered after disconnect: %+v", cl.Running())
		}
		time.Sleep(time.Millisecond)
	}

	// And the workers' scan slots actually free (the whole point of
	// end-to-end cancellation: a dead client's scans are interrupted).
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
			t.Fatal("worker slots never reclaimed after disconnect")
		}
		time.Sleep(time.Millisecond)
	}

	// The kill reached workers mid-execution or in-queue (informational,
	// as in TestCancelMidScanReclaimsSlots: a fast dequeue is also a
	// valid kill).
	canceledReports := 0
	for _, w := range cl.Workers {
		for _, r := range w.Reports() {
			if r.Err != nil && errors.Is(r.Err, context.Canceled) {
				canceledReports++
			}
		}
	}
	if canceledReports == 0 {
		t.Log("no chunk query was mid-execution at disconnect (all dequeued); still a valid kill")
	}

	// The frontend's admission slot was released too.
	slotDeadline := time.Now().Add(5 * time.Second)
	for f.Stats().Active != 0 {
		if time.Now().After(slotDeadline) {
			t.Fatalf("admission slot leaked after disconnect: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontendShedsOverQuota: per-user quota shedding through the
// public API, with SHOW FRONTEND visibility. A session only occupies
// its quota slot while the query executes, and a warm scan can finish
// before a sequenced second query would arrive — so the hold scan runs
// (start to full drain) in a goroutine while probes fire concurrently,
// and an attempt where the scan won the race retries with a fresh one.
func TestFrontendShedsOverQuota(t *testing.T) {
	cl := scanCluster(t)
	f := startFrontend(t, cl, FrontendConfig{MaxSessions: 8, PerUserSessions: 1, SessionQueueDepth: 4})

	hold, err := frontend.Dial(f.Addr(), "greedy", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	prober, err := frontend.Dial(f.Addr(), "greedy", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer prober.Close()

	for attempt := 0; attempt < 8; attempt++ {
		done := make(chan error, 1)
		go func(sql string) {
			st, qerr := hold.Query(context.Background(), sql)
			if qerr != nil {
				done <- qerr
				return
			}
			for {
				if _, ok := st.Next(); !ok {
					break
				}
			}
			done <- st.Err()
		}(fmt.Sprintf("SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 2e-31 AND decl_PS > %d", -91-attempt))

		shed := false
		for !shed {
			select {
			case herr := <-done:
				// Hold finished before a probe landed, or was itself shed
				// because a probe won the slot race (equally over-quota).
				if herr != nil && !frontend.IsBusy(herr) {
					t.Fatal(herr)
				}
				done = nil
			default:
			}
			if done == nil {
				break // retry with a fresh scan
			}
			start := time.Now()
			st, qerr := prober.Query(context.Background(), "SELECT COUNT(*) FROM Object")
			if qerr == nil {
				// The slot was free at that instant; drain and re-probe.
				for {
					if _, ok := st.Next(); !ok {
						break
					}
				}
				if err := st.Err(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if !frontend.IsBusy(qerr) {
				t.Fatalf("over-quota query err = %v, want busy", qerr)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("shed took %v, want fast rejection", d)
			}
			shed = true
		}
		if !shed {
			continue
		}
		if herr := <-done; herr != nil && !frontend.IsBusy(herr) {
			t.Fatal(herr)
		}
		if st := f.Stats(); st.Shed == 0 {
			t.Errorf("stats = %+v, want Shed > 0", st)
		}
		return
	}
	t.Skip("every hold scan finished before a probe could land; quota not exercisable at this size")
}
