package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	qserv "repro"
	"repro/internal/frontend"
)

// ask runs one checked statement over a client connection — the whole
// answer is compared against the oracle's — and returns its first-row and
// completion latencies.
func ask(f *fixture, cli *frontend.Client, label, sql string) (first, total time.Duration) {
	t0 := time.Now()
	st, err := cli.Query(context.Background(), sql)
	if err != nil {
		f.count(label, sql, nil, false, 0, err)
		return 0, 0
	}
	var rows [][]any
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		if rows == nil {
			first = time.Since(t0)
		}
		rows = append(rows, row)
	}
	total = time.Since(t0)
	f.count(label, sql, renderRows(rows, ordered(sql)), false, 0, st.Err())
	return first, total
}

// runFrontend measures the connection-scale frontend on a live cluster —
// the only place in the repository that many sessions are ever open at
// once — in two phases.
//
// Connection storm: -conns (default 1000) concurrent connections, spread
// over distinct users, each running checked interactive point queries
// behind one start gun while two full scans stream concurrently. Every
// session executes (the czar's own hit counter is what says so: a client
// row stream does not carry the cache disposition). Recorded: first-row
// and completion latency of the interactive class, scan completion.
//
// Admission shedding: with PerUserSessions = 1, a user whose one session is
// streaming a scan must have further sessions rejected with "busy", each
// within a second — shedding, not queue collapse.
func runFrontend(c *benchCtx) error {
	f, err := newFixture(c, 100+c.objects*8)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(2)
	cfg.WorkerSlots = 2
	cl, err := f.cluster(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Both phases watch a scan in flight, so how long a scan lasts is set
	// here and not left to the engine.
	slowScans(cl, 500*time.Microsecond)
	scanSQL := "SELECT objectId, ra_PS FROM Object WHERE test_slow(uFlux_PS) > 1e-31"
	stormScans := []string{scanSQL + " AND decl_PS > -91", scanSQL + " AND decl_PS > -92"}
	const nPoints = 32
	pointSQL := make([]string, nPoints)
	for i := range pointSQL {
		id := f.cat.Objects[(i*2909)%len(f.cat.Objects)].ObjectID
		pointSQL[i] = fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = %d", id)
	}
	if err := f.expect(append(append(pointSQL, stormScans...), scanSQL)...); err != nil {
		return err
	}

	// ---- connection storm ----
	conns := raiseNoFile(c, c.conns)
	// Sessions sized so legitimate load never queues: admission pressure is
	// the shed phase's subject, not this one's.
	fe, err := cl.ServeFrontend("127.0.0.1:0", qserv.FrontendConfig{MaxSessions: conns + 16, SessionQueueDepth: 64})
	if err != nil {
		return err
	}
	defer fe.Close()
	nUsers := min(50, conns)
	clients := make([]*frontend.Client, conns)
	defer func() {
		for _, cli := range clients {
			if cli != nil {
				cli.Close()
			}
		}
	}()
	for i := range clients {
		if clients[i], err = frontend.Dial(fe.Addr(), fmt.Sprintf("u%03d", i%nUsers), "LSST"); err != nil {
			return fmt.Errorf("frontend: dial %d/%d: %w", i, conns, err)
		}
	}
	var wg sync.WaitGroup
	scanDur := make([]time.Duration, len(stormScans))
	for s, sql := range stormScans {
		wg.Add(1)
		go func(s int, sql string) {
			defer wg.Done()
			cli, err := frontend.Dial(fe.Addr(), "scanner", "LSST")
			if err != nil {
				f.count("storm scan", sql, nil, false, 0, err)
				return
			}
			defer cli.Close()
			_, scanDur[s] = ask(f, cli, "storm scan", sql)
		}(s, sql)
	}
	const perConn = 2
	firsts := make([]time.Duration, conns*perConn)
	totals := make([]time.Duration, conns*perConn)
	startGun := make(chan struct{})
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-startGun
			for j := 0; j < perConn; j++ {
				k := i*perConn + j
				firsts[k], totals[k] = ask(f, clients[i], "storm", pointSQL[k%nPoints])
			}
		}(i)
	}
	close(startGun)
	wg.Wait()
	// The czar says how many of the sessions it answered from its cache.
	f.cached = cl.Status().Cache.Hits
	slowScan := max(scanDur[0], scanDur[1])
	c.printf("  storm: %d connections x %d point queries over %d users, %d full scans (%d rows each) concurrent\n",
		conns, perConn, nUsers, len(stormScans), len(f.wants[scanSQL]))
	c.printf("  interactive first-row   p50 %v  p99 %v\n",
		percentile(firsts, 50).Round(time.Microsecond), percentile(firsts, 99).Round(time.Microsecond))
	c.printf("  interactive completion  p50 %v  p99 %v\n",
		percentile(totals, 50).Round(time.Microsecond), percentile(totals, 99).Round(time.Microsecond))
	c.printf("  full scans completed in %v, %v\n", scanDur[0].Round(time.Millisecond), scanDur[1].Round(time.Millisecond))
	c.metric("connections", float64(conns))
	c.metric("interactive_first_row_p50_ms", ms(percentile(firsts, 50)))
	c.metric("interactive_first_row_p99_ms", ms(percentile(firsts, 99)))
	c.metric("interactive_completion_p99_ms", ms(percentile(totals, 99)))
	c.metric("scan_completion_ms", ms(slowScan))

	// ---- admission shedding ----
	shed, maxShed, err := shedPhase(f, cl, scanSQL)
	if err != nil {
		return err
	}
	c.printf("  shedding: %d over-quota sessions rejected busy, slowest in %v\n", shed, maxShed.Round(time.Microsecond))
	c.metric("sessions_shed", float64(shed))
	c.metric("shed_max_ms", ms(maxShed))
	f.verdict()
	c.gate("shed_within_1s", maxShed <= time.Second, "slowest busy rejection took %v", maxShed)
	return nil
}

// shedPhase starts a quota-1 frontend, lets user "greedy" hold the one
// slot with a streaming scan (its first row has arrived, so it is admitted
// and running), and sends over-quota sessions of the same user: each must
// be rejected with a busy error. It returns their count and the slowest.
func shedPhase(f *fixture, cl *qserv.Cluster, scanSQL string) (shed int, maxShed time.Duration, err error) {
	fe, err := cl.ServeFrontend("127.0.0.1:0", qserv.FrontendConfig{
		MaxSessions: 8, PerUserSessions: 1, SessionQueueDepth: 2,
	})
	if err != nil {
		return 0, 0, err
	}
	defer fe.Close()
	hold, err := frontend.Dial(fe.Addr(), "greedy", "LSST")
	if err != nil {
		return 0, 0, err
	}
	defer hold.Close()
	prober, err := frontend.Dial(fe.Addr(), "greedy", "LSST")
	if err != nil {
		return 0, 0, err
	}
	defer prober.Close()

	st, err := hold.Query(context.Background(), scanSQL)
	if err != nil {
		return 0, 0, fmt.Errorf("hold query: %w", err)
	}
	row, ok := st.Next()
	if !ok {
		return 0, 0, fmt.Errorf("hold query returned no rows: %v", st.Err())
	}
	for ; shed < 3; shed++ {
		t0 := time.Now()
		_, qerr := prober.Query(context.Background(), "SELECT COUNT(*) FROM Object")
		maxShed = max(maxShed, time.Since(t0))
		if !frontend.IsBusy(qerr) {
			return 0, 0, fmt.Errorf("over-quota session got %v, want a busy rejection", qerr)
		}
	}
	// The hold was not disturbed: the rest of its answer is the oracle's.
	rows := [][]any{row}
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		rows = append(rows, row)
	}
	f.count("shed hold", scanSQL, renderRows(rows, false), false, 0, st.Err())
	if got := fe.Stats().Shed; int(got) < shed {
		return 0, 0, fmt.Errorf("SHOW FRONTEND reports %d shed, observed %d", got, shed)
	}
	return shed, maxShed, nil
}

// raiseNoFile lifts RLIMIT_NOFILE high enough for want client connections
// (each one costs a client and a server fd, plus slack for the cluster
// itself); when the hard limit is lower, the storm is clamped and says so,
// instead of dying on EMFILE mid-run.
func raiseNoFile(c *benchCtx, want int) int {
	need := uint64(2*want + 256)
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		c.printf("  note: getrlimit failed (%v); keeping %d connections\n", err, want)
		return want
	}
	if rl.Cur < need {
		raised := rl
		raised.Cur = min(need, raised.Max)
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised); err == nil {
			rl = raised
		}
	}
	if rl.Cur < need {
		clamped := max(1, (int(rl.Cur)-256)/2)
		c.printf("  note: RLIMIT_NOFILE=%d caps the storm at %d connections (asked for %d)\n", rl.Cur, clamped, want)
		return clamped
	}
	return want
}
