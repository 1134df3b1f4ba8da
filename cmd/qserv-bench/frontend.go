package main

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"syscall"
	"time"

	qserv "repro"
	"repro/internal/datagen"
	"repro/internal/frontend"
	"repro/internal/sqlengine"
)

var connsFlag = flag.Int("conns", 1000, "concurrent v2 connections in the frontend storm")

// runFrontendBench measures the connection-scale frontend end to end on
// a real (scaled-down) cluster, in three phases:
//
//  1. Streaming decoupling (hard gate): a large pass-through scan's
//     first row must reach a v2 client while the czar still reports the
//     scan mid-flight — the row-count-free framing means first-row
//     latency does not depend on result size.
//  2. Connection storm: -conns (default 1000) concurrent v2
//     connections, spread over distinct users, each running
//     oracle-checked interactive point queries open-loop while full
//     scans stream concurrently. Reported: p50/p99 first-row and
//     completion latency for the interactive class, scan completion for
//     the scan class. Hard gates: zero errors, zero wrong answers.
//  3. Admission shedding (hard gate): with PerUserSessions=1, a user
//     holding a streaming scan must have further sessions rejected with
//     a fast "busy" error — shedding, not queue collapse.
func runFrontendBench(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 100 + *objectsFlag*8, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(2)
	cfg.WorkerSlots = 2
	cfg.ScanPieceRows = 64 // many piece boundaries: scans take observable time
	cl, err := qserv.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		return err
	}
	oracle, err := qserv.NewOracle(cfg)
	if err != nil {
		return err
	}
	if err := oracle.Load(cat); err != nil {
		return err
	}

	conns := raiseNoFile(*connsFlag)
	// Every gate below watches a scan in flight, so how long a scan lasts
	// is set here and not left to the engine: each row pays scanRowDelay
	// in an identity UDF the workers carry. The oracle is asked the same
	// statement without it.
	const scanRowDelay = 500 * time.Microsecond
	for _, w := range cl.Workers {
		w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(scanRowDelay))
	}
	scanSQL := "SELECT objectId, ra_PS FROM Object WHERE test_slow(uFlux_PS) > 1e-31"
	scanWant, err := oracle.Query("SELECT objectId, ra_PS FROM Object WHERE uFlux_PS > 1e-31")
	if err != nil {
		return err
	}

	// The storm frontend: sessions sized so legitimate load never
	// queues — admission pressure is phase 3's subject, not this one's.
	f, err := cl.ServeFrontend("127.0.0.1:0", qserv.FrontendConfig{
		MaxSessions: conns + 16, SessionQueueDepth: 64,
	})
	if err != nil {
		return err
	}
	defer f.Close()

	fmt.Printf("claim (frontend PR): v2 streams rows before scans complete, %d concurrent sessions answer correctly, over-quota sessions shed fast\n", conns)

	// ---- phase 1: streaming decoupling ----
	streamVerdict, err := func() (string, error) {
		c, err := frontend.Dial(f.Addr(), "stream-probe", "LSST")
		if err != nil {
			return "", err
		}
		defer c.Close()
		start := time.Now()
		st, err := c.Query(context.Background(), scanSQL)
		if err != nil {
			return "", err
		}
		if _, ok := st.Next(); !ok {
			return "", fmt.Errorf("frontend: scan returned no rows: %v", st.Err())
		}
		tFirst := time.Since(start)
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
			return "", st.Err()
		}
		tDone := time.Since(start)
		total := rest + 1
		if total != int64(len(scanWant.Rows)) {
			return "", fmt.Errorf("frontend: scan streamed %d rows, oracle has %d", total, len(scanWant.Rows))
		}
		fmt.Printf("  streaming: %d rows; first row %v, complete %v; mid-flight at first row: %v\n",
			total, tFirst.Round(time.Microsecond), tDone.Round(time.Millisecond), inFlight)
		if !inFlight {
			if total > 1000 {
				return "", fmt.Errorf("frontend: first row of a %d-row scan only arrived after the scan completed", total)
			}
			return "warn", nil // result too small for the gate to mean anything
		}
		return "ok", nil
	}()
	if err != nil {
		fmt.Printf("  RESULT: FAIL — streaming decoupling: %v\n", err)
		return err
	}

	// ---- phase 2: connection storm ----
	// Distinct point queries with precomputed oracle answers; every
	// connection's every answer is checked.
	const nPoints = 32
	pointSQL := make([]string, nPoints)
	pointWant := make([][]string, nPoints)
	for i := range pointSQL {
		id := cat.Objects[(i*2909)%len(cat.Objects)].ObjectID
		pointSQL[i] = fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = %d", id)
		res, err := oracle.Query(pointSQL[i])
		if err != nil {
			return err
		}
		pointWant[i] = renderRows(res.Rows, false)
	}

	nUsers := 50
	if conns < nUsers {
		nUsers = conns
	}
	clients := make([]*frontend.Client, conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		c, err := frontend.Dial(f.Addr(), fmt.Sprintf("u%03d", i%nUsers), "LSST")
		if err != nil {
			return fmt.Errorf("frontend: dial %d/%d: %w", i, conns, err)
		}
		clients[i] = c
	}

	// Background full scans, racing the whole storm.
	const nScans = 2
	scanDur := make([]time.Duration, nScans)
	scanErrs := make([]error, nScans)
	var scanWG sync.WaitGroup
	scanStart := time.Now()
	for s := 0; s < nScans; s++ {
		scanWG.Add(1)
		go func(s int) {
			defer scanWG.Done()
			c, err := frontend.Dial(f.Addr(), "scanner", "LSST")
			if err != nil {
				scanErrs[s] = err
				return
			}
			defer c.Close()
			// Distinct predicates so the two scans convoy, not dedupe.
			st, err := c.Query(context.Background(), scanSQL+fmt.Sprintf(" AND decl_PS > %d", -91-s))
			if err != nil {
				scanErrs[s] = err
				return
			}
			var n int64
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				n++
			}
			if st.Err() != nil {
				scanErrs[s] = st.Err()
				return
			}
			if n != int64(len(scanWant.Rows)) {
				scanErrs[s] = fmt.Errorf("scan %d streamed %d rows, oracle has %d", s, n, len(scanWant.Rows))
				return
			}
			scanDur[s] = time.Since(scanStart)
		}(s)
	}

	const perConn = 2
	type sample struct{ first, total time.Duration }
	samples := make([]sample, conns*perConn)
	stormErrs := make([]error, conns)
	startGun := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-startGun
			for j := 0; j < perConn; j++ {
				k := (i*perConn + j) % nPoints
				t0 := time.Now()
				st, err := clients[i].Query(context.Background(), pointSQL[k])
				if err != nil {
					stormErrs[i] = fmt.Errorf("conn %d: %w", i, err)
					return
				}
				var first time.Duration
				var rows [][]any
				for {
					row, ok := st.Next()
					if !ok {
						break
					}
					if len(rows) == 0 {
						first = time.Since(t0)
					}
					rows = append(rows, row)
				}
				if st.Err() != nil {
					stormErrs[i] = fmt.Errorf("conn %d: %w", i, st.Err())
					return
				}
				if !sameRendered(renderRows(rows, false), pointWant[k]) {
					stormErrs[i] = fmt.Errorf("conn %d: %q differs from the oracle", i, pointSQL[k])
					return
				}
				samples[i*perConn+j] = sample{first: first, total: time.Since(t0)}
			}
		}(i)
	}
	close(startGun)
	wg.Wait()
	scanWG.Wait()

	var wrong, failed int
	var firstErr error
	for _, err := range stormErrs {
		if err == nil {
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, err := range scanErrs {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	var firsts, totals []time.Duration
	for _, s := range samples {
		if s.total > 0 {
			firsts = append(firsts, s.first)
			totals = append(totals, s.total)
		}
	}
	slowScan := scanDur[0]
	for _, d := range scanDur {
		if d > slowScan {
			slowScan = d
		}
	}
	fmt.Printf("  storm: %d connections x %d point queries over %d users, %d full scans concurrent\n",
		conns, perConn, nUsers, nScans)
	fmt.Printf("  interactive first-row   p50 %v  p99 %v\n",
		percentile(firsts, 50).Round(time.Microsecond), percentile(firsts, 99).Round(time.Microsecond))
	fmt.Printf("  interactive completion  p50 %v  p99 %v\n",
		percentile(totals, 50).Round(time.Microsecond), percentile(totals, 99).Round(time.Microsecond))
	fmt.Printf("  full scans (%d rows each) completed in %v, %v\n",
		len(scanWant.Rows), scanDur[0].Round(time.Millisecond), scanDur[1].Round(time.Millisecond))
	if failed > 0 || wrong > 0 {
		fmt.Printf("  RESULT: FAIL — %d failed/wrong under the storm\n", failed+wrong)
		return fmt.Errorf("frontend: storm: %w", firstErr)
	}

	// ---- phase 3: admission shedding ----
	shedVerdict, shedMax, shedCount, err := runShedPhase(cl, scanSQL)
	if err != nil {
		fmt.Printf("  RESULT: FAIL — admission shedding: %v\n", err)
		return err
	}

	p99First := percentile(firsts, 99)
	switch {
	case streamVerdict == "warn":
		fmt.Printf("  RESULT: WARN — storm clean, shedding fast (%d shed, max %v), but the scan was too small to gate streaming decoupling\n",
			shedCount, shedMax.Round(time.Millisecond))
	case shedVerdict == "warn":
		fmt.Printf("  RESULT: WARN — storm clean and streaming decoupled, but every hold scan finished before a shed could be observed\n")
	case slowScan > 0 && p99First >= slowScan:
		// The whole point of the frontend: interactive first-row latency
		// must not be coupled to concurrent scan completion.
		fmt.Printf("  RESULT: FAIL — interactive p99 first-row (%v) not decoupled from scan completion (%v)\n",
			p99First, slowScan)
		return fmt.Errorf("frontend: interactive p99 first-row %v >= scan completion %v", p99First, slowScan)
	default:
		fmt.Printf("  RESULT: ok — streaming decoupled, %d sessions oracle-identical, %d over-quota sessions shed in <= %v\n",
			conns, shedCount, shedMax.Round(time.Millisecond))
	}
	return nil
}

// runShedPhase starts a quota-1 frontend and races probe sessions
// against a scan holding user "greedy"'s one slot: every probe landing
// inside the hold's execution window must shed with a fast busy error.
// Returns "warn" when no probe ever lands inside a hold window (tiny
// data scale) — correctness is then unprovable, not violated.
func runShedPhase(cl *qserv.Cluster, scanSQL string) (verdict string, maxShed time.Duration, shed int, err error) {
	f, err := cl.ServeFrontend("127.0.0.1:0", qserv.FrontendConfig{
		MaxSessions: 8, PerUserSessions: 1, SessionQueueDepth: 2,
	})
	if err != nil {
		return "", 0, 0, err
	}
	defer f.Close()

	prober, err := frontend.Dial(f.Addr(), "greedy", "LSST")
	if err != nil {
		return "", 0, 0, err
	}
	defer prober.Close()
	hold, err := frontend.Dial(f.Addr(), "greedy", "LSST")
	if err != nil {
		return "", 0, 0, err
	}
	defer hold.Close()

	const attempts = 8
	for attempt := 0; attempt < attempts && shed < 3; attempt++ {
		done := make(chan error, 1)
		go func() {
			st, err := hold.Query(context.Background(), scanSQL)
			if err != nil {
				done <- err
				return
			}
			for {
				if _, ok := st.Next(); !ok {
					break
				}
			}
			done <- st.Err()
		}()
	probing:
		for {
			select {
			case err := <-done:
				// The hold itself may shed when a probe won the slot race;
				// either way this attempt's window is over.
				if err != nil && !frontend.IsBusy(err) {
					return "", 0, 0, fmt.Errorf("hold query: %w", err)
				}
				break probing
			default:
			}
			t0 := time.Now()
			st, qerr := prober.Query(context.Background(), "SELECT COUNT(*) FROM Object")
			d := time.Since(t0)
			if qerr == nil {
				// Admitted: the hold wasn't running (or lost the slot
				// race). Drain the stream — it holds the connection
				// until its Done frame — then re-check done.
				for {
					if _, ok := st.Next(); !ok {
						break
					}
				}
				continue
			}
			if !frontend.IsBusy(qerr) {
				return "", 0, 0, fmt.Errorf("over-quota query failed with %v, want busy", qerr)
			}
			if d > time.Second {
				return "", 0, 0, fmt.Errorf("busy shed took %v, want fast rejection", d)
			}
			shed++
			if d > maxShed {
				maxShed = d
			}
			if err := <-done; err != nil && !frontend.IsBusy(err) {
				return "", 0, 0, fmt.Errorf("hold query: %w", err)
			}
			break probing
		}
	}
	if shed == 0 {
		return "warn", 0, 0, nil
	}
	if got := f.Stats().Shed; int(got) < shed {
		return "", 0, 0, fmt.Errorf("SHOW FRONTEND reports %d shed, observed %d", got, shed)
	}
	return "ok", maxShed, shed, nil
}

// raiseNoFile lifts RLIMIT_NOFILE high enough for want client
// connections (each one costs a client and a server fd, plus slack for
// the cluster itself); when the hard limit is lower, the storm is
// clamped with a warning instead of dying on EMFILE mid-run.
func raiseNoFile(want int) int {
	need := uint64(2*want + 256)
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		fmt.Printf("  WARN: getrlimit failed (%v); keeping %d connections and hoping\n", err, want)
		return want
	}
	if rl.Cur < need {
		raised := rl
		raised.Cur = need
		if raised.Cur > raised.Max {
			raised.Cur = raised.Max
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised); err == nil {
			rl = raised
		}
	}
	if rl.Cur < need {
		clamped := int((rl.Cur - 256) / 2)
		if clamped < 1 {
			clamped = 1
		}
		fmt.Printf("  WARN: RLIMIT_NOFILE=%d caps the storm at %d connections (asked for %d)\n",
			rl.Cur, clamped, want)
		return clamped
	}
	return want
}
