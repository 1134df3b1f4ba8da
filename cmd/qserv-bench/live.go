package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	qserv "repro"
)

// runOutage measures what an unavailable worker costs a 4-worker cluster
// at replication 2 while four checked streams query it, twice. Death: the
// worker is severed abruptly (in-flight fabric transactions fail like a
// torn TCP peer) and stays dead; measured are the time for the failure
// detector to mark it dead and the time until the replication manager has
// every chunk back at full replication on the survivors. Durable restart:
// the same worker over a DataDir is killed and restarted, recovers its
// chunks from its own disk and rejoins — and must move no data at all.
func runOutage(c *benchCtx) error {
	f, err := newFixture(c, 100+c.objects*4)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(4)
	cfg.Replication = 2
	cfg.HealthInterval = 20 * time.Millisecond
	cfg.DeadMisses = 2
	battery := []string{
		"SELECT COUNT(*) AS n FROM Object",
		"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 10",
		"SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31",
	}
	// phase runs the streams over a fresh cluster while worker 0 suffers the
	// outage, and returns how long the cluster took to be whole again.
	phase := func(label string, cfg qserv.ClusterConfig, outage func(cl *qserv.Cluster, victim string) error,
		whole func(cl *qserv.Cluster, victim string) bool) (recovered time.Duration, repair qserv.RepairProgress, err error) {
		cl, err := f.cluster(cfg)
		if err != nil {
			return 0, repair, err
		}
		defer cl.Close()
		victim := cl.Workers[0].Name()
		err = f.stream(cl, label, 4, battery, func() error {
			t0 := time.Now()
			if err := outage(cl, victim); err != nil {
				return err
			}
			err := await(label+": cluster whole again", func() bool { return whole(cl, victim) })
			recovered = time.Since(t0)
			return err
		})
		return recovered, cl.Status().Repair, err
	}

	var killed time.Time
	var detect time.Duration
	rereplicate, death, err := phase("death", cfg,
		func(cl *qserv.Cluster, victim string) error {
			killed = time.Now()
			cl.Endpoint(victim).SetDown(true)
			return nil
		},
		func(cl *qserv.Cluster, victim string) bool {
			if detect == 0 {
				if !workerIs(cl, victim, qserv.WorkerDead) {
					return false
				}
				detect = time.Since(killed)
			}
			return replicatedOff(cl, victim)
		})
	if err != nil {
		return err
	}

	dataDir, err := os.MkdirTemp("", "qserv-bench-outage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	durCfg := cfg
	durCfg.DataDir = dataDir
	durCfg.RepairGrace = 60 * time.Second // repair must not re-home while the worker restarts
	restart, durable, err := phase("durable restart", durCfg,
		func(cl *qserv.Cluster, victim string) error { return cl.RestartWorker(victim) },
		func(cl *qserv.Cluster, victim string) bool {
			return workerIs(cl, victim, qserv.WorkerAlive) && cl.Status().Repair.ChunksPending == 0
		})
	if err != nil {
		return err
	}

	c.printf("workload: 4 checked query streams, 4 workers x replication 2, worker 0 made unavailable\n")
	c.printf("  death: detected in %v (dead after %d missed %v probes), full replication restored in %v\n",
		detect.Round(time.Millisecond), cfg.DeadMisses, cfg.HealthInterval, rereplicate.Round(time.Millisecond))
	c.printf("         chunks re-homed: %d, tables copied: %d, bytes copied: %d\n",
		death.ChunksRepaired, death.TablesCopied, death.BytesCopied)
	c.printf("  durable restart: serving again in %v; re-homed %d, copied %d, healed %d\n",
		restart.Round(time.Millisecond), durable.ChunksRepaired, durable.TablesCopied, durable.ChunksHealed)
	c.metric("detect_ms", ms(detect))
	c.metric("rereplicate_ms", ms(rereplicate))
	c.metric("durable_restart_ms", ms(restart))
	c.metric("rereplicate_over_restart", float64(rereplicate)/float64(restart))
	c.metric("chunks_rehomed", float64(death.ChunksRepaired))
	c.metric("tables_copied", float64(death.TablesCopied))
	c.metric("bytes_copied", float64(death.BytesCopied))
	f.verdict()
	c.gate("rereplicated", death.ChunksRepaired > 0, "the death re-homed %d chunks", death.ChunksRepaired)
	c.gate("durable_copy_free", durable.ChunksRepaired == 0 && durable.TablesCopied == 0 && durable.ChunksHealed == 0,
		"the durable restart re-homed %d chunks, copied %d tables, healed %d chunks",
		durable.ChunksRepaired, durable.TablesCopied, durable.ChunksHealed)
	return nil
}

// runPaging measures a worker fleet operating far beyond its memory budget:
// an unbudgeted durable cluster gives each worker's resident footprint and
// the latency of a hot spatially-restricted query, then the same workload
// runs with every worker budgeted to a quarter of the largest footprint, so
// chunks page in lazily and cold chunks evict. The budget must really force
// evictions and re-materializations; what it does to the hot query, whose
// chunks the LRU should keep resident, is recorded.
func runPaging(c *benchCtx) error {
	f, err := newFixture(c, 100+c.objects*4)
	if err != nil {
		return err
	}
	battery := []string{
		"SELECT COUNT(*) AS n FROM Object",
		"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
		"SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31",
	}
	hotSQL := "SELECT COUNT(*) AS n FROM Object WHERE qserv_areaspec_box(2, 2, 8, 8)"
	if err := f.expect(append(battery, hotSQL)...); err != nil {
		return err
	}
	type result struct {
		maxResident, evictions, materializations int64
		hot                                      time.Duration
	}
	phase := func(label string, budget int64) (r result, err error) {
		dataDir, err := os.MkdirTemp("", "qserv-bench-paging-")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dataDir)
		cfg := qserv.DefaultClusterConfig(3)
		cfg.Replication = 2
		cfg.DataDir = dataDir
		cfg.WorkerMemoryBudget = budget
		cl, err := f.cluster(cfg)
		if err != nil {
			return r, err
		}
		defer cl.Close()
		for _, sql := range battery {
			f.query(cl, label, sql)
		}
		// The battery just touched every chunk, so the footprint peaks now.
		for _, w := range cl.Workers {
			r.maxResident = max(r.maxResident, w.ResidencyStats().ResidentBytes)
		}
		// Two warm-up passes materialize the box's chunks; the timed passes
		// should find them still resident.
		var times []time.Duration
		for i := 0; i < 17; i++ {
			if d := f.query(cl, label, hotSQL); i >= 2 {
				times = append(times, d)
			}
		}
		r.hot = percentile(times, 50)
		for _, w := range cl.Workers {
			st := w.ResidencyStats()
			r.evictions += st.Evictions
			r.materializations += st.Materializations
		}
		return r, nil
	}
	full, err := phase("unbudgeted", 0)
	if err != nil {
		return err
	}
	if full.maxResident == 0 {
		return fmt.Errorf("paging: unbudgeted phase reports a zero-byte working set")
	}
	budget := full.maxResident / 4
	paged, err := phase("budgeted", budget)
	if err != nil {
		return err
	}

	c.printf("workload: 3 workers x replication 2, checked battery + 15 timed hot-chunk queries\n")
	c.printf("  %-40s %14s %12s %10s %14s\n", "config", "max resident", "hot p50", "evicted", "materialized")
	c.printf("  %-40s %14d %12v %10d %14d\n", "unbudgeted (working set)",
		full.maxResident, full.hot.Round(time.Microsecond), full.evictions, full.materializations)
	c.printf("  %-40s %14d %12v %10d %14d\n", fmt.Sprintf("budget %d B (1/4 working set)", budget),
		paged.maxResident, paged.hot.Round(time.Microsecond), paged.evictions, paged.materializations)
	c.metric("working_set_bytes", float64(full.maxResident))
	c.metric("budget_bytes", float64(budget))
	c.metric("budgeted_max_resident_bytes", float64(paged.maxResident))
	c.metric("hot_p50_us_unbudgeted", float64(full.hot.Microseconds()))
	c.metric("hot_p50_us_budgeted", float64(paged.hot.Microseconds()))
	c.metric("evictions", float64(paged.evictions))
	c.metric("materializations", float64(paged.materializations))
	f.verdict()
	c.gate("budget_forced_evictions", paged.evictions > 0, "%d evictions at budget %d", paged.evictions, budget)
	c.gate("rematerialized", paged.materializations > 0, "%d materializations at budget %d", paged.materializations, budget)
	return nil
}

// runKillLatency measures how long a killed full scan keeps its worker scan
// slots. The kill must propagate czar -> xrd cancel transaction -> worker
// scheduler, dequeueing queued chunk queries and interrupting running ones
// at the engine's next poll — while a concurrent scan of the same chunks is
// unaffected (oracle-checked).
func runKillLatency(c *benchCtx) error {
	f, err := newFixture(c, 200+c.objects*10)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(2)
	cfg.WorkerSlots = 1 // one scan slot per worker: a backlog forms, so the kill lands mid-flight
	cl, err := f.cluster(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	slowScans(cl, 20*time.Microsecond)
	survivorSQL := "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 1e-31"
	victimSQL := "SELECT COUNT(*) AS n FROM Object WHERE test_slow(uFlux_PS) > 2e-31"
	if err := f.expect(survivorSQL); err != nil {
		return err
	}
	survivor, err := cl.Submit(context.Background(), survivorSQL)
	if err != nil {
		return err
	}
	victim, err := cl.Submit(context.Background(), victimSQL)
	if err != nil {
		return err
	}
	// Let the victim get properly mid-flight: some chunks merged, many
	// still queued on the workers' scan lanes.
	var atCancel qserv.Progress
	if err := await("the victim to be mid-flight", func() bool {
		atCancel = victim.Progress()
		return atCancel.Done || atCancel.ChunksCompleted >= 2
	}); err != nil {
		return err
	}
	t0 := time.Now()
	victim.Cancel()
	_, verr := victim.Wait(context.Background())
	waitLatency := time.Since(t0)

	sres, serr := survivor.Wait(context.Background())
	f.book("survivor", survivorSQL, sres, serr)
	// Every canceled chunk query's executor slot frees when its report
	// lands; the last such finish bounds the reclaim. (The survivor keeps
	// running — its slots don't count.)
	var aborted, abortedMidScan int
	var reclaim time.Duration
	for _, w := range cl.Workers {
		for _, r := range w.Reports() {
			if r.Err == nil {
				continue
			}
			aborted++
			reclaim = max(reclaim, r.FinishedAt.Sub(t0))
			if r.StartedAt.Before(t0) {
				abortedMidScan++
			}
		}
	}
	dequeued := atCancel.ChunksTotal - atCancel.ChunksCompleted - aborted

	c.printf("workload: 2 concurrent full scans over %d chunks, %d workers x %d scan slot\n",
		atCancel.ChunksTotal, cfg.Workers, cfg.WorkerSlots)
	c.printf("  at cancel: %d/%d chunks merged, %d dispatched\n",
		atCancel.ChunksCompleted, atCancel.ChunksTotal, atCancel.ChunksDispatched)
	c.printf("  Wait returned in:            %v (err: %v)\n", waitLatency.Round(time.Microsecond), verr)
	c.printf("  chunk queries aborted:       %d (%d were running when the kill landed)\n", aborted, abortedMidScan)
	c.printf("  never started (dequeued):    %d\n", dequeued)
	c.printf("  slot reclaim after Cancel:   %v\n", reclaim.Round(time.Microsecond))
	c.metric("wait_us", float64(waitLatency.Microseconds()))
	c.metric("reclaim_us", float64(reclaim.Microseconds()))
	c.metric("chunk_queries_aborted", float64(aborted))
	c.metric("chunk_queries_dequeued", float64(dequeued))
	f.verdict()
	c.gate("canceled", errors.Is(verr, context.Canceled), "Wait returned %v after %d of %d chunks",
		verr, atCancel.ChunksCompleted, atCancel.ChunksTotal)
	c.gate("reclaim_within_1s", reclaim <= time.Second, "slots reclaimed in %v", reclaim)
	return nil
}
