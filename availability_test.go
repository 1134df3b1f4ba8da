package qserv

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
)

// availabilityCluster builds a cluster tuned for fast failure
// detection (the production defaults would make these tests wait
// hundreds of milliseconds per transition). The czar result cache is
// off: these tests repeat a fixed battery across a death, a repair or a
// membership change, and a battery answered from the cache would check
// nothing beyond the czar.
func availabilityCluster(t *testing.T, workers, replication int) (*Cluster, *Oracle) {
	t.Helper()
	return availabilityClusterCache(t, workers, replication, 0)
}

// availabilityClusterCache is availabilityCluster with a result cache of
// cacheBytes, for the test whose subject is the cache.
func availabilityClusterCache(t *testing.T, workers, replication int, cacheBytes int64) (*Cluster, *Oracle) {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 11, ObjectsPerPatch: 200, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(workers)
	cfg.Replication = replication
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	cfg.ResultCacheBytes = cacheBytes
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	oracle, err := NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Load(cat); err != nil {
		t.Fatal(err)
	}
	return cl, oracle
}

// workerState polls Status until the worker reaches the wanted state.
func workerState(t *testing.T, cl *Cluster, name string, want WorkerState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		for _, w := range cl.Status().Workers {
			if w.Name == name && w.State == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("worker %s never reached %s (status %+v)", name, want, cl.Status().Workers)
}

// fullyReplicatedOff asserts (by polling) that every chunk reaches the
// replication factor on live workers, none of them the named one.
func fullyReplicatedOff(t *testing.T, cl *Cluster, avoid string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ok := true
		for _, c := range cl.Placement.Chunks() {
			ws := cl.Placement.Workers(c)
			if len(ws) < cl.Config.Replication {
				ok = false
				break
			}
			for _, w := range ws {
				if w == avoid {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			st := cl.Status()
			if st.Repair.ChunksPending == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			st := cl.Status()
			t.Fatalf("replication not restored off %s within %v (repair %+v)", avoid, within, st.Repair)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var availabilityBattery = []string{
	"SELECT COUNT(*) FROM Object",
	"SELECT COUNT(*) FROM Source",
	"SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
	"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 7",
}

// checkBattery runs the battery against the oracle. An answer served from
// the result cache fails it: the callers check what a cluster executes
// after an event, so their fixtures turn the cache off.
func checkBattery(t *testing.T, cl *Cluster, oracle *Oracle, label string) {
	t.Helper()
	for _, sql := range availabilityBattery {
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("%s: %q: %v", label, sql, err)
		}
		if got.CacheHit {
			t.Fatalf("%s: %q was answered from the result cache, not executed", label, sql)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, label+": "+sql)
	}
}

// TestSelfHealRestoresReplication is the acceptance criterion's core:
// with Replication 2, killing one worker leaves every query correct,
// and the replication manager restores every chunk to full replication
// on the survivors — after which the victim holds nothing and the
// cluster answers oracle-identically. The revived worker is probed
// back in.
func TestSelfHealRestoresReplication(t *testing.T) {
	cl, oracle := availabilityCluster(t, 4, 2)
	victim := cl.Workers[0].Name()

	checkBattery(t, cl, oracle, "before failure")
	epoch0 := cl.Status().PlacementEpoch

	cl.Endpoint(victim).SetDown(true)
	workerState(t, cl, victim, WorkerDead, 10*time.Second)
	fullyReplicatedOff(t, cl, victim, 20*time.Second)

	st := cl.Status()
	if st.Repair.ChunksRepaired == 0 || st.Repair.TablesCopied == 0 {
		t.Fatalf("repair progress empty after failover: %+v", st.Repair)
	}
	if st.PlacementEpoch <= epoch0 {
		t.Fatal("placement epoch did not advance across a repair")
	}
	for _, w := range st.Workers {
		if w.Name == victim && w.Chunks != 0 {
			t.Fatalf("dead worker still holds %d chunks in placement", w.Chunks)
		}
	}
	checkBattery(t, cl, oracle, "after re-replication")

	// Quarantine expiry: the revived worker is probed back to alive.
	cl.Endpoint(victim).SetDown(false)
	workerState(t, cl, victim, WorkerAlive, 10*time.Second)
	checkBattery(t, cl, oracle, "after revival")
}

// TestWorkerDeathMidQuery kills a worker while a scan is mid-flight:
// in-flight result reads against it are severed, the czar fails over
// to replicas, and the answer stays oracle-identical with Retries > 0.
func TestWorkerDeathMidQuery(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 13, ObjectsPerPatch: 400, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 25},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.Replication = 2
	cfg.WorkerSlots = 1 // a scan backlog keeps many result reads in flight
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	cfg.ResultCacheBytes = 0 // checkBattery below must execute
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	oracle, err := NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Load(cat); err != nil {
		t.Fatal(err)
	}

	slowScans(cl, 10*time.Microsecond)
	sql := "SELECT COUNT(*) FROM Object WHERE uFlux_PS > 1e-31"
	q, err := cl.Submit(context.Background(), "SELECT COUNT(*) FROM Object WHERE test_slow(uFlux_PS) > 1e-31")
	if err != nil {
		t.Fatal(err)
	}
	// Let it get properly mid-flight, then kill a worker abruptly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := q.Progress()
		if p.ChunksCompleted >= 2 && p.ChunksCompleted < p.ChunksTotal/2 {
			break
		}
		if p.Done || time.Now().After(deadline) {
			t.Fatalf("query never mid-flight (progress %+v)", p)
		}
		time.Sleep(100 * time.Microsecond)
	}
	cl.Endpoint(cl.Workers[1].Name()).SetDown(true)

	res, err := q.Wait(context.Background())
	if err != nil {
		t.Fatalf("query with mid-flight worker death failed: %v", err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, res, want, "mid-flight death")
	if res.Retries == 0 {
		t.Fatal("mid-flight death produced no read-side failovers (Retries = 0)")
	}
	// Subsequent queries keep answering while repair runs.
	checkBattery(t, cl, oracle, "after mid-flight death")
}

// TestAddRemoveWorkerUnderQueries exercises elastic membership under a
// concurrent oracle-checked query stream: a worker joins, a founding
// worker is gracefully drained out, and no query ever sees a wrong
// answer. Run under -race.
func TestAddRemoveWorkerUnderQueries(t *testing.T) {
	cl, oracle := availabilityCluster(t, 3, 2)
	countSQL := "SELECT COUNT(*) FROM Object"
	want, err := oracle.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantN := want.Rows[0][0].(int64)

	stop := make(chan struct{})
	var queries, failures atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := cl.Query(countSQL)
				if err != nil {
					failures.Add(1)
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				if !res.CacheHit {
					queries.Add(1) // only an executed query counts
				}
				if got := res.Rows[0][0].(int64); got != wantN {
					select {
					case errCh <- fmt.Errorf("count = %d, want %d", got, wantN):
					default:
					}
					failures.Add(1)
				}
			}
		}()
	}

	// The membership change is milliseconds: on a busy machine it used to
	// be over before any of the four goroutines had been scheduled once
	// ("no queries ran", one run in ten under `go test ./...`). It starts
	// once the stream is flowing.
	for queries.Load() == 0 && failures.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	victim := cl.Workers[0].Name()
	if err := cl.AddWorker("worker-added"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddWorker("worker-added"); err == nil {
		t.Fatal("duplicate AddWorker should fail")
	}
	if err := cl.RemoveWorker(victim); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		select {
		case err := <-errCh:
			t.Fatalf("%d of %d queries failed during membership change; first: %v",
				failures.Load(), queries.Load(), err)
		default:
			t.Fatalf("%d of %d queries failed during membership change", failures.Load(), queries.Load())
		}
	}
	if queries.Load() == 0 {
		t.Fatal("no queries ran during the membership change")
	}

	// The drained worker is gone from membership and placement.
	if cl.WorkerByName(victim) != nil {
		t.Fatal("removed worker still a member")
	}
	if n := len(cl.Placement.ChunksOn(victim)); n != 0 {
		t.Fatalf("removed worker still placed on %d chunks", n)
	}
	names := cl.WorkerNames()
	if len(names) != 3 {
		t.Fatalf("membership = %v", names)
	}
	checkBattery(t, cl, oracle, "after add+remove")

	// The added worker took real load from the drain.
	if n := len(cl.Placement.ChunksOn("worker-added")); n == 0 {
		t.Fatal("added worker received no chunks from the drain")
	}
}

// TestRemoveWorkerGuards: removal below the replication factor, and of
// unknown workers, is refused.
func TestRemoveWorkerGuards(t *testing.T) {
	cl, _ := availabilityCluster(t, 2, 2)
	if err := cl.RemoveWorker(cl.Workers[0].Name()); err == nil {
		t.Fatal("removal below the replication factor should fail")
	}
	if err := cl.RemoveWorker("no-such-worker"); err == nil {
		t.Fatal("removing an unknown worker should fail")
	}
	if err := cl.AddWorker(""); err == nil {
		t.Fatal("empty worker name should fail")
	}
}

// TestConcurrentRemovalsHoldTheFloor: two racing removals on a cluster
// with one spare worker must not both succeed — the replication-floor
// check is atomic with the membership mutation.
func TestConcurrentRemovalsHoldTheFloor(t *testing.T) {
	cl, oracle := availabilityCluster(t, 3, 2)
	a, b := cl.Workers[0].Name(), cl.Workers[1].Name()
	errs := make(chan error, 2)
	for _, name := range []string{a, b} {
		go func(name string) { errs <- cl.RemoveWorker(name) }(name)
	}
	var ok int
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Fatalf("%d of 2 concurrent removals succeeded, want exactly 1", ok)
	}
	if got := len(cl.WorkerNames()); got != 2 {
		t.Fatalf("membership = %v, want 2 workers", cl.WorkerNames())
	}
	// Every chunk still lives on current members at full factor.
	members := map[string]bool{}
	for _, n := range cl.WorkerNames() {
		members[n] = true
	}
	for _, c := range cl.Placement.Chunks() {
		ws := cl.Placement.Workers(c)
		if len(ws) != cl.Config.Replication {
			t.Fatalf("chunk %d at factor %d", c, len(ws))
		}
		for _, w := range ws {
			if !members[w] {
				t.Fatalf("chunk %d placed on departed worker %s", c, w)
			}
		}
	}
	checkBattery(t, cl, oracle, "after racing removals")
}

// TestIngestSkipsDeadWorkers: new director chunks are never homed on a
// dead worker, and an ingest that cannot meet the replication factor
// fails with a named error instead of lane timeouts.
func TestIngestSkipsDeadWorkers(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 17, ObjectsPerPatch: 100, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(3)
	cfg.Replication = 1
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}

	victim := cl.Workers[1].Name()
	cl.Endpoint(victim).SetDown(true)
	workerState(t, cl, victim, WorkerDead, 10*time.Second)

	if _, err := cl.Ingest("Object", objectSource(cat)); err != nil {
		t.Fatalf("ingest with a dead worker (replication 1, 2 live) failed: %v", err)
	}
	if n := len(cl.Placement.ChunksOn(victim)); n != 0 {
		t.Fatalf("dead worker was assigned %d new chunks", n)
	}
	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err != nil {
		t.Fatalf("query after health-aware ingest: %v", err)
	}
}

// TestIngestFailsFastWhenFactorUnmeetable: with every spare worker
// dead, the ingest reports which chunk could not be placed.
func TestIngestFailsFastWhenFactorUnmeetable(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 19, ObjectsPerPatch: 60, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.Replication = 2
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	cfg.SelfHeal = false // nothing to heal onto; keep the detector only
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	victim := cl.Workers[0].Name()
	cl.Endpoint(victim).SetDown(true)
	workerState(t, cl, victim, WorkerDead, 10*time.Second)

	_, err = cl.Ingest("Object", objectSource(cat))
	if err == nil {
		t.Fatal("ingest should fail when live workers < replication")
	}
	if !strings.Contains(err.Error(), "workers are live") {
		t.Fatalf("ingest error %q does not name the shortfall", err)
	}
}
