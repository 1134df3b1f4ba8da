package qserv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
)

// restartCluster builds a cluster tuned for fast failure detection,
// optionally durable (dataDir != ""), with a repair grace window that
// covers a worker restart. The czar result cache is off: a durable
// restart leaves the placement epoch alone, so with the cache on neither
// the stream across the restart nor the battery after it would reach the
// restarted worker.
func restartCluster(t *testing.T, dataDir string, grace time.Duration) (*Cluster, *Oracle) {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 23, ObjectsPerPatch: 200, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.Replication = 2
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	cfg.DataDir = dataDir
	cfg.RepairGrace = grace
	cfg.ResultCacheBytes = 0
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

// awaitRepairQuiet polls until the repairer reports nothing pending.
func awaitRepairQuiet(t *testing.T, cl *Cluster, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		st := cl.Status()
		if st.Repair.ChunksPending == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("repair never quiesced (repair %+v)", cl.Status().Repair)
}

// TestDurableRestartKeepsData is the tentpole's acceptance test: a
// worker with a DataDir killed and restarted under a live query stream
// serves its chunks from its own disk — zero chunks re-homed, zero
// tables copied, placement epoch untouched — and every query through
// the window stays oracle-correct.
func TestDurableRestartKeepsData(t *testing.T) {
	cl, oracle := restartCluster(t, t.TempDir(), 10*time.Second)
	victim := cl.Workers[0].Name()
	held := len(cl.Placement.ChunksOn(victim))
	if held == 0 {
		t.Fatal("victim holds no chunks; test is vacuous")
	}
	checkBattery(t, cl, oracle, "before restart")
	epoch0 := cl.Status().PlacementEpoch

	// A concurrent oracle-checked stream across the restart window.
	countSQL := "SELECT COUNT(*) FROM Object"
	want, err := oracle.Query(countSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantN := want.Rows[0][0].(int64)
	stop := make(chan struct{})
	var queries, failures atomic.Int64
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
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
					failures.Add(1)
					select {
					case errCh <- fmt.Errorf("count = %d, want %d", got, wantN):
					default:
					}
				}
			}
		}()
	}

	// The restart takes milliseconds: it starts once the stream is flowing.
	for queries.Load() == 0 && failures.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	before := queries.Load()
	if err := cl.RestartWorker(victim); err != nil {
		t.Fatal(err)
	}
	workerState(t, cl, victim, WorkerAlive, 10*time.Second)
	awaitRepairQuiet(t, cl, 20*time.Second)
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		err := <-errCh
		t.Fatalf("%d queries failed across the restart (%d executed); first: %v",
			failures.Load(), queries.Load(), err)
	}
	if queries.Load() == before {
		t.Fatal("no query executed across the restart window")
	}
	st := cl.Status()
	if st.Repair.ChunksRepaired != 0 || st.Repair.TablesCopied != 0 {
		t.Fatalf("durable restart triggered copies: %+v (want zero re-homes)", st.Repair)
	}
	if st.Repair.ChunksHealed != 0 {
		t.Fatalf("durable restart needed %d in-place heals; recovery should have served them", st.Repair.ChunksHealed)
	}
	if st.PlacementEpoch != epoch0 {
		t.Fatalf("placement epoch moved %d -> %d across a durable restart", epoch0, st.PlacementEpoch)
	}
	if got := len(cl.Placement.ChunksOn(victim)); got != held {
		t.Fatalf("victim placement changed: %d chunks, had %d", got, held)
	}
	// The restarted worker really serves: its inventory backs placement.
	if got := len(cl.WorkerByName(victim).Chunks()); got != held {
		t.Fatalf("restarted worker recovered %d chunks, placement expects %d", got, held)
	}
	checkBattery(t, cl, oracle, "after durable restart")
}

// TestInMemoryRestartHealsInPlace: without a DataDir the restarted
// worker rejoins hollow; the placement-vs-inventory audit detects the
// missing chunks and heals them in place from surviving replicas — no
// re-homing, placement intact.
func TestInMemoryRestartHealsInPlace(t *testing.T) {
	// This test is ABOUT the store-less path: suppress the QSERV_DATADIR
	// override that makes every cluster durable in the CI durability
	// run, and the QSERV_MEMBUDGET override that would auto-create a
	// private store for the budget to page against.
	t.Setenv("QSERV_DATADIR", "")
	t.Setenv("QSERV_MEMBUDGET", "")
	cl, oracle := restartCluster(t, "", 10*time.Second)
	victim := cl.Workers[0].Name()
	held := len(cl.Placement.ChunksOn(victim))
	if held == 0 {
		t.Fatal("victim holds no chunks; test is vacuous")
	}

	if err := cl.RestartWorker(victim); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.WorkerByName(victim).Chunks()); got != 0 {
		t.Fatalf("in-memory restart kept %d chunks; expected hollow", got)
	}
	workerState(t, cl, victim, WorkerAlive, 10*time.Second)

	// The audit kicked by the revival heals every placed chunk back onto
	// the hollow worker.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := cl.Status()
		if st.Repair.ChunksHealed >= held && st.Repair.ChunksPending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hollow worker not healed: %d of %d chunks (repair %+v)",
				st.Repair.ChunksHealed, held, st.Repair)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := cl.Status()
	if st.Repair.ChunksRepaired != 0 {
		t.Fatalf("in-place healing re-homed %d chunks; placement should not move", st.Repair.ChunksRepaired)
	}
	if got := len(cl.Placement.ChunksOn(victim)); got != held {
		t.Fatalf("victim placement changed: %d chunks, had %d", got, held)
	}
	if got := len(cl.WorkerByName(victim).Chunks()); got != held {
		t.Fatalf("healed worker holds %d chunks, placement expects %d", got, held)
	}
	checkBattery(t, cl, oracle, "after in-place heal")
}

// TestRepairGraceHoldsRehoming: a worker dead for less than the grace
// window keeps its chunks pending — never re-homed — so a restart
// inside the window costs no copies; queries fail over to replicas
// meanwhile.
func TestRepairGraceHoldsRehoming(t *testing.T) {
	cl, oracle := restartCluster(t, t.TempDir(), 30*time.Second)
	victim := cl.Workers[0].Name()

	cl.Endpoint(victim).SetDown(true)
	workerState(t, cl, victim, WorkerDead, 10*time.Second)
	// Let several audits run against the dead-within-grace worker.
	time.Sleep(150 * time.Millisecond)
	st := cl.Status()
	if st.Repair.ChunksRepaired != 0 {
		t.Fatalf("grace window did not hold: %d chunks re-homed", st.Repair.ChunksRepaired)
	}
	checkBattery(t, cl, oracle, "during grace window")

	cl.Endpoint(victim).SetDown(false)
	workerState(t, cl, victim, WorkerAlive, 10*time.Second)
	awaitRepairQuiet(t, cl, 20*time.Second)
	st = cl.Status()
	if st.Repair.ChunksRepaired != 0 || st.Repair.TablesCopied != 0 {
		t.Fatalf("revival within grace still copied: %+v", st.Repair)
	}
	checkBattery(t, cl, oracle, "after revival within grace")
}
