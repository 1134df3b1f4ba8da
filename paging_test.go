package qserv

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/sqlengine"
)

// This file is the eviction-churn soak: a cluster whose workers run
// under a memory budget far below the loaded working set serves a
// randomized concurrent query stream — every answer oracle-checked —
// while chunks continuously page in and out, and a worker is crash-
// restarted mid-soak. Correctness must be indistinguishable from an
// unbudgeted cluster.

// pagingQueries is the soak's query pool: full scans, aggregation,
// top-K, and point dives, so both the scan lane and the index path
// cross the materialize/evict machinery.
var pagingQueries = []string{
	"SELECT COUNT(*) FROM Object",
	"SELECT COUNT(*) FROM Source",
	"SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
	"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 7",
	"SELECT COUNT(*) FROM Object WHERE zFlux_PS > 1e-28",
	"SELECT objectId FROM Object WHERE objectId = 31",
}

// renderResult reduces a result to a sorted row-key list, the same
// normalization sameAnswer applies, so goroutines can compare without
// touching testing.T.
func renderResult(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if f, ok := v.(float64); ok {
				parts[j] = fmt.Sprintf("%.9g", f)
			} else {
				parts[j] = sqlengine.FormatValue(v)
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestEvictionChurnSoak runs concurrent randomized oracle-checked
// queries against workers budgeted to a fraction of their working set,
// with a crash-restart in the middle. Every answer must be exact, the
// budget must actually force evictions (no vacuous pass), and the
// repairer must not have "healed" chunks that were merely cold.
func TestEvictionChurnSoak(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 41, ObjectsPerPatch: 200, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(3)
	cfg.Replication = 2
	cfg.HealthInterval = 15 * time.Millisecond
	cfg.DeadMisses = 2
	cfg.DataDir = t.TempDir()
	cfg.RepairGrace = 10 * time.Second
	cfg.WorkerMemoryBudget = 16 << 10 // far below the loaded working set
	cfg.ResultCacheBytes = 0          // six fixed statements: with the cache on the soak executes nine queries
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

	// Sanity: the budget is really smaller than what the workers hold.
	var storedBytes int64
	for _, w := range cl.Workers {
		st := w.ResidencyStats()
		if st.Budget != cfg.WorkerMemoryBudget {
			t.Fatalf("worker budget = %d, want %d", st.Budget, cfg.WorkerMemoryBudget)
		}
		storedBytes += st.ResidentBytes
	}

	want := make(map[string][]string, len(pagingQueries))
	for _, sql := range pagingQueries {
		res, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		want[sql] = renderResult(res)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var queries, failures atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sql := pagingQueries[rng.Intn(len(pagingQueries))]
				res, err := cl.Query(sql)
				if err != nil {
					failures.Add(1)
					select {
					case errCh <- fmt.Errorf("%q: %w", sql, err):
					default:
					}
					continue
				}
				if !res.CacheHit {
					queries.Add(1) // only an executed query counts
				}
				got := renderResult(res)
				exp := want[sql]
				if len(got) != len(exp) {
					failures.Add(1)
					select {
					case errCh <- fmt.Errorf("%q: %d rows, oracle has %d", sql, len(got), len(exp)):
					default:
					}
					continue
				}
				for j := range got {
					if got[j] != exp[j] {
						failures.Add(1)
						select {
						case errCh <- fmt.Errorf("%q: row %d = %s, oracle %s", sql, j, got[j], exp[j]):
						default:
						}
						break
					}
				}
			}
		}(int64(41 + i))
	}

	// Let the churn build, crash-restart a worker mid-soak, churn more. The
	// soak is sized in executed queries, not in seconds, so a slow run
	// (-race) churns as much as a fast one.
	awaitExecuted := func(n int64) {
		deadline := time.Now().Add(60 * time.Second)
		for queries.Load() < n && failures.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	awaitExecuted(100)
	victim := cl.Workers[0].Name()
	if err := cl.RestartWorker(victim); err != nil {
		t.Fatal(err)
	}
	workerState(t, cl, victim, WorkerAlive, 10*time.Second)
	awaitExecuted(queries.Load() + 300)
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		err := <-errCh
		t.Fatalf("%d queries wrong or failed under eviction churn (%d executed); first: %v",
			failures.Load(), queries.Load(), err)
	}
	if queries.Load() < 200 {
		t.Fatalf("soak only executed %d queries; too few to mean anything", queries.Load())
	}
	t.Logf("soak executed %d queries", queries.Load())

	var evictions, materializations int64
	for _, w := range cl.Workers {
		st := w.ResidencyStats()
		evictions += st.Evictions
		materializations += st.Materializations
	}
	if evictions == 0 {
		t.Fatalf("no evictions over the whole soak (stored %d bytes, budget %d): the budget never bit and the test is vacuous",
			storedBytes, cfg.WorkerMemoryBudget)
	}
	if materializations == 0 {
		t.Fatal("no re-materializations over the whole soak")
	}

	// The restart window ran repair audits against mostly-cold workers:
	// held-but-not-resident chunks must not have been copied anywhere.
	awaitRepairQuiet(t, cl, 20*time.Second)
	st := cl.Status()
	if st.Repair.ChunksHealed != 0 || st.Repair.ChunksRepaired != 0 || st.Repair.TablesCopied != 0 {
		t.Fatalf("repair copied under paging: %+v (cold chunks are held, not lost)", st.Repair)
	}
	checkBattery(t, cl, oracle, "after churn soak")
}
