package qserv

import (
	"context"
	sqldb "database/sql"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
)

// This file tests the point-query fast path end to end: secondary-index
// dives, predicate-derived chunk pruning, and the epoch/ingest-stamped
// czar result cache (ISSUE 9).

// TestPointQueryDivesToOwningChunk: an objectId equality dispatches one
// chunk job — not a fan-out — and the answer matches the oracle.
func TestPointQueryDivesToOwningChunk(t *testing.T) {
	cl, oracle := shared(t)
	known, err := oracle.Query("SELECT objectId FROM Object ORDER BY objectId LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(known.Rows) != 3 {
		t.Fatalf("catalog too small: %d objects", len(known.Rows))
	}
	ids := []int64{
		asInt(t, known.Rows[0][0]),
		asInt(t, known.Rows[1][0]),
		asInt(t, known.Rows[2][0]),
	}
	for _, id := range ids {
		sql := fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = %d", id)
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, sql)
		if len(got.Rows) == 0 {
			t.Fatalf("dive for known objectId %d found no rows", id)
		}
		if got.CacheHit {
			continue // an earlier test ran this exact statement
		}
		if got.ChunksDispatched > 1 {
			t.Errorf("dive for objectId %d dispatched %d chunk jobs", id, got.ChunksDispatched)
		}
		if got.ChunksPruned != len(cl.Placement.Chunks())-got.ChunksDispatched {
			t.Errorf("dive pruning accounting: dispatched %d, pruned %d of %d placed",
				got.ChunksDispatched, got.ChunksPruned, len(cl.Placement.Chunks()))
		}
		if got.Class != ClassInteractive {
			t.Errorf("dive classified %v, want interactive", got.Class)
		}
	}

	// IN-list dives dispatch at most one job per distinct owning chunk.
	sql := fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE objectId IN (%d, %d, %d)", ids[0], ids[1], ids[2])
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, sql)
	if !got.CacheHit && got.ChunksDispatched > 3 {
		t.Errorf("3-id dive dispatched %d chunk jobs", got.ChunksDispatched)
	}
}

// cacheTestRuns counts TestResultCacheHitSkipsDispatch's invocations.
var cacheTestRuns atomic.Int64

// TestResultCacheHitSkipsDispatch: the second run of an identical
// statement is answered from the czar cache with zero chunk jobs.
func TestResultCacheHitSkipsDispatch(t *testing.T) {
	cl, oracle := shared(t)
	// The cluster is the process's: a literal of this invocation's own
	// keeps the statement unique under -count.
	sql := fmt.Sprintf("SELECT COUNT(*), MIN(objectId), MAX(decl_PS) FROM Object WHERE decl_PS < %.6f",
		33.25+float64(cacheTestRuns.Add(1))*1e-6)
	first, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run of a unique statement hit the cache")
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, first, want, "first run")
	// What the first caller does to its rows is its own business: the
	// cache holds the answer encoded, and a hit boxes rows of its own.
	for _, r := range first.Rows {
		for i := range r {
			r[i] = "overwritten by the first caller"
		}
	}
	second, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.ChunksDispatched != 0 {
		t.Fatalf("repeat run: CacheHit=%v ChunksDispatched=%d", second.CacheHit, second.ChunksDispatched)
	}
	sameAnswer(t, second, want, "cached run")

	st := cl.Status().Cache
	if !st.Enabled || st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache stats after hit: %+v", st)
	}

	// The async session path streams cached rows too.
	q, err := cl.Submit(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("session repeat did not hit the cache")
	}
	sameAnswer(t, res, want, "cached session run")
	p := q.Progress()
	if !p.Done || p.ChunksTotal != 0 || p.ChunksDispatched != 0 {
		t.Fatalf("cache-hit session progress %+v, want 0/0 chunks", p)
	}
}

// TestCacheInvalidationAcrossIngest is the acceptance criterion's
// invalidation scenario: a statement answered (and cached) before a
// table holds data must not serve the stale empty answer after the
// ingest lands.
func TestCacheInvalidationAcrossIngest(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}

	sql := "SELECT COUNT(*) FROM Object"
	empty, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 1 || asInt(t, empty.Rows[0][0]) != 0 {
		t.Fatalf("pre-ingest count = %+v, want 0", empty.Rows)
	}

	cat, err := datagen.Generate(
		datagen.Config{Seed: 5, ObjectsPerPatch: 120, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	objRows := make([]Row, 0, len(cat.Objects))
	for _, o := range cat.Objects {
		objRows = append(objRows, Row(datagen.ObjectUserRow(o)))
	}
	if _, err := cl.Ingest("Object", RowsOf(objRows)); err != nil {
		t.Fatal(err)
	}

	after, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("post-ingest query served the pre-ingest cache entry")
	}
	if got := asInt(t, after.Rows[0][0]); got != int64(len(objRows)) {
		t.Fatalf("post-ingest count = %d, want %d", got, len(objRows))
	}
	// And the fresh answer is itself cacheable.
	again, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || asInt(t, again.Rows[0][0]) != int64(len(objRows)) {
		t.Fatalf("re-run after ingest: hit=%v rows=%+v", again.CacheHit, again.Rows)
	}
}

// TestCacheInvalidationOnRepair: a placement-epoch bump (worker death +
// re-replication) invalidates cached entries rather than serving rows
// computed against the old placement.
func TestCacheInvalidationOnRepair(t *testing.T) {
	cl, oracle := availabilityClusterCache(t, 4, 2, DefaultClusterConfig(4).ResultCacheBytes)
	sql := "SELECT COUNT(*), SUM(objectId) FROM Object"
	if _, err := cl.Query(sql); err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeat before repair missed the cache")
	}

	victim := cl.Workers[0].Name()
	cl.Endpoint(victim).SetDown(true)
	workerState(t, cl, victim, WorkerDead, 10*time.Second)
	fullyReplicatedOff(t, cl, victim, 20*time.Second)

	after, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("post-repair query served a pre-repair cache entry")
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, after, want, "post-repair")
	if st := cl.Status().Cache; st.Invalidations == 0 {
		t.Fatalf("repair epoch bump recorded no invalidation: %+v", st)
	}
}

// TestDivesRaceRepair hammers index dives while a worker dies and the
// replication manager re-homes its chunks: a dive whose target chunk
// lost its replica must fall back through the normal retry path, and
// no answer may ever be wrong. Run under -race.
func TestDivesRaceRepair(t *testing.T) {
	cl, oracle := availabilityCluster(t, 4, 2)

	// Collect real objectIds and their oracle answers up front.
	ids, err := oracle.Query("SELECT objectId FROM Object ORDER BY objectId LIMIT 40")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids.Rows) < 10 {
		t.Fatalf("only %d objects in catalog", len(ids.Rows))
	}
	type probe struct {
		sql  string
		want *Result
	}
	var probes []probe
	for _, r := range ids.Rows {
		sql := fmt.Sprintf("SELECT objectId, ra_PS FROM Object WHERE objectId = %d", asInt(t, r[0]))
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{sql: sql, want: want})
	}

	stop := make(chan struct{})
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := probes[rng.Intn(len(probes))]
				got, err := cl.Query(p.sql)
				if err != nil {
					// Dispatch failures are allowed mid-repair; wrong
					// answers are not.
					continue
				}
				if len(got.Rows) != len(p.want.Rows) {
					wrong.Add(1)
					return
				}
			}
		}(g)
	}

	victim := cl.Workers[1].Name()
	cl.Endpoint(victim).SetDown(true)
	workerState(t, cl, victim, WorkerDead, 10*time.Second)
	fullyReplicatedOff(t, cl, victim, 20*time.Second)
	cl.Endpoint(victim).SetDown(false)
	workerState(t, cl, victim, WorkerAlive, 10*time.Second)

	close(stop)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong answers during dive/repair race", n)
	}
	checkBattery(t, cl, oracle, "after dive/repair race")
}

// TestCacheHitKeepsColdChunksCold: answering a repeat point query from
// the cache must not re-materialize evicted chunk tables — the routing
// metadata (index + cache) alone satisfies it.
func TestCacheHitKeepsColdChunksCold(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 21, ObjectsPerPatch: 300, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.WorkerMemoryBudget = 64 << 10 // force most chunks cold
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}

	mats := func() int64 {
		var n int64
		for _, w := range cl.Workers {
			n += w.ResidencyStats().Materializations
		}
		return n
	}

	sql := fmt.Sprintf("SELECT objectId, decl_PS FROM Object WHERE objectId = %d", cat.Objects[0].ObjectID)
	first, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || len(first.Rows) == 0 {
		t.Fatalf("first dive: hit=%v rows=%d", first.CacheHit, len(first.Rows))
	}
	before := mats()
	second, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeat dive missed the cache")
	}
	if after := mats(); after != before {
		t.Fatalf("cache hit materialized %d cold chunks", after-before)
	}
}

// TestRoutingAndCacheMatchOracle is the randomized three-way oracle:
// point, range, and cone queries on a pruning+caching cluster, a
// pruning/cache-disabled cluster, and the single-node oracle must all
// agree — and the ON cluster is probed twice per statement so cached
// answers are oracle-checked too.
func TestRoutingAndCacheMatchOracle(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 17, ObjectsPerPatch: 250, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	on, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(on.Close)
	offCfg := DefaultClusterConfig(4)
	offCfg.ChunkPruning = false
	offCfg.ResultCacheBytes = 0
	off, err := NewCluster(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(off.Close)
	oracle, err := NewOracle(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*Cluster{on, off} {
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
	}
	if err := oracle.Load(cat); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(409))
	randSQL := func() string {
		switch rng.Intn(4) {
		case 0: // point query / IN dive
			ids := make([]string, 1+rng.Intn(3))
			for i := range ids {
				ids[i] = fmt.Sprintf("%d", cat.Objects[rng.Intn(len(cat.Objects))].ObjectID)
			}
			if len(ids) == 1 {
				return "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = " + ids[0]
			}
			out := "SELECT COUNT(*), SUM(objectId) FROM Object WHERE objectId IN (" + ids[0]
			for _, id := range ids[1:] {
				out += ", " + id
			}
			return out + ")"
		case 1: // coordinate ranges (spatial route)
			lo := rng.Float64()*160 - 80
			return fmt.Sprintf(
				"SELECT COUNT(*), MIN(decl_PS) FROM Object WHERE decl_PS BETWEEN %.3f AND %.3f AND ra_PS < %.3f",
				lo, lo+5+rng.Float64()*20, rng.Float64()*360)
		case 2: // cone around a real object
			o := cat.Objects[rng.Intn(len(cat.Objects))]
			return fmt.Sprintf(
				"SELECT COUNT(*) FROM Object WHERE qserv_angSep(ra_PS, decl_PS, %.4f, %.4f) < %.3f",
				o.RA, o.Decl, 0.2+rng.Float64()*1.5)
		default: // non-spatial range (stats-pruning route)
			return fmt.Sprintf(
				"SELECT COUNT(*), MAX(uFlux_PS) FROM Object WHERE uFlux_PS < %g AND gFlux_PS > %g",
				rng.Float64()*1e-30, rng.Float64()*5e-31)
		}
	}

	for i := 0; i < 40; i++ {
		sql := randSQL()
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		gotOff, err := off.Query(sql)
		if err != nil {
			t.Fatalf("off-cluster %q: %v", sql, err)
		}
		sameAnswer(t, gotOff, want, "pruning/cache off: "+sql)
		if gotOff.CacheHit {
			t.Fatalf("cache-disabled cluster reported a cache hit: %q", sql)
		}
		gotOn, err := on.Query(sql)
		if err != nil {
			t.Fatalf("on-cluster %q: %v", sql, err)
		}
		sameAnswer(t, gotOn, want, "pruning/cache on: "+sql)
		cached, err := on.Query(sql)
		if err != nil {
			t.Fatalf("on-cluster repeat %q: %v", sql, err)
		}
		sameAnswer(t, cached, want, "cached repeat: "+sql)
		if !cached.CacheHit || cached.ChunksDispatched != 0 {
			t.Fatalf("repeat not served from cache: %q (hit=%v dispatched=%d)",
				sql, cached.CacheHit, cached.ChunksDispatched)
		}
	}
	if st := on.Status().Cache; st.Hits < 40 {
		t.Fatalf("cache hits = %d, want >= 40: %+v", st.Hits, st)
	}
}

// TestShowCacheThroughFrontend exercises the SHOW CACHE admin
// statement over the wire protocol via the database/sql driver.
func TestShowCacheThroughFrontend(t *testing.T) {
	cl, _ := shared(t)
	f := startFrontend(t, cl, DefaultFrontendConfig())
	db, err := sqldb.Open("qserv", "qserv://tester@"+f.Addr()+"/LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Warm the cache so the counters are non-trivial.
	probe := "SELECT COUNT(*) FROM Object WHERE decl_PS > 89.9"
	for i := 0; i < 2; i++ {
		var n int64
		if err := db.QueryRow(probe).Scan(&n); err != nil {
			t.Fatal(err)
		}
	}

	rows, err := db.Query("SHOW CACHE")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"Hits", "Misses", "HitRate", "Entries", "Bytes", "MaxBytes", "Evictions", "Invalidations", "Epoch"}
	if len(cols) != len(wantCols) {
		t.Fatalf("SHOW CACHE columns = %v", cols)
	}
	for i := range cols {
		if cols[i] != wantCols[i] {
			t.Fatalf("SHOW CACHE columns = %v, want %v", cols, wantCols)
		}
	}
	n := 0
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		n++
		if hits := asInt(t, vals[0]); hits < 1 {
			t.Fatalf("SHOW CACHE hits = %d after a warmed repeat", hits)
		}
		if maxBytes := asInt(t, vals[5]); maxBytes != DefaultClusterConfig(1).ResultCacheBytes {
			t.Fatalf("SHOW CACHE MaxBytes = %d", maxBytes)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("SHOW CACHE returned %d rows, want 1", n)
	}
}

// asInt coerces an integer-valued result cell.
func asInt(t *testing.T, v any) int64 {
	t.Helper()
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	t.Fatalf("not an integer value: %#v (%T)", v, v)
	return 0
}
