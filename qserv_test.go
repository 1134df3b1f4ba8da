package qserv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sqlengine"
)

// lsstOracle builds the single-node oracle for a synthetic catalog
// through the public spec-driven Oracle API.
func lsstOracle(cat *Catalog) (*Oracle, error) {
	oracle, err := NewOracle(DefaultClusterConfig(8))
	if err != nil {
		return nil, err
	}
	if err := oracle.Load(cat); err != nil {
		return nil, err
	}
	return oracle, nil
}

// testCluster builds an 8-worker cluster over a partial-sky synthetic
// catalog and the matching single-node oracle.
func testCluster(t testing.TB) (*Cluster, *Oracle) {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 42, ObjectsPerPatch: 600, MeanSourcesPerObject: 3},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(DefaultClusterConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	oracle, err := lsstOracle(cat)
	if err != nil {
		t.Fatal(err)
	}
	return cl, oracle
}

var (
	sharedOnce    sync.Once
	sharedCluster *Cluster
	sharedOracle  *Oracle
)

// shared returns a lazily built cluster reused by read-only tests.
func shared(t testing.TB) (*Cluster, *Oracle) {
	t.Helper()
	sharedOnce.Do(func() {
		cat, err := datagen.Generate(
			datagen.Config{Seed: 42, ObjectsPerPatch: 600, MeanSourcesPerObject: 3},
			datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 30},
		)
		if err != nil {
			panic(err)
		}
		cl, err := NewCluster(DefaultClusterConfig(8))
		if err != nil {
			panic(err)
		}
		if err := cl.Load(cat); err != nil {
			panic(err)
		}
		oracle, err := lsstOracle(cat)
		if err != nil {
			panic(err)
		}
		sharedCluster, sharedOracle = cl, oracle
	})
	return sharedCluster, sharedOracle
}

// sameAnswer compares a distributed answer to the oracle's, order
// insensitive, with float tolerance. Cells compare as what they are, not
// as what they print as: an int64 7 is not a float64 7.
func sameAnswer(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, oracle has %d", label, len(got.Rows), len(want.Rows))
	}
	key := func(r []any) string {
		parts := make([]string, len(r))
		for i, v := range r {
			if f, ok := v.(float64); ok {
				parts[i] = fmt.Sprintf("float64:%.9g", f)
			} else {
				parts[i] = fmt.Sprintf("%T:%s", v, sqlengine.FormatValue(v))
			}
		}
		return strings.Join(parts, "|")
	}
	a := make([]string, len(got.Rows))
	b := make([]string, len(want.Rows))
	for i := range got.Rows {
		a[i] = key(got.Rows[i])
	}
	for i := range want.Rows {
		b[i] = key(want.Rows[i])
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d differs:\n got: %s\nwant: %s", label, i, a[i], b[i])
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	cfg := DefaultClusterConfig(2)
	cfg.Replication = 3
	if _, err := NewCluster(cfg); err == nil {
		t.Error("replication > workers should fail")
	}
	// The members are in-process workers or remote addresses, never both,
	// and the replication floor counts whichever they are.
	cfg = DefaultClusterConfig(2)
	cfg.WorkerAddrs = map[string]string{"w0": "127.0.0.1:1"}
	if err := cfg.Validate(); err == nil {
		t.Error("Workers and WorkerAddrs together should fail")
	}
	cfg.Workers, cfg.Replication = 0, 2
	if err := cfg.Validate(); err == nil {
		t.Error("replication > remote workers should fail")
	}
	cfg.Replication = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("one remote worker at replication 1: %v", err)
	}
}

// TestLV1ObjectRetrieval reproduces the paper's Low Volume 1 query
// class: point retrieval by objectId through the secondary index.
func TestLV1ObjectRetrieval(t *testing.T) {
	cl, oracle := shared(t)
	ids := []int64{1, 42, 601, 1205} // across patch copies
	for _, id := range ids {
		sql := fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", id)
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("LV1(%d): %v", id, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, sql)
		// Point queries must touch exactly one chunk.
		if got.ChunksDispatched > 1 {
			t.Errorf("LV1(%d) dispatched %d chunks, want <= 1", id, got.ChunksDispatched)
		}
	}
	// Missing id: zero chunks, empty well-formed result.
	got, err := cl.Query("SELECT * FROM Object WHERE objectId = 999999999")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || got.ChunksDispatched != 0 {
		t.Errorf("missing id: %d rows, %d chunks", len(got.Rows), got.ChunksDispatched)
	}
}

// TestLV2TimeSeries reproduces Low Volume 2: the Source time series of
// one object, including the UDF projection.
func TestLV2TimeSeries(t *testing.T) {
	cl, oracle := shared(t)
	sql := `SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl
		FROM Source WHERE objectId = 42`
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "LV2")
	if len(got.Rows) == 0 {
		t.Fatal("LV2 found no sources; pick a different objectId")
	}
}

// TestLV3SpatialFilter reproduces Low Volume 3: a spatially-restricted
// color-cut count, exercising areaspec rewriting and simple aggregation.
func TestLV3SpatialFilter(t *testing.T) {
	cl, oracle := shared(t)
	distSQL := `SELECT COUNT(*) FROM Object
		WHERE qserv_areaspec_box(1, 3, 20, 15)
		AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30`
	// The oracle has no areaspec; use the equivalent UDF predicate.
	oracleSQL := `SELECT COUNT(*) FROM Object
		WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 1, 3, 20, 15) = 1
		AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30`
	got, err := cl.Query(distSQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(oracleSQL)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "LV3")
	if want.Rows[0][0].(int64) == 0 {
		t.Fatal("LV3 counted nothing; box misses the data")
	}
	// Spatial restriction must not dispatch to the whole sky.
	if got.ChunksDispatched >= len(cl.Placement.Chunks()) {
		t.Errorf("LV3 dispatched all %d chunks", got.ChunksDispatched)
	}
}

// TestHV1Count reproduces High Volume 1: COUNT(*) over every partition.
func TestHV1Count(t *testing.T) {
	cl, oracle := shared(t)
	got, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "HV1")
	// The shared cluster caches results: an earlier test may have run
	// this exact statement, in which case zero dispatch is the point.
	if got.CacheHit {
		if got.ChunksDispatched != 0 {
			t.Errorf("HV1 cache hit dispatched %d chunks", got.ChunksDispatched)
		}
	} else if got.ChunksDispatched != len(cl.Placement.Chunks()) {
		t.Errorf("HV1 dispatched %d of %d chunks", got.ChunksDispatched, len(cl.Placement.Chunks()))
	}
}

// TestHV2FullSkyFilter reproduces High Volume 2: a full-table-scan
// color filter returning a row set.
func TestHV2FullSkyFilter(t *testing.T) {
	cl, oracle := shared(t)
	sql := `SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS,
		iFlux_PS, zFlux_PS, yFlux_PS
		FROM Object
		WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 4`
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "HV2")
	if len(want.Rows) == 0 {
		t.Fatal("HV2 matched nothing; loosen the color cut")
	}
}

// TestHV3Density reproduces High Volume 3: per-chunk aggregation with
// GROUP BY, the paper's object-density estimate.
func TestHV3Density(t *testing.T) {
	cl, oracle := shared(t)
	sql := `SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId
		FROM Object GROUP BY chunkId`
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "HV3")
	if len(got.Rows) < 2 {
		t.Fatalf("HV3 groups = %d; data not spread over chunks", len(got.Rows))
	}
}

// TestSHV1NearNeighbor reproduces Super High Volume 1: the subchunked
// near-neighbor self-join with overlap.
func TestSHV1NearNeighbor(t *testing.T) {
	cl, oracle := shared(t)
	distSQL := `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(2, 2, 8, 8)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2`
	// Oracle: restrict o1 to the box (chunk queries restrict the
	// partitioned side) and pair against everything.
	oracleSQL := `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 2, 2, 8, 8) = 1
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2`
	got, err := cl.Query(distSQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(oracleSQL)
	if err != nil {
		t.Fatal(err)
	}
	gotN := got.Rows[0][0].(int64)
	wantN := want.Rows[0][0].(int64)
	if gotN != wantN {
		t.Fatalf("SHV1 pairs = %d, oracle %d", gotN, wantN)
	}
	if wantN <= int64(0) {
		t.Fatal("SHV1 found no pairs; enlarge the radius")
	}
}

// TestNearNeighborPairsKeepIntegerIds: a near-neighbour chunk job is one
// statement per subchunk, and most find no pair. The result stream used to
// take its column types from the first statement's rows — DOUBLE when it
// had none — and the czar then converted the later statements' ids to
// float64 (30 of these 70 rows, 48 of the 210 over the box 0, -7, 40, 7; an
// id beyond 2^53 would lose bits). The types are the compiler's now: every
// id arrives as the int64 the oracle returns.
func TestNearNeighborPairsKeepIntegerIds(t *testing.T) {
	cl, oracle := shared(t)
	const pairs = `SELECT o1.objectId, o2.objectId FROM Object o1, Object o2
		WHERE %s AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05
		AND o1.objectId <> o2.objectId`
	got, err := cl.Query(fmt.Sprintf(pairs, "qserv_areaspec_box(0, -4, 20, 4)"))
	if err != nil {
		t.Fatal(err)
	}
	// The oracle's join is a nested loop: o2 is cut to the box grown by
	// more than the radius, which loses no pair and most of the loop.
	want, err := oracle.Query(fmt.Sprintf(pairs, `qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 0, -4, 20, 4) = 1
		AND qserv_ptInSphericalBox(o2.ra_PS, o2.decl_PS, 0, -5, 21, 5) = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) < 50 {
		t.Fatalf("oracle found %d pairs; the test wants a few per chunk job", len(want.Rows))
	}
	for _, r := range got.Rows {
		for i, v := range r {
			if _, ok := v.(int64); !ok {
				t.Fatalf("objectId in column %d arrived as %T %v", i, v, v)
			}
		}
	}
	sameAnswer(t, got, want, "near-neighbour pairs")
}

// TestSHV2SourcesNearObjects reproduces Super High Volume 2: the
// Object x Source join over a region with a distance predicate.
func TestSHV2SourcesNearObjects(t *testing.T) {
	cl, oracle := shared(t)
	distSQL := `SELECT o.objectId, s.sourceId FROM Object o, Source s
		WHERE qserv_areaspec_box(2, 2, 12, 12)
		AND o.objectId = s.objectId
		AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002`
	oracleSQL := `SELECT o.objectId, s.sourceId FROM Object o, Source s
		WHERE qserv_ptInSphericalBox(o.ra_PS, o.decl_PS, 2, 2, 12, 12) = 1
		AND o.objectId = s.objectId
		AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002`
	got, err := cl.Query(distSQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(oracleSQL)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "SHV2")
	if len(want.Rows) == 0 {
		t.Fatal("SHV2 matched nothing")
	}
}

// TestPaperRewriteExample reproduces the exact section 5.3 example.
func TestPaperRewriteExample(t *testing.T) {
	cl, oracle := shared(t)
	distSQL := `SELECT AVG(uFlux_SG) FROM Object
		WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04`
	oracleSQL := `SELECT AVG(uFlux_SG) FROM Object
		WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 0.0, 0.0, 10.0, 10.0) = 1 AND uRadius_PS > 0.04`
	got, err := cl.Query(distSQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(oracleSQL)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Rows[0][0].(float64)
	w := want.Rows[0][0].(float64)
	if math.Abs(g-w) > math.Abs(w)*1e-9 {
		t.Fatalf("AVG = %g, oracle %g", g, w)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cl, oracle := shared(t)
	sql := "SELECT objectId, ra_PS FROM Object WHERE decl_PS BETWEEN 0 AND 5 ORDER BY ra_PS DESC, objectId LIMIT 10"
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Order matters here: compare positionally.
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i][0].(int64) != want.Rows[i][0].(int64) {
			t.Fatalf("row %d: %v vs %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	cl, oracle := shared(t)
	sql := "SELECT objectId FROM Object WHERE decl_PS BETWEEN 0 AND 3 ORDER BY ra_PS LIMIT 5"
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: %d vs %d", len(got.Rows), len(want.Rows))
	}
	if len(got.Cols) != 1 {
		t.Fatalf("hidden order column leaked: %v", got.Cols)
	}
	for i := range got.Rows {
		if got.Rows[i][0].(int64) != want.Rows[i][0].(int64) {
			t.Fatalf("row %d: %v vs %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestMinMaxAggregates(t *testing.T) {
	cl, oracle := shared(t)
	sql := "SELECT MIN(ra_PS), MAX(ra_PS), SUM(zFlux_PS), COUNT(zFlux_PS) FROM Object"
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		g, _ := sqlengine.AsFloat(got.Rows[0][i])
		w, _ := sqlengine.AsFloat(want.Rows[0][i])
		if math.Abs(g-w) > math.Abs(w)*1e-9+1e-12 {
			t.Errorf("col %d: %g vs %g", i, g, w)
		}
	}
}

func TestUnpartitionedTableLocal(t *testing.T) {
	cl, _ := shared(t)
	got, err := cl.Query("SELECT filterName FROM Filter WHERE filterId = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].(string) != "r" {
		t.Fatalf("filter query: %v", got.Rows)
	}
	if got.ChunksDispatched != 0 {
		t.Errorf("unpartitioned query dispatched %d chunks", got.ChunksDispatched)
	}
}

func TestWorkerDeathFailover(t *testing.T) {
	// With replication 2, killing a worker mid-stream must not lose
	// queries: the czar fails over to the replica.
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 200, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.Replication = 2
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	baseline, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	// Kill one worker abruptly (fabric-level failure injection).
	cl.Endpoint(cl.Workers[0].Name()).SetDown(true)
	got, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("query with dead worker failed: %v", err)
	}
	if got.Rows[0][0].(int64) != baseline.Rows[0][0].(int64) {
		t.Fatalf("count changed after failover: %v vs %v", got.Rows[0][0], baseline.Rows[0][0])
	}
	// Revive; still correct.
	cl.Endpoint(cl.Workers[0].Name()).SetDown(false)
	again, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[0][0].(int64) != baseline.Rows[0][0].(int64) {
		t.Fatal("count changed after revival")
	}
}

func TestWorkerDeathWithoutReplicaFails(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 100, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	cl.Endpoint(cl.Workers[0].Name()).SetDown(true)
	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err == nil {
		t.Error("query should fail when an unreplicated worker is dead")
	}
}

func TestConcurrentQueries(t *testing.T) {
	cl, oracle := shared(t)
	want, err := oracle.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	wantN := want.Rows[0][0].(int64)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				res, err := cl.Query("SELECT COUNT(*) FROM Object")
				if err == nil && res.Rows[0][0].(int64) != wantN {
					err = fmt.Errorf("count = %v, want %d", res.Rows[0][0], wantN)
				}
				errs <- err
			case 1:
				_, err := cl.Query(fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", i*7+1))
				errs <- err
			default:
				_, err := cl.Query("SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId")
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergePipelineEquivalence drives the same catalog through a
// serialized (MergeParallelism=1, no top-K) and a pipelined cluster
// and checks both against the oracle: the merge pipeline must be a
// pure performance change.
func TestMergePipelineEquivalence(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 11, ObjectsPerPatch: 300, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 12},
	)
	if err != nil {
		t.Fatal(err)
	}
	serial := DefaultClusterConfig(4)
	serial.MergeParallelism = 1
	serial.TopKPushdown = false
	pipelined := DefaultClusterConfig(4)

	var clusters []*Cluster
	for _, cfg := range []ClusterConfig{serial, pipelined} {
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, cl)
	}
	oracle, err := lsstOracle(cat)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		// ORDER BY + LIMIT: deterministic total order (objectId breaks ties).
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 7",
		"SELECT objectId FROM Object WHERE decl_PS > 0 ORDER BY decl_PS, objectId LIMIT 12",
		// Aggregates, grouped and grand.
		"SELECT chunkId, COUNT(*) AS n, AVG(ra_PS), MIN(decl_PS), MAX(decl_PS) FROM Object GROUP BY chunkId",
		"SELECT COUNT(*), SUM(zFlux_PS), MIN(ra_PS), MAX(ra_PS) FROM Object",
		// No row: the oracle's stored-row-count shortcut used to answer one.
		"SELECT COUNT(*) FROM Object LIMIT 0",
	}
	for _, sql := range queries {
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		for ci, cl := range clusters {
			got, err := cl.Query(sql)
			if err != nil {
				t.Fatalf("cluster %d: %q: %v", ci, sql, err)
			}
			if strings.Contains(sql, "ORDER BY") && !strings.Contains(sql, "GROUP BY") {
				// Ordered results compare positionally.
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("cluster %d: %q: %d rows vs %d", ci, sql, len(got.Rows), len(want.Rows))
				}
				for i := range got.Rows {
					if got.Rows[i][0].(int64) != want.Rows[i][0].(int64) {
						t.Fatalf("cluster %d: %q row %d: %v vs %v", ci, sql, i, got.Rows[i], want.Rows[i])
					}
				}
				continue
			}
			sameAnswer(t, got, want, fmt.Sprintf("cluster %d: %s", ci, sql))
		}
	}
}

// TestTopKPushdownReducesResultBytes checks the acceptance criterion:
// for an ORDER BY + LIMIT query, pushdown must ship fewer dump-stream
// bytes to the czar without changing the answer.
func TestTopKPushdownReducesResultBytes(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 5, ObjectsPerPatch: 400, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	on := DefaultClusterConfig(4)
	off := DefaultClusterConfig(4)
	off.TopKPushdown = false

	sql := "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 5"
	var bytes [2]int64
	var rows [2][]Row
	for i, cfg := range []ClusterConfig{off, on} {
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Load(cat); err != nil {
			cl.Close()
			t.Fatal(err)
		}
		res, err := cl.Query(sql)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		bytes[i] = res.ResultBytes
		rows[i] = res.Rows
	}
	if len(rows[0]) != len(rows[1]) {
		t.Fatalf("row counts differ: %d vs %d", len(rows[0]), len(rows[1]))
	}
	for i := range rows[0] {
		if rows[0][i][0].(int64) != rows[1][i][0].(int64) {
			t.Fatalf("row %d differs: %v vs %v", i, rows[0][i], rows[1][i])
		}
	}
	if bytes[1] >= bytes[0] {
		t.Errorf("top-K pushdown did not reduce result bytes: %d (on) vs %d (off)", bytes[1], bytes[0])
	}
}

func TestQueryErrors(t *testing.T) {
	cl, _ := shared(t)
	for _, sql := range []string{
		"SELECT * FROM NoSuchTable",
		"SELECT COUNT(DISTINCT objectId) FROM Object",
		"NOT EVEN SQL",
		"SELECT nosuchcol FROM Object",
	} {
		if _, err := cl.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestRetriesReported(t *testing.T) {
	cat, _ := datagen.Generate(
		datagen.Config{Seed: 3, ObjectsPerPatch: 100, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 4},
	)
	cfg := DefaultClusterConfig(3)
	cfg.Replication = 2
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	cl.Endpoint(cl.Workers[1].Name()).SetDown(true)
	got, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].(int64) == 0 {
		t.Fatal("no data")
	}
	// With a dead primary on some chunks, the accounting surfaces work:
	// either failover happened at write time (no retry counted) or at
	// read time (retries counted); both must answer correctly.
	_ = got.Retries
}

// TestFractionalModuloQuery: a fractional modulo divisor used to
// truncate to integer zero inside evalArith and panic the worker scan
// lane, taking the whole query (and test process) down. Through the
// full distributed path the expression must evaluate — and match the
// oracle — instead.
func TestFractionalModuloQuery(t *testing.T) {
	cl, oracle := shared(t)
	for _, sql := range []string{
		"SELECT objectId, ra_PS % 0.5 AS m FROM Object ORDER BY objectId LIMIT 20",
		"SELECT COUNT(*) FROM Object WHERE decl_PS % 0.25 > 0.1",
	} {
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, sql)
	}
}

// TestPlaceholderSpellingInALiteral: a literal that spells %CC% or %SS% — a
// natural LIKE pattern — reaches the workers as it was written. The planner
// used to substitute chunk and subchunk ids into every such spelling of its
// placeholders, so the cluster counted no row where the oracle counts all.
func TestPlaceholderSpellingInALiteral(t *testing.T) {
	cl, oracle := shared(t)
	const literals = "'a%CC%' LIKE '%CC%' AND 'x%SS%' LIKE '%SS%%'"
	for _, c := range []struct{ sql, oracleSQL string }{
		{"SELECT COUNT(*) FROM Object WHERE " + literals, ""},
		{"SELECT objectId FROM Object WHERE ra_PS BETWEEN 3 AND 4 AND " + literals, ""},
		{`SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(2, 2, 8, 8)
			AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2 AND ` + literals,
			`SELECT count(*) FROM Object o1, Object o2 WHERE qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 2, 2, 8, 8) = 1
			AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2 AND ` + literals},
	} {
		if c.oracleSQL == "" {
			c.oracleSQL = c.sql
		}
		got, err := cl.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		want, err := oracle.Query(c.oracleSQL)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, c.sql)
		if len(want.Rows) == 0 || want.Rows[0][0] == int64(0) {
			t.Fatalf("%s: the oracle finds nothing", c.sql)
		}
	}
}

// TestNearNeighbourColumnsAnswerAsTheOracle: a worker copies into its
// subchunk tables only the columns a job's statements name (and the
// position columns), so near-neighbour statements that read every column
// (*, o1.*), a column only their ORDER BY or GROUP BY names, or columns
// spelled in another case than the catalog's answer as the oracle does.
func TestNearNeighbourColumnsAnswerAsTheOracle(t *testing.T) {
	cl, oracle := shared(t)
	const near = ` FROM Object o1, Object o2 WHERE %s
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05 AND o1.objectId <> o2.objectId`
	const box = `qserv_areaspec_box(0, -4, 20, 4)`
	const oracleBox = `qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 0, -4, 20, 4) = 1
		AND qserv_ptInSphericalBox(o2.ra_PS, o2.decl_PS, 0, -5, 21, 5) = 1`
	for _, sel := range []string{
		"SELECT *",
		"SELECT o1.*, o2.objectId",
		"SELECT o1.objectId",
		"SELECT o1.objectId AS id1, o2.objectId AS id2" + near + " ORDER BY o2.uFlux_PS, id1, id2",
		// Two items of one output name beside a hidden ORDER BY column.
		"SELECT o1.objectId, o2.objectId" + near + " ORDER BY o2.uFlux_PS",
		"SELECT COUNT(*) AS n" + near + " GROUP BY o2.iFlux_PS",
		"SELECT O1.OBJECTID, o2.Ra_Ps, O2.zflux_ps" + near + " AND o1.GFLUX_ps > 0",
	} {
		sql := sel
		if !strings.Contains(sel, " FROM ") {
			sql += near
		}
		got, err := cl.Query(fmt.Sprintf(sql, box))
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		want, err := oracle.Query(fmt.Sprintf(sql, oracleBox))
		if err != nil {
			t.Fatalf("%s: oracle: %v", sel, err)
		}
		if len(want.Rows) < 20 {
			t.Fatalf("%s: the oracle answers %d rows; the test wants more", sel, len(want.Rows))
		}
		if !slices.EqualFunc(got.Cols, want.Cols, strings.EqualFold) {
			t.Errorf("%s: columns %v, the oracle's %v", sel, got.Cols, want.Cols)
		}
		sameAnswer(t, got, want, sel)
	}
}

// TestAnswersColdAndWarm: the czar plans a statement's shape once and binds
// the template for every statement of the shape after it. Every statement of
// a battery — the availability and ingest batteries, and statements that
// share a shape with other literals (LV1 dives, LV3 boxes, flux cuts, a
// result column that spells a literal, a LIMIT) — answers as the oracle
// does, planned cold the first time its shape is seen and warm after; the
// second pass answers each as the first did.
func TestAnswersColdAndWarm(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 46, ObjectsPerPatch: 300, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 1, SourceDeclLimit: 54, MaxCopies: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.ResultCacheBytes = 0 // every pass executes
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	oracle, err := lsstOracle(cat)
	if err != nil {
		t.Fatal(err)
	}
	stmts := slices.Concat(availabilityBattery, ingestBattery[:3], ingestBattery[4:])
	for i, o := range []int{1, 7, len(cat.Objects) / 2, len(cat.Objects) - 1} {
		obj := cat.Objects[o]
		stmts = append(stmts,
			fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", obj.ObjectID),
			fmt.Sprintf("SELECT objectId, taiMidPoint, fluxToAbMag(psfFlux) FROM Source WHERE objectId = %d", obj.ObjectID),
			fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN %.4f AND %.4f AND decl_PS BETWEEN %.4f AND %.4f AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND %.6f",
				obj.RA-0.5, obj.RA+0.5, obj.Decl-0.5, obj.Decl+0.5, 30+float64(i)*1e-6),
			fmt.Sprintf("SELECT COUNT(*), SUM(ra_PS * %d) FROM Object WHERE fluxToAbMag(rFlux_PS) < %.3f", i+2, 24+float64(i)/4),
			fmt.Sprintf("SELECT objectId + %d, ra_PS FROM Object WHERE decl_PS > %d ORDER BY ra_PS, objectId LIMIT 5", i, i-3),
		)
	}
	first := map[string]*Result{}
	for pass := range 2 {
		for _, sql := range stmts {
			got, err := cl.Query(sql)
			if err != nil {
				t.Fatalf("pass %d: %s: %v", pass, sql, err)
			}
			want, err := oracle.Query(sql)
			if err != nil {
				t.Fatalf("oracle: %s: %v", sql, err)
			}
			label := fmt.Sprintf("pass %d: %s", pass, sql)
			sameAnswer(t, got, want, label)
			if pass == 0 {
				first[sql] = got
				continue
			}
			sameAnswer(t, got, first[sql], label+" (against pass 0)")
			if !slices.Equal(got.Cols, first[sql].Cols) {
				t.Errorf("%s: columns %q, pass 0 %q", label, got.Cols, first[sql].Cols)
			}
		}
	}
}
