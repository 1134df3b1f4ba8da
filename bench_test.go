package qserv

// The testing.B benchmarks that have no other home. What a paper query
// class costs on this implementation — LV1-3, HV1-3, SHV1, the mixed load
// of Figure 14, ingest, restart — is measured by the repository benchmark
// (bench/, BENCHMARK.json), paired and oracle-checked; the paper-scale
// virtual seconds of the same classes come from `go run ./cmd/qserv-bench
// -exp paper`, and internal/simcluster's tests gate their shapes. Left
// here: SHV2, the one class bench/ has no slot for, and the ablations of
// the paper's design choices (sections 4.4, 5.5), each the one copy of
// its comparison. CI and `make bench-smoke` run the ablations once
// (-benchtime 1x) so they cannot rot.

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/sqlengine"
)

// benchConfig is the cluster configuration of every benchmark here that
// times the distributed pipeline: the czar result cache is off, because
// they repeat one fixed statement and would otherwise time a cache hit
// that dispatches no chunk query at all.
func benchConfig(workers int) ClusterConfig {
	cfg := DefaultClusterConfig(workers)
	cfg.ResultCacheBytes = 0
	return cfg
}

// queryUncached runs one statement, failing if the czar answered it
// from its result cache instead of executing it.
func queryUncached(cl *Cluster, sql string) error {
	res, err := cl.Query(sql)
	if err != nil {
		return err
	}
	if res.CacheHit {
		return fmt.Errorf("%q was a result-cache hit: the benchmark is not timing the pipeline", sql)
	}
	return nil
}

// BenchmarkSHV2SourceJoin is the section 6.2 Object x Source join, through
// the real pipeline (parse -> plan -> dispatch over the fabric -> worker
// execution -> result collection -> merge) on laptop-scale data.
func BenchmarkSHV2SourceJoin(b *testing.B) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 9, ObjectsPerPatch: 500, MeanSourcesPerObject: 3},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 40},
	)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := NewCluster(benchConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := queryUncached(cl, `SELECT o.objectId, s.sourceId FROM Object o, Source s
			WHERE qserv_areaspec_box(2, 2, 12, 12)
			AND o.objectId = s.objectId
			AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002`); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- ablations ----------

func ablationPoints(n int) []baseline.PointRow {
	patch, _ := datagen.GeneratePatch(datagen.Config{Seed: 3, ObjectsPerPatch: n, MeanSourcesPerObject: 0})
	full := datagen.Duplicate(patch, datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 30})
	rows := make([]baseline.PointRow, len(full.Objects))
	for i, o := range full.Objects {
		rows[i] = baseline.PointRow{ID: o.ObjectID, RA: o.RA, Decl: o.Decl}
	}
	return rows
}

// BenchmarkAblationHashPartition measures the near-neighbor cost under
// hash sharding (section 4.4: the losing side).
func BenchmarkAblationHashPartition(b *testing.B) {
	rows := ablationPoints(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ShardedJoinCost(baseline.HashShards(rows, 8), 0.2, 1.0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpatialPartition measures the same under spatial
// sharding (section 4.4: the winning side).
func BenchmarkAblationSpatialPartition(b *testing.B) {
	rows := ablationPoints(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ShardedJoinCost(baseline.SpatialShards(rows, 8), 0.2, 1.0, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSubchunks compares O(n^2) vs O(kn) joins (section 4.4).
func BenchmarkAblationSubchunks(b *testing.B) {
	rows := ablationPoints(60)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.NaiveNearNeighborCount(rows, 0.2)
		}
	})
	b.Run("subchunked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := baseline.GridNearNeighborCount(rows, 0.2, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIndex compares indexed vs scanned point queries (section 5.5).
func BenchmarkAblationIndex(b *testing.B) {
	mk := func(index bool) *sqlengine.Engine {
		e := sqlengine.New("LSST")
		e.MustExecute("CREATE TABLE t (objectId BIGINT, x DOUBLE)")
		var sb []byte
		sb = append(sb, "INSERT INTO t VALUES "...)
		for i := 0; i < 20000; i++ {
			if i > 0 {
				sb = append(sb, ',')
			}
			sb = append(sb, fmt.Sprintf("(%d, 1.0)", i)...)
		}
		e.MustExecute(string(sb))
		if index {
			e.MustExecute("CREATE INDEX i ON t (objectId)")
		}
		return e
	}
	b.Run("indexed", func(b *testing.B) {
		e := mk(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Query("SELECT * FROM t WHERE objectId = 12345"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		e := mk(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Query("SELECT * FROM t WHERE objectId = 12345"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
