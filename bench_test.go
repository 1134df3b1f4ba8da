package qserv

// One benchmark per table and figure of the paper's evaluation (section
// 6), plus the ablations of DESIGN.md. Each benchmark drives the REAL
// distributed pipeline (parse -> plan -> dispatch over the fabric ->
// worker execution -> dump collection -> merge) on laptop-scale data;
// wall time measures this implementation. Paper-scale virtual seconds
// for the same experiments are produced by `go run ./cmd/qserv-bench`
// and recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/scanshare"
	"repro/internal/sqlengine"
)

var (
	benchOnce sync.Once
	benchCl   *Cluster
	benchErr  error
)

// benchConfig is the cluster configuration of every benchmark here that
// times the distributed pipeline: the czar result cache is off, because
// most of them repeat one fixed statement and would otherwise time a
// cache hit that dispatches no chunk query at all.
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

func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	benchOnce.Do(func() {
		cat, err := datagen.Generate(
			datagen.Config{Seed: 9, ObjectsPerPatch: 500, MeanSourcesPerObject: 3},
			datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 40},
		)
		if err != nil {
			benchErr = err
			return
		}
		benchCl, benchErr = NewCluster(benchConfig(8))
		if benchErr != nil {
			return
		}
		benchErr = benchCl.Load(cat)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCl
}

func benchQuery(b *testing.B, sql string) {
	b.Helper()
	cl := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := queryUncached(cl, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Catalog regenerates Table 1's size accounting.
func BenchmarkTable1Catalog(b *testing.B) {
	ch, err := partition.NewChunker(partition.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	var footprint int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		footprint = 0
		for _, name := range []string{"Object", "Source", "ForcedSource"} {
			info, err := reg.Table(name)
			if err != nil {
				b.Fatal(err)
			}
			footprint += info.FootprintBytes()
		}
	}
	b.ReportMetric(float64(footprint)/1e15, "PB-total")
}

// BenchmarkLV1ObjectRetrieval is Figure 2: point retrieval by objectId.
func BenchmarkLV1ObjectRetrieval(b *testing.B) {
	cl := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", 1+(i*37)%500)
		if err := queryUncached(cl, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLV2TimeSeries is Figure 3: one object's Source time series.
func BenchmarkLV2TimeSeries(b *testing.B) {
	cl := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(
			"SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d",
			1+(i*41)%500)
		if err := queryUncached(cl, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLV3SpatialFilter is Figure 4: a 1 deg^2 color-cut count.
func BenchmarkLV3SpatialFilter(b *testing.B) {
	benchQuery(b, `SELECT COUNT(*) FROM Object
		WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4
		AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30`)
}

// BenchmarkHV1Count is Figure 5: full-sky COUNT(*).
func BenchmarkHV1Count(b *testing.B) {
	benchQuery(b, "SELECT COUNT(*) FROM Object")
}

// BenchmarkHV2FullScan is Figure 6: the full-sky filter scan.
func BenchmarkHV2FullScan(b *testing.B) {
	benchQuery(b, `SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS,
		iFlux_PS, zFlux_PS, yFlux_PS FROM Object
		WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5`)
}

// BenchmarkHV3Density is Figure 7: per-chunk density aggregation.
func BenchmarkHV3Density(b *testing.B) {
	benchQuery(b, "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId")
}

// BenchmarkSHV1NearNeighbor is the section 6.2 near-neighbor join.
func BenchmarkSHV1NearNeighbor(b *testing.B) {
	benchQuery(b, `SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(2, 2, 8, 8)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2`)
}

// BenchmarkSHV2SourceJoin is the section 6.2 Object x Source join.
func BenchmarkSHV2SourceJoin(b *testing.B) {
	benchQuery(b, `SELECT o.objectId, s.sourceId FROM Object o, Source s
		WHERE qserv_areaspec_box(2, 2, 12, 12)
		AND o.objectId = s.objectId
		AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002`)
}

// BenchmarkScalingLV1 sweeps cluster sizes for Figure 8's workload by
// re-running the point query against clusters of growing worker counts.
func BenchmarkScalingLV1(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cat, err := datagen.Generate(
				datagen.Config{Seed: 9, ObjectsPerPatch: 200, MeanSourcesPerObject: 1},
				datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10 * workers},
			)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := NewCluster(benchConfig(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Load(cat); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sql := fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", 1+(i*13)%200)
				if err := queryUncached(cl, sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingHV sweeps cluster sizes for Figure 11's workloads.
func BenchmarkScalingHV(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cat, err := datagen.Generate(
				datagen.Config{Seed: 9, ObjectsPerPatch: 200, MeanSourcesPerObject: 0},
				datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10 * workers},
			)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := NewCluster(benchConfig(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Load(cat); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := queryUncached(cl, "SELECT COUNT(*) FROM Object"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingSHV1 sweeps cluster sizes for Figure 12's workload.
func BenchmarkScalingSHV1(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cat, err := datagen.Generate(
				datagen.Config{Seed: 9, ObjectsPerPatch: 300, MeanSourcesPerObject: 0},
				datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 8 * workers},
			)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := NewCluster(benchConfig(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Load(cat); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := queryUncached(cl, `SELECT count(*) FROM Object o1, Object o2
					WHERE qserv_areaspec_box(2, -4, 10, 4)
					AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingSHV2 sweeps cluster sizes for Figure 13's workload.
func BenchmarkScalingSHV2(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cat, err := datagen.Generate(
				datagen.Config{Seed: 9, ObjectsPerPatch: 300, MeanSourcesPerObject: 3},
				datagen.DuplicateConfig{DeclBands: 1, SourceDeclLimit: 54, MaxCopies: 8 * workers},
			)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := NewCluster(benchConfig(workers))
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
					WHERE qserv_areaspec_box(2, -4, 12, 4)
					AND o.objectId = s.objectId
					AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentMix is Figure 14: two scans plus two interactive
// streams in flight at once.
func BenchmarkConcurrentMix(b *testing.B) {
	cl := benchCluster(b)
	hv2 := `SELECT objectId, ra_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := queryUncached(cl, hv2)
				errs <- err
			}()
		}
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				err := queryUncached(cl, fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", 1+s))
				errs <- err
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------- ablation benchmarks (DESIGN.md A1-A7) ----------

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
// hash sharding (A1's losing side).
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
// sharding (A1's winning side).
func BenchmarkAblationSpatialPartition(b *testing.B) {
	rows := ablationPoints(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ShardedJoinCost(baseline.SpatialShards(rows, 8), 0.2, 1.0, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSubchunks compares O(n^2) vs O(kn) joins (A2).
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

// BenchmarkAblationSharedScan compares convoy vs independent scans (A4).
func BenchmarkAblationSharedScan(b *testing.B) {
	tbl := sqlengine.NewTable("T", sqlengine.Schema{{Name: "x", Type: 1}})
	var rows []sqlengine.Row
	for i := 0; i < 30000; i++ {
		rows = append(rows, sqlengine.Row{float64(i)})
	}
	if err := tbl.Insert(rows...); err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := scanshare.NewScanner(tbl, 512)
			tks := make([]*scanshare.Ticket, 8)
			for k := range tks {
				tks[k] = s.Attach(func(lo, hi int) {})
			}
			for _, tk := range tks {
				tk.Wait()
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				s, _ := scanshare.NewScanner(tbl, 512)
				s.Attach(func(lo, hi int) {}).Wait()
			}
		}
	})
}

// BenchmarkAblationIndex compares indexed vs scanned point queries (A5).
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

// BenchmarkAblationSubchunkCache measures repeated near-neighbor
// queries with and without worker subchunk caching (A6).
func BenchmarkAblationSubchunkCache(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "nocache"
		if cached {
			name = "cache"
		}
		b.Run(name, func(b *testing.B) {
			cat, err := datagen.Generate(
				datagen.Config{Seed: 9, ObjectsPerPatch: 300, MeanSourcesPerObject: 0},
				datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 10},
			)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchConfig(4)
			cfg.CacheSubChunks = cached
			cl, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Load(cat); err != nil {
				b.Fatal(err)
			}
			sql := `SELECT count(*) FROM Object o1, Object o2
				WHERE qserv_areaspec_box(2, -4, 8, 4)
				AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := queryUncached(cl, sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
