// Command qserv-bench regenerates every table and figure of the paper's
// evaluation (section 6) plus the ablations listed in DESIGN.md.
//
// Real chunk queries run on real (scaled-down) synthetic data through
// the full planner/worker pipeline; reported times are virtual seconds
// from the calibrated cost model at the paper's 150-node scale (see
// internal/simcluster). Shapes — who wins, what grows, where queues
// form — come from actual executions.
//
// Usage:
//
//	qserv-bench -exp all
//	qserv-bench -exp lv1 -objects 100
//	qserv-bench -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	qserv "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/htm"
	"repro/internal/partition"
	"repro/internal/scanshare"
	"repro/internal/simcluster"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
)

var (
	expFlag     = flag.String("exp", "all", "experiment id or 'all'")
	listFlag    = flag.Bool("list", false, "list experiment ids")
	objectsFlag = flag.Int("objects", 60, "synthetic objects per PT1.1 patch")
	seedFlag    = flag.Int64("seed", 1, "data generation seed")
	jsonFlag    = flag.String("json", "", "write machine-readable benchmark records to this JSON path")
)

type experiment struct {
	id, title string
	run       func(ctx *benchCtx) error
}

// benchGate is one hard-gate verdict inside an experiment's JSON record.
type benchGate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// benchRecord is one experiment's machine-readable outcome (-json).
type benchRecord struct {
	Experiment string             `json:"experiment"`
	Title      string             `json:"title"`
	OK         bool               `json:"ok"`
	Error      string             `json:"error,omitempty"`
	Seconds    float64            `json:"seconds"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Gates      []benchGate        `json:"gates,omitempty"`
}

// benchCtx lazily shares the expensive simulated cluster between
// experiments, and carries the JSON record of the experiment currently
// running (nil without -json).
type benchCtx struct {
	once sync.Once
	cl   *simcluster.Cluster
	err  error

	cur *benchRecord
}

// metric records one named measurement into the running experiment's
// JSON record; a no-op without -json.
func (c *benchCtx) metric(name string, v float64) {
	if c.cur == nil {
		return
	}
	if c.cur.Metrics == nil {
		c.cur.Metrics = map[string]float64{}
	}
	c.cur.Metrics[name] = v
}

// gate records one hard-gate verdict into the running experiment's
// JSON record; a no-op without -json.
func (c *benchCtx) gate(name string, pass bool, detail string) {
	if c.cur == nil {
		return
	}
	c.cur.Gates = append(c.cur.Gates, benchGate{Name: name, Pass: pass, Detail: detail})
}

func (c *benchCtx) cluster() (*simcluster.Cluster, error) {
	c.once.Do(func() {
		fmt.Printf("# building 150-node simulated cluster (paper geometry, %d objects/patch)...\n", *objectsFlag)
		cat, err := datagen.Generate(
			datagen.Config{Seed: *seedFlag, ObjectsPerPatch: *objectsFlag, MeanSourcesPerObject: 2},
			datagen.DefaultDuplicateConfig(),
		)
		if err != nil {
			c.err = err
			return
		}
		c.cl, c.err = simcluster.New(simcluster.PaperConfig(), cat)
		if c.err == nil {
			fmt.Printf("# loaded: %d objects, %d sources, %d chunks on 150 nodes\n\n",
				len(cat.Objects), len(cat.Sources), len(c.cl.PlacedChunks()))
		}
	})
	return c.cl, c.err
}

func main() {
	flag.Parse()
	exps := experiments()
	if *listFlag {
		for _, e := range exps {
			fmt.Printf("%-18s %s\n", e.id, e.title)
		}
		return
	}
	ctx := &benchCtx{}
	var records []benchRecord
	ran := false
	for _, e := range exps {
		if *expFlag != "all" && e.id != *expFlag {
			continue
		}
		ran = true
		fmt.Printf("==== %s — %s ====\n", e.id, e.title)
		rec := benchRecord{Experiment: e.id, Title: e.title}
		if *jsonFlag != "" {
			ctx.cur = &rec
		}
		t0 := time.Now()
		err := e.run(ctx)
		rec.Seconds = time.Since(t0).Seconds()
		rec.OK = err == nil
		ctx.cur = nil
		if err != nil {
			rec.Error = err.Error()
		}
		records = append(records, rec)
		if err != nil {
			// Hard-gate failure: flush the records gathered so far so CI
			// artifacts still show what ran, then fail the process.
			writeJSON(records)
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(1)
	}
	writeJSON(records)
}

// benchEnvelope is the -json file format: the generation parameters
// pinned alongside the records so a record is comparable across runs.
type benchEnvelope struct {
	Schema    int           `json:"schema"`
	Generated string        `json:"generated"`
	Objects   int           `json:"objects"`
	Seed      int64         `json:"seed"`
	Records   []benchRecord `json:"records"`
}

// writeJSON renders the run's records to -json; a no-op without the
// flag. An existing file with the same schema is merged into — records
// from earlier invocations survive, same-experiment records are
// replaced — so `make bench-smoke` can accrete one artifact across
// its per-experiment runs.
func writeJSON(records []benchRecord) {
	if *jsonFlag == "" {
		return
	}
	if prev, err := os.ReadFile(*jsonFlag); err == nil {
		var old benchEnvelope
		if json.Unmarshal(prev, &old) == nil && old.Schema == 1 {
			fresh := make(map[string]bool, len(records))
			for _, r := range records {
				fresh[r.Experiment] = true
			}
			var kept []benchRecord
			for _, r := range old.Records {
				if !fresh[r.Experiment] {
					kept = append(kept, r)
				}
			}
			records = append(kept, records...)
		}
	}
	out := benchEnvelope{
		Schema:    1,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Objects:   *objectsFlag,
		Seed:      *seedFlag,
		Records:   records,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: marshal -json records: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *jsonFlag, err)
		os.Exit(1)
	}
	fmt.Printf("# wrote %d record(s) to %s\n", len(records), *jsonFlag)
}

func experiments() []experiment {
	return []experiment{
		{"table1", "Table 1: key catalog tables of the final data release", runTable1},
		{"lv1", "Figure 2: Low Volume 1 (object retrieval by objectId)", mkLV(1, "~4 s flat")},
		{"lv2", "Figure 3: Low Volume 2 (time series from Source)", mkLV(2, "~4 s flat")},
		{"lv3", "Figure 4: Low Volume 3 (spatially-restricted filter)", mkLV(3, "~4 s flat")},
		{"hv1", "Figure 5: High Volume 1 (full-sky COUNT(*))", mkHV(1, "20-30 s, dispatch-dominated")},
		{"hv2", "Figure 6: High Volume 2 (full-sky filter scan)", mkHV(2, "150-180 s cached, ~420 s uncached")},
		{"hv3", "Figure 7: High Volume 3 (density GROUP BY chunkId)", mkHV(3, "faster than HV2 (small results)")},
		{"shv1", "SHV1 (section 6.2): near-neighbor self-join, 100 deg^2", runSHV1},
		{"shv2", "SHV2 (section 6.2): sources-not-near-objects join, 150 deg^2", runSHV2},
		{"scale-lv", "Figures 8-10: LV weak scaling over 40/100/150 nodes", runScaleLV},
		{"scale-hv", "Figure 11: HV weak scaling over 40/100/150 nodes", runScaleHV},
		{"scale-shv", "Figures 12-13: SHV weak scaling over 40/100/150 nodes", runScaleSHV},
		{"concurrency", "Figure 14: 2xHV2 + LV1 stream + LV2 stream", runConcurrency},
		{"ablate-hash", "A1: spatial vs hash partitioning for the near-neighbor join", runAblateHash},
		{"ablate-subchunk", "A2: subchunked O(kn) vs naive O(n^2) join", runAblateSubchunk},
		{"ablate-overlap", "A3: overlap completeness for cross-border pairs", runAblateOverlap},
		{"ablate-scanshare", "A4: shared scanning vs independent scans", runAblateScanshare},
		{"ablate-scanshare-live", "A4b: shared scans + two-class scheduler on the live worker path", runAblateScanshareLive},
		{"merge-pipeline", "A6: streaming parallel merge + top-K pushdown at the czar", runMergePipeline},
		{"kill-latency", "A8: Cancel() to worker-slot reclamation on the live path", runKillLatency},
		{"frontend", "A13: connection-scale frontend — streaming v2, 1k-conn storm, admission shedding", runFrontendBench},
		{"ingest", "A9: parallel fabric-routed ingest vs serialized shipping", runIngestBench},
		{"failover", "A10: worker death under load — detect, fail over, self-heal replication", runFailover},
		{"restart", "A11: durable chunk store — restart-to-serving vs re-replication", runRestart},
		{"paging", "A12: larger-than-RAM workers — lazy materialization + eviction under a memory budget", runPaging},
		{"pointquery", "A14: point-query fast path — index dives, result cache, ingest invalidation", runPointQuery},
		{"telemetry", "A15: cluster-wide telemetry — tracing overhead, EXPLAIN ANALYZE, /metrics exposition", runTelemetry},
		{"ablate-index", "A5: objectId index vs full scan for point queries", runAblateIndex},
		{"ablate-htm", "A7: HTM vs RA/decl box partition area variation", runAblateHTM},
	}
}

func runTable1(ctx *benchCtx) error {
	chunker, err := partition.NewChunker(partition.PaperConfig())
	if err != nil {
		return err
	}
	reg := datagen.LSSTRegistry(chunker)
	fmt.Printf("%-14s %14s %10s %12s %12s\n", "table", "# rows", "row size", "footprint", "paper")
	paper := map[string]string{"Object": "48TB", "Source": "1.3PB", "ForcedSource": "620TB"}
	for _, name := range []string{"Object", "Source", "ForcedSource"} {
		info, err := reg.Table(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %14.3g %9dB %11.3gTB %12s\n",
			name, float64(info.PaperRows), info.PaperRowBytes,
			float64(info.FootprintBytes())/1e12, paper[name])
	}
	return nil
}

func mkLV(kind int, paperNote string) func(*benchCtx) error {
	return func(ctx *benchCtx) error {
		cl, err := ctx.cluster()
		if err != nil {
			return err
		}
		series, err := cl.LVSeries(kind, 20, 42)
		if err != nil {
			return err
		}
		fmt.Printf("paper: %s\n", paperNote)
		fmt.Printf("%-12s %s\n", "execution", "virtual seconds")
		for i, v := range series {
			fmt.Printf("%-12d %.2f\n", i+1, v)
		}
		fmt.Printf("mean: %.2f s\n", mean(series))
		return nil
	}
}

func mkHV(kind int, paperNote string) func(*benchCtx) error {
	return func(ctx *benchCtx) error {
		cl, err := ctx.cluster()
		if err != nil {
			return err
		}
		fmt.Printf("paper: %s\n", paperNote)
		for run := 1; run <= 3; run++ {
			t, err := cl.HVTime(kind)
			if err != nil {
				return err
			}
			fmt.Printf("run %d: %.1f s  (%d chunks, %d result rows)\n",
				run, t.Elapsed, t.Chunks, t.Rows)
		}
		return nil
	}
}

func runSHV1(ctx *benchCtx) error {
	cl, err := ctx.cluster()
	if err != nil {
		return err
	}
	fmt.Println("paper: 667.19 s and 660.25 s over two random 100 deg^2 regions")
	for i, seed := range []int64{3, 11} {
		t, err := cl.SHVTime(1, 100, seed)
		if err != nil {
			return err
		}
		fmt.Printf("region %d: %.1f s  (%d chunks, %d local pairs)\n", i+1, t.Elapsed, t.Chunks, t.Rows)
	}
	return nil
}

func runSHV2(ctx *benchCtx) error {
	cl, err := ctx.cluster()
	if err != nil {
		return err
	}
	fmt.Println("paper: 5:20:38, 2:06:56, 2:41:03 over three random 150 deg^2 regions")
	for i, seed := range []int64{5, 13, 21} {
		t, err := cl.SHVTime(2, 150, seed)
		if err != nil {
			return err
		}
		fmt.Printf("region %d: %.0f s (%.2f h)  (%d chunks)\n", i+1, t.Elapsed, t.Elapsed/3600, t.Chunks)
	}
	return nil
}

var scaleNodes = []int{40, 100, 150}

func runScaleLV(ctx *benchCtx) error {
	cl, err := ctx.cluster()
	if err != nil {
		return err
	}
	fmt.Println("paper: flat ~4 s at every node count (Figures 8-10)")
	fmt.Printf("%-8s %8s %8s %8s\n", "class", "40", "100", "150")
	for _, class := range []string{"LV1", "LV2", "LV3"} {
		fmt.Printf("%-8s", class)
		for _, n := range scaleNodes {
			v, err := cl.WeakScalingPoint(class, n, 3, 17)
			if err != nil {
				return err
			}
			fmt.Printf(" %7.2fs", v)
		}
		fmt.Println()
	}
	return nil
}

func runScaleHV(ctx *benchCtx) error {
	cl, err := ctx.cluster()
	if err != nil {
		return err
	}
	fmt.Println("paper: HV1/HV3 grow ~linearly with chunk count; HV2 ~flat (Figure 11)")
	fmt.Printf("%-8s %8s %8s %8s\n", "class", "40", "100", "150")
	for _, class := range []string{"HV1", "HV2", "HV3"} {
		fmt.Printf("%-8s", class)
		for _, n := range scaleNodes {
			v, err := cl.WeakScalingPoint(class, n, 1, 17)
			if err != nil {
				return err
			}
			fmt.Printf(" %7.1fs", v)
		}
		fmt.Println()
	}
	return nil
}

func runScaleSHV(ctx *benchCtx) error {
	cl, err := ctx.cluster()
	if err != nil {
		return err
	}
	fmt.Println("paper: imperfect scaling, non-monotonic at 100 nodes (Figures 12-13)")
	fmt.Printf("%-8s %9s %9s %9s\n", "class", "40", "100", "150")
	for _, class := range []string{"SHV1", "SHV2"} {
		fmt.Printf("%-8s", class)
		for _, n := range scaleNodes {
			v, err := cl.WeakScalingPoint(class, n, 1, 23)
			if err != nil {
				return err
			}
			fmt.Printf(" %8.0fs", v)
		}
		fmt.Println()
	}
	return nil
}

func runConcurrency(ctx *benchCtx) error {
	cl, err := ctx.cluster()
	if err != nil {
		return err
	}
	scObj, err := cl.ScaleFor("Object", true)
	if err != nil {
		return err
	}
	scSrc, err := cl.ScaleFor("Source", true)
	if err != nil {
		return err
	}
	ids := cl.SampleObjectIDs(8)
	if len(ids) < 8 {
		return fmt.Errorf("not enough sampled ids")
	}
	hv2 := simcluster.StreamQuery{
		SQL:   "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5",
		Scale: scObj, Label: "HV2",
	}
	lv1 := func(id int64) simcluster.StreamQuery {
		return simcluster.StreamQuery{SQL: fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", id),
			Scale: scObj, Label: "LV1"}
	}
	lv2 := func(id int64) simcluster.StreamQuery {
		return simcluster.StreamQuery{SQL: fmt.Sprintf(
			"SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d", id),
			Scale: scSrc, Label: "LV2"}
	}
	solo, err := cl.Run([]simcluster.QuerySpec{{SQL: hv2.SQL, Scale: scObj, Label: "HV2-solo"}})
	if err != nil {
		return err
	}
	streams := [][]simcluster.StreamQuery{
		{hv2},
		{hv2},
		{lv1(ids[0]), lv1(ids[1]), lv1(ids[2]), lv1(ids[3])},
		{lv2(ids[4]), lv2(ids[5]), lv2(ids[6]), lv2(ids[7])},
	}
	timings, err := cl.RunStreams(streams, 1.0)
	if err != nil {
		return err
	}
	fmt.Printf("paper: concurrent HV2 ~2x solo (5:53 vs 2.5-3 min); LV queries stuck in FIFO queues\n")
	fmt.Printf("HV2 solo: %.1f s\n", solo[0].Elapsed)
	names := []string{"HV2 stream A", "HV2 stream B", "LV1 stream", "LV2 stream"}
	for si, st := range timings {
		fmt.Printf("%-13s", names[si])
		for _, q := range st {
			fmt.Printf("  [%.0f..%.0f]=%.1fs", q.Arrival, q.End, q.Elapsed)
		}
		fmt.Println()
	}
	fmt.Printf("HV2 concurrent/solo ratios: %.2fx, %.2fx\n",
		timings[0][0].Elapsed/solo[0].Elapsed, timings[1][0].Elapsed/solo[0].Elapsed)
	return nil
}

// ---------- ablations ----------

func ablationRows(n int, seed int64) []baseline.PointRow {
	patch, _ := datagen.GeneratePatch(datagen.Config{Seed: seed, ObjectsPerPatch: n, MeanSourcesPerObject: 0})
	full := datagen.Duplicate(patch, datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 60})
	rows := make([]baseline.PointRow, len(full.Objects))
	for i, o := range full.Objects {
		rows[i] = baseline.PointRow{ID: o.ObjectID, RA: o.RA, Decl: o.Decl}
	}
	return rows
}

func runAblateHash(ctx *benchCtx) error {
	rows := ablationRows(60, 2)
	const shards = 20
	hashCost, err := baseline.ShardedJoinCost(baseline.HashShards(rows, shards), 0.2, 1.0, false)
	if err != nil {
		return err
	}
	spatialCost, err := baseline.ShardedJoinCost(baseline.SpatialShards(rows, shards), 0.2, 1.0, true)
	if err != nil {
		return err
	}
	fmt.Printf("claim (section 4.4): hash partitioning eliminates spatial optimizations\n")
	fmt.Printf("near-neighbor pair evaluations over %d rows, %d shards:\n", len(rows), shards)
	fmt.Printf("  hash partitioning:    %d\n", hashCost)
	fmt.Printf("  spatial partitioning: %d  (%.1fx fewer)\n", spatialCost, float64(hashCost)/float64(spatialCost))
	return nil
}

func runAblateSubchunk(ctx *benchCtx) error {
	rows := ablationRows(80, 3)
	radius := 0.2
	pairsNaive, evalNaive := baseline.NaiveNearNeighborCount(rows, radius)
	pairsGrid, evalGrid, err := baseline.GridNearNeighborCount(rows, radius, 0.5)
	if err != nil {
		return err
	}
	if pairsNaive != pairsGrid {
		return fmt.Errorf("answers diverge: %d vs %d", pairsNaive, pairsGrid)
	}
	fmt.Printf("claim (section 4.4): subchunks turn O(n^2) into O(kn)\n")
	fmt.Printf("rows=%d radius=%.2f: pairs found=%d (identical)\n", len(rows), radius, pairsNaive)
	fmt.Printf("  naive evaluations:      %d\n", evalNaive)
	fmt.Printf("  subchunked evaluations: %d  (%.1fx fewer)\n", evalGrid, float64(evalNaive)/float64(evalGrid))
	return nil
}

func runAblateOverlap(ctx *benchCtx) error {
	// Strict partitioning loses cross-border pairs; overlap restores
	// them. Count pairs with and without the overlap margin.
	rows := ablationRows(80, 4)
	radius := 0.2
	want, _ := baseline.NaiveNearNeighborCount(rows, radius)
	// "No overlap": grid join where each point only sees its own cell.
	type key struct{ x, y int }
	cell := 0.5
	grid := map[key][]baseline.PointRow{}
	for _, r := range rows {
		k := key{int(r.RA / cell), int((r.Decl + 90) / cell)}
		grid[k] = append(grid[k], r)
	}
	var strict int64
	for _, members := range grid {
		for _, a := range members {
			for _, b := range members {
				if sphgeom.AngSepDeg(a.RA, a.Decl, b.RA, b.Decl) < radius {
					strict++
				}
			}
		}
	}
	fmt.Printf("claim (section 4.4): strict partitioning loses nearby cross-border pairs\n")
	fmt.Printf("  true pairs:             %d\n", want)
	fmt.Printf("  strict partitioning:    %d  (lost %d)\n", strict, want-strict)
	withOverlap, _, err := baseline.GridNearNeighborCount(rows, radius, cell)
	if err != nil {
		return err
	}
	fmt.Printf("  with overlap:           %d  (lost %d)\n", withOverlap, want-withOverlap)
	return nil
}

func runAblateScanshare(ctx *benchCtx) error {
	tbl := sqlengine.NewTable("T", sqlengine.Schema{
		{Name: "id", Type: sqlparse.TypeInt}, {Name: "x", Type: sqlparse.TypeFloat},
	})
	var rows []sqlengine.Row
	for i := 0; i < 50000; i++ {
		rows = append(rows, sqlengine.Row{int64(i), float64(i)})
	}
	if err := tbl.Insert(rows...); err != nil {
		return err
	}
	const k = 10
	s, err := scanshare.NewScanner(tbl, 512)
	if err != nil {
		return err
	}
	tickets := make([]*scanshare.Ticket, k)
	for i := 0; i < k; i++ {
		tickets[i] = s.Attach(func(lo, hi int) {})
	}
	for _, tk := range tickets {
		tk.Wait()
	}
	shared := s.BytesRead()
	independent := scanshare.IndependentScanBytes(tbl, k)
	fmt.Printf("claim (section 4.3): k concurrent scans share ~one physical pass\n")
	fmt.Printf("  %d concurrent full scans, table %d bytes:\n", k, tbl.ByteSize())
	fmt.Printf("  independent I/O: %d bytes\n", independent)
	fmt.Printf("  shared I/O:      %d bytes  (%.1fx less)\n", shared, float64(independent)/float64(shared))
	return nil
}

// runAblateScanshareLive drives shared scanning through the real
// cluster path (czar -> xrd -> two-class worker scheduler), unlike A4's
// standalone scanner demo: K concurrent full-scan queries convoy over
// the same chunk tables while an interactive objectId stream rides the
// dedicated interactive slots.
func runAblateScanshareLive(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 900, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(2)
	cfg.WorkerSlots = 2 // a scan-lane backlog makes gangs coalesce
	cfg.ScanPieceRows = 128
	cl, err := qserv.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		return err
	}

	const scans = 6
	var wg sync.WaitGroup
	scanErrs := make([]error, scans)
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct predicates per query: identical payloads would
			// deduplicate at the worker instead of convoying.
			sql := fmt.Sprintf("SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > %g", 1e-31*float64(i+1))
			_, scanErrs[i] = cl.Query(sql)
		}(i)
	}
	interactive := 0
	for i := 0; i < 24; i++ {
		id := int64(1 + i*13)
		if _, err := cl.Query(fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", id)); err != nil {
			return err
		}
		interactive++
	}
	wg.Wait()
	for _, err := range scanErrs {
		if err != nil {
			return err
		}
	}

	var physical, logical, saved, pieces int64
	convoys := 0
	var intWaits, scanWaits []time.Duration
	for _, w := range cl.Workers {
		st := w.ScanStats()
		physical += st.BytesRead
		saved += st.ScansSaved
		pieces += st.PiecesRead
		convoys += st.Convoys
		for _, r := range w.Reports() {
			logical += r.Stats.SharedSeqBytes
			switch r.Class {
			case core.Interactive:
				intWaits = append(intWaits, r.QueueWait())
			case core.FullScan:
				scanWaits = append(scanWaits, r.QueueWait())
			}
		}
	}
	fmt.Printf("claim (section 4.3): convoy scheduling on the live path shares scan I/O without starving interactive queries\n")
	fmt.Printf("workload: %d concurrent full-scan queries + %d interactive dives on a %d-worker cluster\n",
		scans, interactive, cfg.Workers)
	fmt.Printf("  convoy tables: %d, piece reads: %d, scans saved: %d\n", convoys, pieces, saved)
	fmt.Printf("  independent scans would read: %d bytes\n", logical)
	if physical > 0 {
		fmt.Printf("  shared scans physically read:  %d bytes  (%.2fx less)\n",
			physical, float64(logical)/float64(physical))
	} else {
		fmt.Printf("  shared scans physically read:  %d bytes\n", physical)
	}
	p95Int := percentile(intWaits, 95)
	p50Scan := percentile(scanWaits, 50)
	fmt.Printf("  interactive queue wait p95: %v  (%d chunk queries)\n", p95Int, len(intWaits))
	fmt.Printf("  scan queue wait        p50: %v  (%d chunk queries)\n", p50Scan, len(scanWaits))
	switch {
	case physical >= logical:
		fmt.Printf("  RESULT: FAIL — sharing saved nothing\n")
	case p95Int >= p50Scan:
		fmt.Printf("  RESULT: FAIL — interactive queries waited like scans\n")
	default:
		fmt.Printf("  RESULT: ok — scans shared, interactive lane unblocked\n")
	}
	return nil
}

// runMergePipeline measures the czar's result-collection path — the
// paper's section 7.6 scalability bottleneck — under N concurrent user
// queries, comparing the serialized configuration (MergeParallelism=1,
// no top-K pushdown: the paper's behavior) against the pipelined one
// (parallel streaming merge + ORDER BY/LIMIT pushdown). Every answer is
// checked byte-identical against the single-engine oracle.
func runMergePipeline(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: *objectsFlag * 10, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}

	serialized := qserv.DefaultClusterConfig(2)
	serialized.MergeParallelism = 1
	serialized.TopKPushdown = false
	pipelined := qserv.DefaultClusterConfig(2)

	// The concurrent workload: top-K retrievals, GROUP BY aggregation,
	// and a row-heavy filter scan, all merging at once.
	topkSQL := "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 10"
	groupSQL := "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS), MIN(decl_PS), MAX(decl_PS) FROM Object GROUP BY chunkId"
	scanSQL := "SELECT objectId, ra_PS, decl_PS FROM Object WHERE uFlux_PS > 1e-31"
	batch := []string{topkSQL, groupSQL, scanSQL, topkSQL, groupSQL, scanSQL, topkSQL, scanSQL}

	type outcome struct {
		wall      time.Duration
		bytes     int64
		topkBytes int64
	}
	var outs [2]outcome
	var chunker *partition.Chunker
	oracleRows := map[string][]string{}

	for ci, cfg := range []qserv.ClusterConfig{serialized, pipelined} {
		cl, err := qserv.NewCluster(cfg)
		if err != nil {
			return err
		}
		if err := cl.Load(cat); err != nil {
			cl.Close()
			return err
		}
		if chunker == nil {
			chunker = cl.Chunker
			oracle, err := qserv.NewOracle(cfg)
			if err != nil {
				cl.Close()
				return err
			}
			if err := oracle.Load(cat); err != nil {
				cl.Close()
				return err
			}
			for _, sql := range []string{topkSQL, groupSQL, scanSQL} {
				res, err := oracle.Query(sql)
				if err != nil {
					cl.Close()
					return err
				}
				oracleRows[sql] = renderRows(res.Rows, strings.Contains(sql, "ORDER BY"))
			}
		}

		runBatch := func() (time.Duration, int64, int64, error) {
			start := time.Now()
			var wg sync.WaitGroup
			errCh := make(chan error, len(batch))
			bytesCh := make(chan [2]int64, len(batch))
			for _, sql := range batch {
				wg.Add(1)
				go func(sql string) {
					defer wg.Done()
					res, err := cl.Query(sql)
					if err != nil {
						errCh <- fmt.Errorf("%q: %w", sql, err)
						return
					}
					got := renderRows(res.Rows, strings.Contains(sql, "ORDER BY"))
					if !sameRendered(got, oracleRows[sql]) {
						errCh <- fmt.Errorf("%q: answer differs from the oracle", sql)
						return
					}
					var tk int64
					if sql == topkSQL {
						tk = res.ResultBytes
					}
					bytesCh <- [2]int64{res.ResultBytes, tk}
				}(sql)
			}
			wg.Wait()
			wall := time.Since(start)
			close(errCh)
			close(bytesCh)
			for err := range errCh {
				return 0, 0, 0, err
			}
			var total, tk int64
			for b := range bytesCh {
				total += b[0]
				tk += b[1]
			}
			return wall, total, tk, nil
		}

		// One warmup round (also oracle-checks every answer), then the
		// best of three timed rounds — concurrent wall times at laptop
		// scale are scheduler-noise-prone.
		if _, outs[ci].bytes, outs[ci].topkBytes, err = runBatch(); err != nil {
			cl.Close()
			return err
		}
		for round := 0; round < 3; round++ {
			wall, _, _, err := runBatch()
			if err != nil {
				cl.Close()
				return err
			}
			if outs[ci].wall == 0 || wall < outs[ci].wall {
				outs[ci].wall = wall
			}
		}
		cl.Close()
	}

	qps := func(o outcome) float64 { return float64(len(batch)) / o.wall.Seconds() }
	fmt.Printf("claim (section 7.6): parallelizing result collection removes the master bottleneck\n")
	fmt.Printf("workload: %d concurrent user queries (top-K / GROUP BY / filter scan), 2 workers, oracle-checked\n", len(batch))
	fmt.Printf("  %-34s %10s %12s %14s\n", "config", "wall", "queries/s", "result bytes")
	fmt.Printf("  %-34s %10v %12.1f %14d\n", "serialized (MergeParallelism=1)", outs[0].wall.Round(time.Millisecond), qps(outs[0]), outs[0].bytes)
	fmt.Printf("  %-34s %10v %12.1f %14d\n", "pipelined (MergeParallelism=8+topK)", outs[1].wall.Round(time.Millisecond), qps(outs[1]), outs[1].bytes)
	fmt.Printf("  merge throughput: %.2fx\n", qps(outs[1])/qps(outs[0]))
	fmt.Printf("  top-K query bytes: %d -> %d (%.1fx less)\n",
		outs[0].topkBytes, outs[1].topkBytes, float64(outs[0].topkBytes)/float64(outs[1].topkBytes))
	switch {
	case outs[1].topkBytes >= outs[0].topkBytes:
		// Deterministic check — a real regression, so fail the run (CI
		// gates on it via `make bench-smoke`).
		fmt.Printf("  RESULT: FAIL — pushdown did not reduce shipped bytes\n")
		return fmt.Errorf("merge-pipeline: top-K pushdown shipped %d bytes, serialized shipped %d",
			outs[1].topkBytes, outs[0].topkBytes)
	case qps(outs[1]) <= qps(outs[0]):
		// Timing-dependent: report, but don't flake CI over scheduler noise.
		fmt.Printf("  RESULT: WARN — pipelining did not improve merge throughput on this run\n")
	default:
		fmt.Printf("  RESULT: ok — answers oracle-identical, merge pipelined, top-K pushed down\n")
	}
	return nil
}

// runKillLatency measures the query-management acceptance criterion:
// when a full-scan query is killed mid-flight, how long until its
// worker scan slots are actually reclaimed? The kill must propagate
// czar -> xrd cancel transaction -> worker scheduler, dequeueing queued
// chunk queries and detaching running ones from their shared-scan
// convoys at the next piece boundary — while a convoy sibling query is
// unaffected (oracle-checked).
func runKillLatency(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 200 + *objectsFlag*10, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(2)
	cfg.WorkerSlots = 1 // one scan slot per worker: a backlog forms, so the kill lands mid-flight
	cfg.ScanPieceRows = 64
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

	// A convoy sibling that must survive the kill untouched.
	survivorSQL := "SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31"
	victimSQL := "SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 2e-31"
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
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := victim.Progress()
		if p.ChunksCompleted >= 2 && p.ChunksCompleted < p.ChunksTotal {
			break
		}
		if p.Done || time.Now().After(deadline) {
			return fmt.Errorf("kill-latency: victim never mid-flight (progress %+v)", p)
		}
		time.Sleep(200 * time.Microsecond)
	}
	atCancel := victim.Progress()
	t0 := time.Now()
	victim.Cancel()
	_, verr := victim.Wait(context.Background())
	waitLatency := time.Since(t0)

	// Slot reclamation: every canceled-running chunk query's executor
	// slot frees when its report lands; the last such finish bounds the
	// reclaim. (The survivor keeps running — its slots don't count.)
	sres, serr := survivor.Wait(context.Background())
	if serr != nil {
		return fmt.Errorf("kill-latency: survivor failed: %w", serr)
	}
	want, err := oracle.Query(survivorSQL)
	if err != nil {
		return err
	}
	if sres.Rows[0][0].(int64) != want.Rows[0][0].(int64) {
		return fmt.Errorf("kill-latency: survivor answer %v differs from oracle %v (convoy member corrupted by the kill)",
			sres.Rows[0][0], want.Rows[0][0])
	}

	var canceledJobs int
	var reclaim time.Duration
	var abortedMidScan int
	for _, w := range cl.Workers {
		for _, r := range w.Reports() {
			if r.Err == nil {
				continue
			}
			canceledJobs++
			if d := r.FinishedAt.Sub(t0); d > reclaim {
				reclaim = d
			}
			if r.StartedAt.Before(t0) {
				abortedMidScan++
			}
		}
	}

	fmt.Printf("claim (section 5): the czar manages long-running queries — a kill frees worker resources\n")
	fmt.Printf("workload: 2 convoying full scans over %d chunks, %d workers x %d scan slot\n",
		atCancel.ChunksTotal, cfg.Workers, cfg.WorkerSlots)
	fmt.Printf("  at cancel: %d/%d chunks merged, %d dispatched\n",
		atCancel.ChunksCompleted, atCancel.ChunksTotal, atCancel.ChunksDispatched)
	fmt.Printf("  Wait returned in:            %v (err: %v)\n", waitLatency.Round(time.Microsecond), verr)
	fmt.Printf("  chunk queries aborted:       %d (%d were running when the kill landed)\n", canceledJobs, abortedMidScan)
	fmt.Printf("  never started (dequeued):    %d\n", atCancel.ChunksTotal-atCancel.ChunksCompleted-canceledJobs)
	fmt.Printf("  slot reclaim after Cancel:   %v\n", reclaim.Round(time.Microsecond))
	fmt.Printf("  survivor: oracle-identical (%v rows counted)\n", sres.Rows[0][0])
	const bound = time.Second // a scan piece here is far under a millisecond
	switch {
	case verr == nil:
		// The victim finished in the instant between the mid-flight
		// check and the cancel taking effect — nothing to measure on
		// this (very fast) run, but not a regression.
		fmt.Printf("  RESULT: skip — victim completed before the kill landed\n")
		return nil
	case !errors.Is(verr, context.Canceled):
		fmt.Printf("  RESULT: FAIL — Wait returned %v, want context.Canceled\n", verr)
		return fmt.Errorf("kill-latency: Wait error = %v", verr)
	case reclaim > bound:
		fmt.Printf("  RESULT: FAIL — slots reclaimed in %v (> %v)\n", reclaim, bound)
		return fmt.Errorf("kill-latency: reclaim took %v", reclaim)
	default:
		fmt.Printf("  RESULT: ok — kill propagated to the scan lanes within one piece\n")
	}
	return nil
}

// runIngestBench measures the write half of the system: the same
// synthetic catalog ingested through CreateTables + Ingest twice, once
// with shipping serialized to one in-flight batch (the legacy
// Cluster.Load behavior: every chunk table loaded in sequence) and
// once with the default per-worker shipping lanes, all batches riding
// the xrd fabric's /load transaction. Both clusters then answer a
// query battery checked against the single-node oracle, so the speedup
// is only reported for identical results.
func runIngestBench(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: *objectsFlag * 20, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 30},
	)
	if err != nil {
		return err
	}
	const workers = 8
	serial := qserv.DefaultClusterConfig(workers)
	serial.IngestParallelism = 1
	parallel := qserv.DefaultClusterConfig(workers)

	oracle, err := qserv.NewOracle(parallel)
	if err != nil {
		return err
	}
	if err := oracle.Load(cat); err != nil {
		return err
	}
	battery := []string{
		"SELECT COUNT(*) AS n FROM Object",
		"SELECT COUNT(*) AS n FROM Source",
		"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 5",
		fmt.Sprintf("SELECT COUNT(*) AS n FROM Source WHERE objectId = %d", cat.Objects[0].ObjectID),
	}
	oracleRows := map[string][]string{}
	for _, sql := range battery {
		res, err := oracle.Query(sql)
		if err != nil {
			return err
		}
		oracleRows[sql] = renderRows(res.Rows, strings.Contains(sql, "ORDER BY"))
	}

	totalRows := int64(len(cat.Objects) + len(cat.Sources))
	ingestOnce := func(cfg qserv.ClusterConfig, check bool) (time.Duration, error) {
		cl, err := qserv.NewCluster(cfg)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		start := time.Now()
		if err := cl.Load(cat); err != nil { // CreateTables(LSSTSpec()) + one Ingest per table
			return 0, err
		}
		elapsed := time.Since(start)
		if check {
			for _, sql := range battery {
				res, err := cl.Query(sql)
				if err != nil {
					return 0, fmt.Errorf("%q: %w", sql, err)
				}
				got := renderRows(res.Rows, strings.Contains(sql, "ORDER BY"))
				if !sameRendered(got, oracleRows[sql]) {
					return 0, fmt.Errorf("%q: answer differs from the oracle after ingest", sql)
				}
			}
		}
		return elapsed, nil
	}

	// Best of two rounds per mode (fresh clusters; wall times at laptop
	// scale are scheduler-noise-prone), answers oracle-checked once.
	times := map[string]time.Duration{}
	for _, mode := range []struct {
		name string
		cfg  qserv.ClusterConfig
	}{{"serialized", serial}, {"parallel", parallel}} {
		for round := 0; round < 2; round++ {
			d, err := ingestOnce(mode.cfg, round == 0)
			if err != nil {
				return err
			}
			if cur, ok := times[mode.name]; !ok || d < cur {
				times[mode.name] = d
			}
		}
	}

	rate := func(d time.Duration) float64 { return float64(totalRows) / d.Seconds() }
	speedup := float64(times["serialized"]) / float64(times["parallel"])
	fmt.Printf("claim: fabric-routed per-worker shipping lanes parallelize ingest across the cluster\n")
	fmt.Printf("workload: %d objects + %d sources onto %d workers over %d CPUs, oracle-checked\n",
		len(cat.Objects), len(cat.Sources), workers, runtime.NumCPU())
	fmt.Printf("  %-36s %10s %14s\n", "config", "wall", "rows/s")
	fmt.Printf("  %-36s %10v %14.0f\n", "serialized shipping (legacy Load)", times["serialized"].Round(time.Millisecond), rate(times["serialized"]))
	fmt.Printf("  %-36s %10v %14.0f\n", "parallel lanes (one per worker)", times["parallel"].Round(time.Millisecond), rate(times["parallel"]))
	fmt.Printf("  ingest speedup: %.2fx\n", speedup)
	switch {
	case runtime.NumCPU() == 1:
		// Lane parallelism is real concurrency, not a simulation: with
		// one CPU there is nothing to overlap onto, so wall-clock
		// speedup cannot exist on this host. The oracle check above is
		// the hard gate; the 2x target applies to multi-core hosts.
		fmt.Printf("  RESULT: skip — single-CPU host cannot exhibit parallel speedup (answers oracle-identical)\n")
	case speedup < 2:
		// Timing-dependent: report, but don't flake CI over scheduler noise.
		fmt.Printf("  RESULT: WARN — speedup below the 2x target on this run\n")
	default:
		fmt.Printf("  RESULT: ok — answers oracle-identical, ingest >= 2x faster in parallel\n")
	}
	return nil
}

// runFailover measures the availability subsystem end to end: a
// 4-worker cluster at Replication 2 serves a concurrent oracle-checked
// scan workload while one worker is killed abruptly (its in-flight
// fabric transactions sever, like a torn TCP peer). Reported:
// time-to-detect (failure detector marks the worker dead),
// time-to-repair (the replication manager restores every chunk to full
// replication on the survivors), and the query success rate across the
// whole run. Hard gates: every answer oracle-identical, no query lost
// (replica failover must mask the death), and repair must complete.
func runFailover(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 100 + *objectsFlag*4, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(4)
	cfg.Replication = 2
	cfg.HealthInterval = 20 * time.Millisecond
	cfg.DeadMisses = 2
	cfg.ScanPieceRows = 256
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

	battery := []string{
		"SELECT COUNT(*) AS n FROM Object",
		"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
		"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 10",
		"SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31",
	}
	oracleRows := map[string][]string{}
	for _, sql := range battery {
		res, err := oracle.Query(sql)
		if err != nil {
			return err
		}
		oracleRows[sql] = renderRows(res.Rows, strings.Contains(sql, "ORDER BY"))
	}

	// The concurrent workload: four streams looping the battery until
	// told to stop, each answer checked against the oracle.
	var total, failed, wrong, retries int64
	var cmu sync.Mutex
	var firstErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := i; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := battery[n%len(battery)]
				res, err := cl.Query(sql)
				cmu.Lock()
				total++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("%q: %w", sql, err)
					}
				} else {
					retries += int64(res.Retries)
					if !sameRendered(renderRows(res.Rows, strings.Contains(sql, "ORDER BY")), oracleRows[sql]) {
						wrong++
						if firstErr == nil {
							firstErr = fmt.Errorf("%q: answer differs from the oracle", sql)
						}
					}
				}
				cmu.Unlock()
			}
		}(i)
	}

	time.Sleep(100 * time.Millisecond) // warm the workload up
	victim := cl.Workers[0].Name()
	t0 := time.Now()
	cl.Endpoint(victim).SetDown(true)

	// Time to detect: the failure detector marks the victim dead.
	var detect time.Duration
	deadline := time.Now().Add(30 * time.Second)
	for detect == 0 {
		for _, w := range cl.Status().Workers {
			if w.Name == victim && w.State == qserv.WorkerDead {
				detect = time.Since(t0)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: worker never detected dead")
		}
		time.Sleep(time.Millisecond)
	}

	// Time to repair: every chunk back at full replication on survivors.
	var repair time.Duration
	for repair == 0 {
		healed := true
		for _, c := range cl.Placement.Chunks() {
			ws := cl.Placement.Workers(c)
			if len(ws) < cfg.Replication {
				healed = false
				break
			}
			for _, w := range ws {
				if w == victim {
					healed = false
					break
				}
			}
			if !healed {
				break
			}
		}
		if healed && cl.Status().Repair.ChunksPending == 0 {
			repair = time.Since(t0)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: replication not restored (repair %+v)", cl.Status().Repair)
		}
		time.Sleep(time.Millisecond)
	}

	time.Sleep(100 * time.Millisecond) // post-repair traffic
	close(stop)
	wg.Wait()

	st := cl.Status()
	cmu.Lock()
	defer cmu.Unlock()
	okQ := total - failed - wrong
	fmt.Printf("claim: the availability subsystem masks a worker death and restores the replication factor\n")
	fmt.Printf("workload: 4 concurrent oracle-checked query streams, 4 workers x replication 2, 1 abrupt kill\n")
	fmt.Printf("  time to detect (dead after %d missed %v probes): %v\n", cfg.DeadMisses, cfg.HealthInterval, detect.Round(time.Millisecond))
	fmt.Printf("  time to restore full replication:                %v\n", repair.Round(time.Millisecond))
	fmt.Printf("  chunks re-homed: %d, tables copied: %d, bytes copied: %d\n",
		st.Repair.ChunksRepaired, st.Repair.TablesCopied, st.Repair.BytesCopied)
	fmt.Printf("  queries: %d total, %d ok, %d failed, %d wrong (%.1f%% success), %d replica failovers\n",
		total, okQ, failed, wrong, 100*float64(okQ)/float64(total), retries)
	switch {
	case wrong > 0:
		fmt.Printf("  RESULT: FAIL — a query answered differently from the oracle\n")
		return fmt.Errorf("failover: %d wrong answers; first: %v", wrong, firstErr)
	case failed > 0:
		fmt.Printf("  RESULT: FAIL — a query was lost despite replication\n")
		return fmt.Errorf("failover: %d failed queries; first: %v", failed, firstErr)
	case st.Repair.ChunksRepaired == 0:
		fmt.Printf("  RESULT: FAIL — no chunk was re-homed\n")
		return fmt.Errorf("failover: repair did nothing")
	default:
		fmt.Printf("  RESULT: ok — death masked, answers oracle-identical, replication restored\n")
	}
	return nil
}

// runRestart measures what the durable chunk store buys on a worker
// restart: a worker with a DataDir killed and restarted recovers its
// chunk tables from its own disk and rejoins serving — zero chunks
// re-homed, zero tables copied — versus the store-less baseline, where
// the same death forces the replication manager to re-copy every one
// of the victim's chunks onto survivors. Both phases run a concurrent
// oracle-checked query stream. Hard gates: every answer
// oracle-identical, no query lost, and the durable restart must move
// zero chunks; the time comparison WARNs instead of failing when the
// baseline is too fast to measure meaningfully.
func runRestart(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 100 + *objectsFlag*4, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}
	dataDir, err := os.MkdirTemp("", "qserv-bench-restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	baseCfg := qserv.DefaultClusterConfig(4)
	baseCfg.Replication = 2
	baseCfg.HealthInterval = 20 * time.Millisecond
	baseCfg.DeadMisses = 2
	baseCfg.ScanPieceRows = 256

	oracle, err := qserv.NewOracle(baseCfg)
	if err != nil {
		return err
	}
	if err := oracle.Load(cat); err != nil {
		return err
	}
	battery := []string{
		"SELECT COUNT(*) AS n FROM Object",
		"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
		"SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31",
	}
	oracleRows := map[string][]string{}
	for _, sql := range battery {
		res, err := oracle.Query(sql)
		if err != nil {
			return err
		}
		oracleRows[sql] = renderRows(res.Rows, false)
	}

	// One phase: build a cluster, run the checked stream, invoke the
	// outage, and time until the cluster is whole again.
	type phaseResult struct {
		recover              time.Duration
		total, failed, wrong int64
		repaired, copied     int
		healed               int
		firstErr             error
	}
	runPhase := func(cfg qserv.ClusterConfig, outage func(cl *qserv.Cluster, victim string) error,
		whole func(cl *qserv.Cluster, victim string) bool) (*phaseResult, error) {
		cl, err := qserv.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if err := cl.Load(cat); err != nil {
			return nil, err
		}
		pr := &phaseResult{}
		var cmu sync.Mutex
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := i; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					sql := battery[n%len(battery)]
					res, err := cl.Query(sql)
					cmu.Lock()
					pr.total++
					if err != nil {
						pr.failed++
						if pr.firstErr == nil {
							pr.firstErr = fmt.Errorf("%q: %w", sql, err)
						}
					} else if !sameRendered(renderRows(res.Rows, false), oracleRows[sql]) {
						pr.wrong++
						if pr.firstErr == nil {
							pr.firstErr = fmt.Errorf("%q: answer differs from the oracle", sql)
						}
					}
					cmu.Unlock()
				}
			}(i)
		}

		time.Sleep(100 * time.Millisecond) // warm the workload up
		victim := cl.Workers[0].Name()
		t0 := time.Now()
		if err := outage(cl, victim); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if whole(cl, victim) && cl.Status().Repair.ChunksPending == 0 {
				pr.recover = time.Since(t0)
				break
			}
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				return nil, fmt.Errorf("restart: cluster never whole again (repair %+v)", cl.Status().Repair)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // post-recovery traffic
		close(stop)
		wg.Wait()
		st := cl.Status()
		pr.repaired, pr.copied, pr.healed = st.Repair.ChunksRepaired, st.Repair.TablesCopied, st.Repair.ChunksHealed
		return pr, nil
	}

	workerAlive := func(cl *qserv.Cluster, name string) bool {
		for _, w := range cl.Status().Workers {
			if w.Name == name {
				return w.State == qserv.WorkerAlive
			}
		}
		return false
	}
	fullyOffVictim := func(cl *qserv.Cluster, victim string) bool {
		for _, c := range cl.Placement.Chunks() {
			ws := cl.Placement.Workers(c)
			if len(ws) < baseCfg.Replication {
				return false
			}
			for _, w := range ws {
				if w == victim {
					return false
				}
			}
		}
		return true
	}

	// Phase 1 — durable restart: the store makes the victim's data
	// survive; the grace window keeps repair from re-homing meanwhile.
	durCfg := baseCfg
	durCfg.DataDir = dataDir
	durCfg.RepairGrace = 60 * time.Second
	durable, err := runPhase(durCfg,
		func(cl *qserv.Cluster, victim string) error { return cl.RestartWorker(victim) },
		workerAlive)
	if err != nil {
		return err
	}

	// Phase 2 — baseline (PR 5 behavior): no store, the victim stays
	// dead, and the cluster is whole only after re-replicating every one
	// of its chunks onto the survivors.
	baseline, err := runPhase(baseCfg,
		func(cl *qserv.Cluster, victim string) error {
			cl.Endpoint(victim).SetDown(true)
			return nil
		},
		fullyOffVictim)
	if err != nil {
		return err
	}

	fmt.Printf("claim: a disk-backed chunk store turns a worker restart from a re-replication event into a local recovery\n")
	fmt.Printf("workload: 4 workers x replication 2, concurrent oracle-checked streams, 1 worker killed\n")
	fmt.Printf("  %-44s %12s %10s %8s %8s\n", "config", "recovered in", "re-homed", "copied", "healed")
	fmt.Printf("  %-44s %12v %10d %8d %8d\n", "durable restart (DataDir recovery)",
		durable.recover.Round(time.Millisecond), durable.repaired, durable.copied, durable.healed)
	fmt.Printf("  %-44s %12v %10d %8d %8d\n", "baseline: death + re-replication (no store)",
		baseline.recover.Round(time.Millisecond), baseline.repaired, baseline.copied, baseline.healed)
	fmt.Printf("  queries: durable %d total (%d failed, %d wrong); baseline %d total (%d failed, %d wrong)\n",
		durable.total, durable.failed, durable.wrong, baseline.total, baseline.failed, baseline.wrong)
	for _, p := range []struct {
		name string
		pr   *phaseResult
	}{{"durable", durable}, {"baseline", baseline}} {
		switch {
		case p.pr.wrong > 0:
			fmt.Printf("  RESULT: FAIL — %s phase answered differently from the oracle\n", p.name)
			return fmt.Errorf("restart: %s: %d wrong answers; first: %v", p.name, p.pr.wrong, p.pr.firstErr)
		case p.pr.failed > 0:
			fmt.Printf("  RESULT: FAIL — %s phase lost a query despite replication\n", p.name)
			return fmt.Errorf("restart: %s: %d failed queries; first: %v", p.name, p.pr.failed, p.pr.firstErr)
		}
	}
	switch {
	case durable.repaired != 0 || durable.copied != 0 || durable.healed != 0:
		fmt.Printf("  RESULT: FAIL — the durable restart moved data (%d re-homed, %d copied, %d healed)\n",
			durable.repaired, durable.copied, durable.healed)
		return fmt.Errorf("restart: durable restart was not copy-free")
	case baseline.repaired == 0:
		fmt.Printf("  RESULT: FAIL — the baseline death re-homed nothing; the comparison is vacuous\n")
		return fmt.Errorf("restart: baseline repair did nothing")
	case baseline.recover < 20*time.Millisecond:
		fmt.Printf("  RESULT: WARN — baseline re-replication finished in %v; too fast to compare meaningfully at this scale\n",
			baseline.recover.Round(time.Millisecond))
	case durable.recover >= baseline.recover:
		fmt.Printf("  RESULT: WARN — durable restart (%v) not faster than re-replication (%v) on this run\n",
			durable.recover.Round(time.Millisecond), baseline.recover.Round(time.Millisecond))
	default:
		fmt.Printf("  RESULT: ok — copy-free durable restart, %.1fx faster than re-replication, answers oracle-identical\n",
			float64(baseline.recover)/float64(durable.recover))
	}
	return nil
}

// runPaging measures a worker fleet operating far beyond its memory
// budget: phase A runs an unbudgeted durable cluster and records each
// worker's full resident footprint plus the steady-state latency of a
// hot spatially-restricted query; phase B reruns the same workload
// with every worker budgeted to ~1/4 of the largest phase-A footprint,
// so chunks must page in lazily and cold chunks must evict. Hard
// gates: every answer oracle-identical in both phases, the budget
// must actually force evictions and re-materializations (no vacuous
// pass), and the hot-chunk query — whose chunks the LRU should keep
// resident — must stay within 2x of the unbudgeted latency. The
// latency gate degrades to WARN when the unbudgeted time is too small
// for the comparison to mean anything.
func runPaging(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 100 + *objectsFlag*4, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}

	baseCfg := qserv.DefaultClusterConfig(3)
	baseCfg.Replication = 2
	baseCfg.ScanPieceRows = 256

	oracle, err := qserv.NewOracle(baseCfg)
	if err != nil {
		return err
	}
	if err := oracle.Load(cat); err != nil {
		return err
	}
	battery := []string{
		"SELECT COUNT(*) AS n FROM Object",
		"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
		"SELECT COUNT(*) AS n FROM Object WHERE uFlux_PS > 1e-31",
	}
	hotSQL := "SELECT COUNT(*) AS n FROM Object WHERE qserv_areaspec_box(2, 2, 8, 8)"
	oracleRows := map[string][]string{}
	for _, sql := range append(append([]string{}, battery...), hotSQL) {
		res, err := oracle.Query(sql)
		if err != nil {
			return err
		}
		oracleRows[sql] = renderRows(res.Rows, false)
	}

	// One phase: a durable cluster at the given budget runs the checked
	// battery, then a warmed, repeated hot-chunk query.
	type pagingResult struct {
		maxResident      int64
		hot              time.Duration
		evictions        int64
		materializations int64
	}
	runPhase := func(budget int64) (*pagingResult, error) {
		dataDir, err := os.MkdirTemp("", "qserv-bench-paging-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
		cfg := baseCfg
		cfg.DataDir = dataDir
		cfg.WorkerMemoryBudget = budget
		cl, err := qserv.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if err := cl.Load(cat); err != nil {
			return nil, err
		}
		pr := &pagingResult{}
		for _, sql := range battery {
			res, err := cl.Query(sql)
			if err != nil {
				return nil, fmt.Errorf("paging: %q: %w", sql, err)
			}
			if !sameRendered(renderRows(res.Rows, false), oracleRows[sql]) {
				return nil, fmt.Errorf("paging: %q: answer differs from the oracle", sql)
			}
		}
		// The battery just touched every chunk, so the footprint peaks now.
		for _, w := range cl.Workers {
			if st := w.ResidencyStats(); st.ResidentBytes > pr.maxResident {
				pr.maxResident = st.ResidentBytes
			}
		}
		// Hot-chunk loop: two warm-up passes materialize the box's chunks,
		// then the timed passes should find them still resident.
		const iters = 15
		times := make([]time.Duration, 0, iters)
		for i := 0; i < iters+2; i++ {
			t0 := time.Now()
			res, err := cl.Query(hotSQL)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("paging: hot query: %w", err)
			}
			if !sameRendered(renderRows(res.Rows, false), oracleRows[hotSQL]) {
				return nil, fmt.Errorf("paging: hot query: answer differs from the oracle")
			}
			if i >= 2 {
				times = append(times, d)
			}
		}
		pr.hot = percentile(times, 50)
		for _, w := range cl.Workers {
			st := w.ResidencyStats()
			pr.evictions += st.Evictions
			pr.materializations += st.Materializations
		}
		return pr, nil
	}

	// Phase A — unbudgeted: everything stays resident; this measures the
	// true working set and the no-paging hot latency.
	full, err := runPhase(0)
	if err != nil {
		return err
	}
	if full.maxResident == 0 {
		return fmt.Errorf("paging: unbudgeted phase reports a zero-byte working set")
	}
	budget := full.maxResident / 4

	// Phase B — the same workload with each worker at a quarter of the
	// working set.
	paged, err := runPhase(budget)
	if err != nil {
		return err
	}

	fmt.Printf("claim: a worker can serve a working set ~4x its memory budget via lazy materialization + LRU eviction, answers unchanged\n")
	fmt.Printf("workload: 3 workers x replication 2, oracle-checked battery + %d hot-chunk iterations\n", 15)
	fmt.Printf("  %-40s %14s %12s %10s %14s\n", "config", "max resident", "hot p50", "evicted", "materialized")
	fmt.Printf("  %-40s %14d %12v %10d %14d\n", "unbudgeted (working set)",
		full.maxResident, full.hot.Round(time.Microsecond), full.evictions, full.materializations)
	fmt.Printf("  %-40s %14d %12v %10d %14d\n", fmt.Sprintf("budget %d B (~1/4 working set)", budget),
		paged.maxResident, paged.hot.Round(time.Microsecond), paged.evictions, paged.materializations)
	switch {
	case paged.evictions == 0:
		fmt.Printf("  RESULT: FAIL — the budget never forced an eviction; the comparison is vacuous\n")
		return fmt.Errorf("paging: no evictions at budget %d", budget)
	case paged.materializations == 0:
		fmt.Printf("  RESULT: FAIL — nothing was re-materialized under the budget\n")
		return fmt.Errorf("paging: no materializations at budget %d", budget)
	case full.hot < 2*time.Millisecond:
		fmt.Printf("  RESULT: WARN — unbudgeted hot query took %v; too fast to gate the slowdown meaningfully at this scale\n",
			full.hot.Round(time.Microsecond))
	case paged.hot > 2*full.hot:
		fmt.Printf("  RESULT: FAIL — hot-chunk query %.1fx slower under the budget (limit 2x)\n",
			float64(paged.hot)/float64(full.hot))
		return fmt.Errorf("paging: hot-chunk latency %v exceeds 2x unbudgeted %v", paged.hot, full.hot)
	default:
		fmt.Printf("  RESULT: ok — paged worker oracle-identical, hot chunks stayed resident (%.2fx unbudgeted latency)\n",
			float64(paged.hot)/float64(full.hot))
	}
	return nil
}

// renderRows renders result rows to canonical strings; unordered
// results are sorted so comparison is order-insensitive. It accepts
// both the public API's rows ([]qserv.Row) and engine rows.
func renderRows[R ~[]any](rows []R, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = sqlengine.FormatValue(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func sameRendered(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// percentile returns the pth nearest-rank percentile of ds.
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func runAblateIndex(ctx *benchCtx) error {
	e := sqlengine.New("LSST")
	if _, err := e.Execute("CREATE TABLE t (objectId BIGINT, x DOUBLE)"); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 20000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %g)", i, float64(i)*0.5)
	}
	if _, err := e.Execute(sb.String()); err != nil {
		return err
	}
	scan, err := e.Query("SELECT * FROM t WHERE objectId = 12345")
	if err != nil {
		return err
	}
	if _, err := e.Execute("CREATE INDEX i ON t (objectId)"); err != nil {
		return err
	}
	indexed, err := e.Query("SELECT * FROM t WHERE objectId = 12345")
	if err != nil {
		return err
	}
	fmt.Printf("claim (section 5.5): the objectId index turns point queries into one seek\n")
	fmt.Printf("  full scan: %d bytes sequential, %d random reads\n", scan.Stats.SeqBytes, scan.Stats.RandReads)
	fmt.Printf("  indexed:   %d bytes sequential, %d random reads\n", indexed.Stats.SeqBytes, indexed.Stats.RandReads)
	return nil
}

func runAblateHTM(ctx *benchCtx) error {
	chunker, err := partition.NewChunker(partition.PaperConfig())
	if err != nil {
		return err
	}
	// RA/decl chunk area spread.
	minA, maxA := 1e18, 0.0
	for _, c := range chunker.AllChunks() {
		b, err := chunker.ChunkBounds(c)
		if err != nil {
			return err
		}
		a := b.Area()
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	// HTM trixel area spread at a comparable granularity (level 5:
	// 8192 trixels ~ 8983 chunks).
	lvl := 5
	tmin, tmax := 1e18, 0.0
	lo := htm.ID(8) << uint(2*lvl)
	hi := htm.ID(16) << uint(2*lvl)
	for id := lo; id < hi; id++ {
		a, err := htm.Area(id)
		if err != nil {
			return err
		}
		if a < tmin {
			tmin = a
		}
		if a > tmax {
			tmax = a
		}
	}
	// A naive fixed RA x decl grid (what "rectangular fragmentation"
	// means without Qserv's per-stripe chunk-count adaptation): cells
	// collapse toward the poles.
	gmin, gmax := 1e18, 0.0
	const gw, gh = 2.1176, 2.1176 // ~the paper's stripe height
	for d := -90.0; d < 90; d += gh {
		cell := sphgeom.NewBox(0, gw, d, d+gh)
		a := cell.Area()
		if a < gmin {
			gmin = a
		}
		if a > gmax {
			gmax = a
		}
	}
	fmt.Printf("claim (section 7.5): rectangular fragmentation distorts near the poles; HTM does not\n")
	fmt.Printf("  naive RA x decl grid:  area %.5f..%.4f deg^2, max/min = %.0f\n", gmin, gmax, gmax/gmin)
	fmt.Printf("  Qserv adaptive chunks (%d): area %.4f..%.4f deg^2, max/min = %.1f\n",
		chunker.TotalChunks(), minA, maxA, maxA/minA)
	fmt.Printf("  HTM level-%d trixels (%d): area %.4f..%.4f deg^2, max/min = %.1f\n",
		lvl, htm.NumTrixels(lvl), tmin, tmax, tmax/tmin)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runPointQuery measures the ISSUE-9 point-query fast path on the live
// cluster: secondary-index dives vs a full fan-out baseline, czar
// result-cache hit latency, and cache invalidation across an ingest.
// Wrong answers and dives wider than the replication factor are hard
// failures.
func runPointQuery(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 100 + *objectsFlag*4, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 20},
	)
	if err != nil {
		return err
	}
	cfg := qserv.DefaultClusterConfig(4)
	cfg.Replication = 2
	cl, err := qserv.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Tables are declared up front but ingested after the first probe,
	// so the invalidation phase below can cache a pre-ingest answer.
	if err := cl.CreateTables(qserv.LSSTSpec()); err != nil {
		return err
	}
	oracle, err := qserv.NewOracle(cfg)
	if err != nil {
		return err
	}
	if err := oracle.Load(cat); err != nil {
		return err
	}

	// Phase 1: cache a pre-ingest Source answer (empty tables, zero
	// chunks placed), then ingest and make sure the stale empty answer
	// is never served again.
	preSQL := "SELECT COUNT(*) AS n FROM Source"
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(preSQL); err != nil {
			return err
		}
	}
	objRows := make([]qserv.Row, 0, len(cat.Objects))
	for _, o := range cat.Objects {
		objRows = append(objRows, qserv.Row(datagen.ObjectUserRow(o)))
	}
	if _, err := cl.Ingest("Object", qserv.RowsOf(objRows)); err != nil {
		return err
	}
	srcRows := make([]qserv.Row, 0, len(cat.Sources))
	for _, s := range cat.Sources {
		srcRows = append(srcRows, qserv.Row(datagen.SourceUserRow(s)))
	}
	if _, err := cl.Ingest("Source", qserv.RowsOf(srcRows)); err != nil {
		return err
	}
	post, err := cl.Query(preSQL)
	if err != nil {
		return err
	}
	staleServed := post.CacheHit || len(post.Rows) != 1 ||
		fmt.Sprint(post.Rows[0][0]) != fmt.Sprint(int64(len(srcRows)))

	// Pick the dive targets.
	const probes = 40
	idRes, err := oracle.Query(fmt.Sprintf("SELECT objectId FROM Object ORDER BY objectId LIMIT %d", probes))
	if err != nil {
		return err
	}
	var ids []int64
	for _, r := range idRes.Rows {
		ids = append(ids, r[0].(int64))
	}

	check := func(sql string, got *qserv.Result) (bool, error) {
		want, err := oracle.Query(sql)
		if err != nil {
			return false, err
		}
		return sameRendered(renderRows(got.Rows, false), renderRows(want.Rows, false)), nil
	}

	// Phase 2: index dives — one statement per objectId, each checked
	// against the oracle, each gated to at most Replication chunk jobs.
	var diveLat []time.Duration
	wrong, maxJobs := 0, 0
	for _, id := range ids {
		sql := fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = %d", id)
		t0 := time.Now()
		res, err := cl.Query(sql)
		if err != nil {
			return err
		}
		diveLat = append(diveLat, time.Since(t0))
		if res.ChunksDispatched > maxJobs {
			maxJobs = res.ChunksDispatched
		}
		ok, err := check(sql, res)
		if err != nil {
			return err
		}
		if !ok || len(res.Rows) == 0 {
			wrong++
		}
	}

	// Phase 3: full fan-out baseline. The duplicated-disjunct predicate
	// is semantically identical to the dive but hides the objectId from
	// the planner's conjunct extraction, so every placed chunk runs.
	var fanLat []time.Duration
	fanJobs := 0
	for _, id := range ids {
		sql := fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE (objectId = %d OR objectId = %d)", id, id)
		t0 := time.Now()
		res, err := cl.Query(sql)
		if err != nil {
			return err
		}
		fanLat = append(fanLat, time.Since(t0))
		if res.ChunksDispatched > fanJobs {
			fanJobs = res.ChunksDispatched
		}
		if ok, err := check(sql, res); err != nil {
			return err
		} else if !ok {
			wrong++
		}
	}

	// Phase 4: cache hits — the dive statements again, now answered at
	// the czar without any chunk job.
	var hitLat []time.Duration
	coldHits := 0
	for _, id := range ids {
		sql := fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = %d", id)
		t0 := time.Now()
		res, err := cl.Query(sql)
		if err != nil {
			return err
		}
		hitLat = append(hitLat, time.Since(t0))
		if !res.CacheHit || res.ChunksDispatched != 0 {
			coldHits++
		}
		if ok, err := check(sql, res); err != nil {
			return err
		} else if !ok {
			wrong++
		}
	}

	diveP50, diveP99 := percentile(diveLat, 50), percentile(diveLat, 99)
	fanP50, fanP99 := percentile(fanLat, 50), percentile(fanLat, 99)
	hitP50, hitP99 := percentile(hitLat, 50), percentile(hitLat, 99)
	st := cl.Status().Cache

	fmt.Printf("claim: index dives dispatch O(1) chunk jobs instead of a fan-out, and repeats are czar-cache hits\n")
	fmt.Printf("workload: %d point queries x {dive, fan-out baseline, cached repeat}, 4 workers x replication %d, %d chunks placed\n",
		len(ids), cfg.Replication, len(cl.Placement.Chunks()))
	fmt.Printf("  index dive:        p50 %10v  p99 %10v  (max %d chunk jobs/query)\n", diveP50, diveP99, maxJobs)
	fmt.Printf("  fan-out baseline:  p50 %10v  p99 %10v  (%d chunk jobs/query)\n", fanP50, fanP99, fanJobs)
	fmt.Printf("  czar cache hit:    p50 %10v  p99 %10v  (0 chunk jobs/query)\n", hitP50, hitP99)
	fmt.Printf("  cache: %d hits, %d misses, %d entries, %d bytes, %d invalidations\n",
		st.Hits, st.Misses, st.Entries, st.Bytes, st.Invalidations)
	fmt.Printf("  ingest invalidation: post-ingest Source count served fresh: %v\n", !staleServed)

	// The speed gate is there to catch a dive that fell back to the
	// fan-out, which reads 1x; this cluster's honest ratio is 6-25x. It
	// compares medians: over 40 probes a p99 is the slowest probe, and one
	// GC cycle landing in a 150us dive (1.7-3.7 ms when it happens, and
	// the less the scans allocate the more evenly the cycles land) would
	// decide a ratio of two of them.
	speedup := 0.0
	if diveP50 > 0 {
		speedup = float64(fanP50) / float64(diveP50)
	}
	switch {
	case wrong > 0:
		fmt.Printf("  RESULT: FAIL — %d answers differ from the oracle\n", wrong)
		return fmt.Errorf("pointquery: %d wrong answers", wrong)
	case staleServed:
		fmt.Printf("  RESULT: FAIL — a pre-ingest cache entry survived the ingest\n")
		return fmt.Errorf("pointquery: stale cached answer after ingest")
	case maxJobs > cfg.Replication:
		fmt.Printf("  RESULT: FAIL — a dive dispatched %d chunk jobs (> replication factor %d)\n", maxJobs, cfg.Replication)
		return fmt.Errorf("pointquery: dive dispatched %d jobs", maxJobs)
	case coldHits > 0:
		fmt.Printf("  RESULT: FAIL — %d repeats were not served from the result cache\n", coldHits)
		return fmt.Errorf("pointquery: %d cache misses on repeats", coldHits)
	case fanP50 >= 500*time.Microsecond && speedup < 3:
		fmt.Printf("  RESULT: FAIL — median dive only %.1fx under the fan-out baseline (want >= 3x)\n", speedup)
		return fmt.Errorf("pointquery: dive speedup %.1fx", speedup)
	default:
		if fanP50 < 500*time.Microsecond && speedup < 3 {
			fmt.Printf("  RESULT: ok (speedup %.1fx unscored: fan-out p50 %v is below the 500us timing floor)\n", speedup, fanP50)
		} else {
			fmt.Printf("  RESULT: ok — dives %.1fx faster at the median, zero wrong answers, repeats cache-served\n", speedup)
		}
		return nil
	}
}

// runTelemetry measures the observability layer itself on the live
// cluster. Three hard gates: (a) the telemetry-on point-query p50 is
// within 5% of telemetry-off (or inside a 500µs absolute timing floor —
// at this scale a dive is sub-millisecond and a relative gate alone
// would score scheduler noise), (b) EXPLAIN ANALYZE of a fan-out scan
// returns a span tree carrying the czar merge and at least one
// worker-exec span with non-zero durations, and (c) the admin
// listener's /metrics serves a valid Prometheus exposition with series
// from at least 6 subsystems. Wrong answers anywhere are hard failures.
func runTelemetry(ctx *benchCtx) error {
	cat, err := datagen.Generate(
		datagen.Config{Seed: *seedFlag, ObjectsPerPatch: 60 + *objectsFlag*2, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 3, MaxCopies: 12},
	)
	if err != nil {
		return err
	}
	dataRoot, err := os.MkdirTemp("", "qserv-bench-telemetry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)

	// Both clusters get a durable store so the measured execution paths
	// are identical; the store is also what registers the chunkstore
	// series gate (c) counts.
	mk := func(disable bool, dir string) (*qserv.Cluster, error) {
		cfg := qserv.DefaultClusterConfig(4)
		cfg.Replication = 2
		cfg.DisableTelemetry = disable
		cfg.DataDir = filepath.Join(dataRoot, dir)
		if !disable {
			cfg.AdminAddr = "127.0.0.1:0"
		}
		cl, err := qserv.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := cl.Load(cat); err != nil {
			cl.Close()
			return nil, err
		}
		return cl, nil
	}
	offCl, err := mk(true, "off")
	if err != nil {
		return err
	}
	defer offCl.Close()
	onCl, err := mk(false, "on")
	if err != nil {
		return err
	}
	defer onCl.Close()

	oracle, err := qserv.NewOracle(qserv.DefaultClusterConfig(4))
	if err != nil {
		return err
	}
	if err := oracle.Load(cat); err != nil {
		return err
	}

	const probes = 50
	idRes, err := oracle.Query(fmt.Sprintf("SELECT objectId FROM Object ORDER BY objectId LIMIT %d", probes))
	if err != nil {
		return err
	}
	var ids []int64
	for _, r := range idRes.Rows {
		ids = append(ids, r[0].(int64))
	}
	if len(ids) < probes/2 {
		return fmt.Errorf("telemetry: only %d probe ids", len(ids))
	}

	wrong := 0
	check := func(sql string, got *qserv.Result) error {
		want, err := oracle.Query(sql)
		if err != nil {
			return err
		}
		if !sameRendered(renderRows(got.Rows, false), renderRows(want.Rows, false)) {
			wrong++
		}
		return nil
	}

	// The measured workload: one uncached index dive per probe id.
	// Warmup exercises planner, fabric lanes, and the merge pipeline on
	// a statement the probes never reuse, so neither cluster pays
	// first-touch costs inside the timed loop.
	measure := func(cl *qserv.Cluster) ([]time.Duration, error) {
		for i := 0; i < 3; i++ {
			if _, err := cl.Query("SELECT COUNT(*) AS n FROM Source"); err != nil {
				return nil, err
			}
		}
		var lat []time.Duration
		for _, id := range ids {
			sql := fmt.Sprintf("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = %d", id)
			t0 := time.Now()
			res, err := cl.Query(sql)
			if err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(t0))
			if err := check(sql, res); err != nil {
				return nil, err
			}
		}
		return lat, nil
	}
	offLat, err := measure(offCl)
	if err != nil {
		return err
	}
	onLat, err := measure(onCl)
	if err != nil {
		return err
	}
	offP50, offP99 := percentile(offLat, 50), percentile(offLat, 99)
	onP50, onP99 := percentile(onLat, 50), percentile(onLat, 99)
	delta := onP50 - offP50
	overheadOK := onP50 <= offP50+offP50/20 || delta <= 500*time.Microsecond

	// Gate (b): EXPLAIN ANALYZE of a fan-out aggregate nothing has
	// cached yet on the on-cluster, so every chunk dispatches and ships
	// its worker subtree back.
	ea, err := onCl.Query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM Object")
	if err != nil {
		return err
	}
	spanRe := regexp.MustCompile(`^\s*(czar merge|worker exec)\s+(\S+)`)
	var mergeSpan, execSpan bool
	for _, row := range ea.Rows {
		line, _ := row[0].(string)
		m := spanRe.FindStringSubmatch(line)
		if m == nil || m[2] == "0s" {
			continue
		}
		if m[1] == "czar merge" {
			mergeSpan = true
		} else {
			execSpan = true
		}
	}
	// EXPLAIN ANALYZE ran the statement for real (and cached its rows);
	// the plain statement must agree with the oracle.
	plain, err := onCl.Query("SELECT COUNT(*) AS n FROM Object")
	if err != nil {
		return err
	}
	if err := check("SELECT COUNT(*) AS n FROM Object", plain); err != nil {
		return err
	}

	// Gate (c): scrape the admin listener like Prometheus would.
	resp, err := http.Get("http://" + onCl.AdminAddr() + "/metrics")
	if err != nil {
		return fmt.Errorf("telemetry: scrape /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("telemetry: read /metrics: %w", err)
	}
	expoErr := telemetry.ValidateExposition(body)
	subsystems := 0
	var present []string
	for _, p := range []string{"qserv_czar_", "qserv_qcache_", "qserv_worker_", "qserv_scanshare_",
		"qserv_member_", "qserv_chunkstore_", "qserv_xrd_", "qserv_frontend_"} {
		if strings.Contains(string(body), "\n"+p) || strings.HasPrefix(string(body), p) {
			subsystems++
			present = append(present, strings.TrimSuffix(strings.TrimPrefix(p, "qserv_"), "_"))
		}
	}

	fmt.Printf("claim: telemetry rides the hot path within noise, EXPLAIN ANALYZE renders the span tree, /metrics spans the cluster\n")
	fmt.Printf("workload: %d uncached point dives x {telemetry off, telemetry on}, 4 workers x replication 2\n", len(ids))
	fmt.Printf("  telemetry off: p50 %10v  p99 %10v\n", offP50, offP99)
	fmt.Printf("  telemetry on:  p50 %10v  p99 %10v  (p50 delta %v)\n", onP50, onP99, delta)
	fmt.Printf("  EXPLAIN ANALYZE: %d tree lines; czar merge span timed: %v; worker exec span timed: %v\n",
		len(ea.Rows), mergeSpan, execSpan)
	fmt.Printf("  /metrics: %d bytes, exposition valid: %v, %d subsystems: %s\n",
		len(body), expoErr == nil, subsystems, strings.Join(present, " "))

	ctx.metric("off_p50_us", float64(offP50.Microseconds()))
	ctx.metric("on_p50_us", float64(onP50.Microseconds()))
	ctx.metric("p50_delta_us", float64(delta.Microseconds()))
	ctx.metric("explain_tree_lines", float64(len(ea.Rows)))
	ctx.metric("metrics_subsystems", float64(subsystems))
	ctx.gate("overhead_p50", overheadOK, fmt.Sprintf("on %v vs off %v", onP50, offP50))
	ctx.gate("explain_spans", mergeSpan && execSpan, fmt.Sprintf("merge=%v exec=%v", mergeSpan, execSpan))
	ctx.gate("metrics_exposition", expoErr == nil && subsystems >= 6, fmt.Sprintf("%d subsystems", subsystems))
	ctx.gate("oracle", wrong == 0, fmt.Sprintf("%d wrong answers", wrong))

	switch {
	case wrong > 0:
		fmt.Printf("  RESULT: FAIL — %d answers differ from the oracle\n", wrong)
		return fmt.Errorf("telemetry: %d wrong answers", wrong)
	case !mergeSpan || !execSpan:
		fmt.Printf("  RESULT: FAIL — EXPLAIN ANALYZE tree lacks a timed span (czar merge: %v, worker exec: %v)\n", mergeSpan, execSpan)
		return fmt.Errorf("telemetry: incomplete span tree (merge=%v exec=%v)", mergeSpan, execSpan)
	case expoErr != nil:
		fmt.Printf("  RESULT: FAIL — /metrics exposition invalid: %v\n", expoErr)
		return fmt.Errorf("telemetry: invalid exposition: %w", expoErr)
	case subsystems < 6:
		fmt.Printf("  RESULT: FAIL — /metrics covers only %d subsystems (want >= 6)\n", subsystems)
		return fmt.Errorf("telemetry: %d subsystems exported", subsystems)
	case !overheadOK:
		fmt.Printf("  RESULT: FAIL — telemetry-on p50 %v vs off %v exceeds 5%% and the 500µs floor\n", onP50, offP50)
		return fmt.Errorf("telemetry: overhead p50 %v vs %v", onP50, offP50)
	default:
		fmt.Printf("  RESULT: ok — overhead within gate, span tree complete, exposition valid across %d subsystems\n", subsystems)
		return nil
	}
}
