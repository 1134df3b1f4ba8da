package worker

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/xrd"
)

// materializeRows is the product's default /load batch size
// (ClusterConfig.IngestBatchRows), so also the size of a stored segment.
const materializeRows = 2048

// materializeFixture returns the Object table's catalog entry and one
// encoded batch of materializeRows Object rows, director keys from base.
func materializeFixture(tb testing.TB, base int64) (*meta.TableInfo, []byte) {
	tb.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	info, err := datagen.LSSTRegistry(ch).Table("Object")
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]sqlengine.Row, materializeRows)
	for i := range rows {
		rows[i] = objectRow(base+int64(i), 7)
	}
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: rows})
	if err != nil {
		tb.Fatal(err)
	}
	return info, payload
}

// chunkTables makes an empty chunk table (director key indexed) and its
// overlap companion, as installUnit and /load do.
func chunkTables(tb testing.TB, info *meta.TableInfo) (t, ov *sqlengine.Table) {
	tb.Helper()
	t, err := info.NewIngestTable(meta.ChunkTableName(info.Name, 7))
	if err != nil {
		tb.Fatal(err)
	}
	return t, sqlengine.NewTable(meta.OverlapTableName(info.Name, 7), info.Schema)
}

// BenchmarkMaterialize prices the step a cold chunk pays before its first
// scan, and every /load batch pays on arrival: one batch of 2,048
// 13-column Object rows from its encoded bytes into a chunk table and its
// director-key index. `make bench-layers` runs it.
func BenchmarkMaterialize(b *testing.B) {
	info, payload := materializeFixture(b, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		t, ov := chunkTables(b, info)
		if err := appendBatch(payload, t, ov); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*materializeRows), "ns/row")
}

// TestMaterializeAllocBudget is BenchmarkMaterialize's count, gated: rows
// go from encoded bytes to column slices without being boxed, so applying
// a batch allocates per column, never per row. The budget is for a table
// past its first growth steps (a slice grown from nothing reallocates a
// dozen times on its way to 2,048 cells).
func TestMaterializeAllocBudget(t *testing.T) {
	info, payload := materializeFixture(t, 0)
	tbl, ov := chunkTables(t, info)
	for i := 0; i < 4; i++ {
		if err := appendBatch(payload, tbl, ov); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := appendBatch(payload, tbl, ov); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(64 + 4*len(info.Schema)); allocs > budget {
		t.Errorf("applying a %d-row batch: %.0f allocations (budget %.0f for %d columns)",
			materializeRows, allocs, budget, len(info.Schema))
	}
}

// nearNeighbourFixture is one SHV1 chunk job at the repository benchmark's
// geometry (bench/catalog.go: 12 stripes of 12 sub-stripes, half a degree of
// overlap, about 4,700 Object rows a chunk): a worker holding one chunk of
// the stripe above the equator and its overlap rows, and the payload the
// czar sends it for a 10 x 10 degree box centred on the chunk's RA edge with
// a radius of 0.02 degrees — the half of bench/'s SHV1 statement that lands
// on one chunk.
func nearNeighbourFixture(tb testing.TB, cfg Config) (*Worker, partition.ChunkID, []byte) {
	return nearNeighbourFixtureOf(tb, cfg, 4700, 0.02)
}

// nearNeighbourFixtureOf is nearNeighbourFixture with rows in the chunk and
// a join radius of the caller's choosing.
func nearNeighbourFixtureOf(tb testing.TB, cfg Config, inChunk int, radius float64) (*Worker, partition.ChunkID, []byte) {
	tb.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 12, NumSubStripesPerStripe: 12, Overlap: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	w := mustNew(tb, cfg, reg)
	tb.Cleanup(w.Close)
	chunk, _ := ch.Locate(sphgeom.NewPoint(100, 7.5))
	bounds, err := ch.ChunkBounds(chunk)
	if err != nil {
		tb.Fatal(err)
	}
	// Uniform positions over the chunk and its margin, at the density that
	// puts inChunk inside the chunk.
	dil := bounds.Dilated(0.5)
	n := int(float64(inChunk) * dil.RAExtent() * (dil.DeclMax - dil.DeclMin) / (bounds.RAExtent() * (bounds.DeclMax - bounds.DeclMin)))
	r := rand.New(rand.NewSource(7))
	var rows, overlap []sqlengine.Row
	for i := 0; i < n; i++ {
		p := sphgeom.NewPoint(dil.RAMin+r.Float64()*dil.RAExtent(), dil.DeclMin+r.Float64()*(dil.DeclMax-dil.DeclMin))
		c, s := ch.Locate(p)
		row := sqlengine.Row{int64(i), p.RA, p.Decl, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 2e-28, 0.05, int64(c), int64(s)}
		if c == chunk {
			rows = append(rows, row)
		} else {
			overlap = append(overlap, row)
		}
	}
	load(tb, w, xrd.LoadPath("Object", int(chunk)), rows, overlap)

	sel, err := sqlparse.ParseSelect(fmt.Sprintf(`SELECT count(*) FROM Object o1, Object o2
		WHERE qserv_areaspec_box(%v, 2.5, %v, 12.5)
		AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %v`, bounds.RAMin-5, bounds.RAMin+5, radius))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := core.NewPlanner(reg, nil).Plan(sel, []partition.ChunkID{chunk})
	if err != nil {
		tb.Fatal(err)
	}
	return w, chunk, plan.QueryFor(chunk).Payload()
}

// BenchmarkNearNeighbourJob prices one SHV1 chunk job from its payload to
// its result bytes: subchunk build, every statement, the result stream.
// Besides ns and allocations per job it reports how many statements a job
// parsed (a one-chunk dispatch parses its pair) and how many pairs its
// joins visited. `make bench-layers` runs it.
func BenchmarkNearNeighbourJob(b *testing.B) {
	cfg := DefaultConfig("w-nn")
	cfg.Metrics = telemetry.NewRegistry()
	w, chunk, payload := nearNeighbourFixture(b, cfg)
	submit(b, w, chunk, string(payload))
	parsed0, _ := cfg.Metrics.Value("qserv_worker_statements_parsed_total", "worker", "w-nn")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(b, w, chunk, string(payload))
	}
	b.StopTimer()
	parsed, _ := cfg.Metrics.Value("qserv_worker_statements_parsed_total", "worker", "w-nn")
	reps := w.Reports()
	b.ReportMetric(float64(parsed-parsed0)/float64(b.N), "parsed/job")
	b.ReportMetric(float64(reps[len(reps)-1].Stats.PairsConsidered), "pairs/job")
}

// TestChunkResultCopiedOnce: between the buffer a traced job's statements
// write their rows into and the bytes it ships, the rows are copied once —
// into the framed stream, which leaves room for the span trailer to go on
// in place. What the job allocates is that stream and a constant, not the
// stream twice over.
func TestChunkResultCopiedOnce(t *testing.T) {
	cfg := DefaultConfig("w-copy")
	cfg.Trace = true
	w, chunk, _ := nearNeighbourFixtureOf(t, cfg, 10000, 0.02)
	payload := []byte(fmt.Sprintf("SELECT * FROM LSST.Object_%d;", chunk))
	job := func() []byte {
		if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
			t.Fatal(err)
		}
		out, err := w.HandleRead(xrd.ResultPath(payload))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// A job that misses the pool of row buffers grows its buffer from
	// nothing, which is not what is measured here: a collection would empty
	// the pool, a job on another P than the last finds another P's slot
	// (one P), and the race detector drops a quarter of what is put back
	// (the least of eight jobs is the one measured).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job()
	var out []byte
	alloc := uint64(math.MaxUint64)
	for range 8 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out = job()
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	stream, spans := telemetry.ExtractTrailer(out)
	if len(spans) == 0 || len(stream) < 1<<20 {
		t.Fatalf("a %d-byte result with %d spans: want a traced result of over a MiB", len(stream), len(spans))
	}
	const constant = 64 << 10
	if alloc > uint64(len(out)+constant) {
		t.Errorf("a traced job shipping %d bytes (%d of them the trailer) allocated %d: over the result and %d bytes",
			len(out), len(out)-len(stream), alloc, constant)
	}
}

// BenchmarkScanTransaction prices what a worker does per chunk of a full
// scan outside the engine's scan itself: an HV1 chunk query over 24 chunks
// of 2,000 Object rows, sent as one dispatch listing all 24 (parsed once,
// bound per chunk) against the same 24 chunks as 24 one-chunk payloads —
// what bench/'s replay sends, each parsed by its own job. It reports ns and
// allocations per chunk. `make bench-layers` runs it.
func BenchmarkScanTransaction(b *testing.B) {
	w, chunks := loadBigChunks(b, DefaultConfig("w-txn"), 24, 2000)
	stmt := func(c partition.ChunkID) string {
		return fmt.Sprintf("SELECT COUNT(*) AS qserv_c0 FROM LSST.%s AS Object WHERE (zFlux_PS > 1e-30)", meta.ChunkTableName("Object", c))
	}
	run := func(b *testing.B, payloads [][]byte, hashes []string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, p := range payloads {
				if err := w.HandleWrite(xrd.QueryPath(int(chunks[k])), p); err != nil {
					b.Fatal(err)
				}
			}
			for _, h := range hashes {
				if _, err := w.HandleRead(xrd.ResultPathOf(h)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * len(chunks))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/chunk")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/chunk")
	}
	b.Run("dispatch", func(b *testing.B) {
		d := core.Dispatch{Class: core.FullScan, Statements: []string{stmt(chunks[0])}}
		var hashes []string
		for _, c := range chunks {
			one := core.ChunkQuery{Chunk: c, Class: core.FullScan, Statements: []string{stmt(c)}}
			h := xrd.ResultHash(one.Payload())
			d.Chunks = append(d.Chunks, core.DispatchChunk{Chunk: c, Hash: h})
			hashes = append(hashes, h)
		}
		run(b, [][]byte{d.Payload()}, hashes)
	})
	b.Run("one-chunk", func(b *testing.B) {
		var payloads [][]byte
		var hashes []string
		for _, c := range chunks {
			p := core.ChunkQuery{Chunk: c, Class: core.FullScan, Statements: []string{stmt(c)}}.Payload()
			payloads, hashes = append(payloads, p), append(hashes, xrd.ResultHash(p))
		}
		run(b, payloads, hashes)
	})
}
