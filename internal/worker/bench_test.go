package worker

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
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
