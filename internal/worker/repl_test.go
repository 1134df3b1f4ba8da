package worker

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

func replRegistry(t *testing.T) *meta.Registry {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return datagen.LSSTRegistry(ch)
}

func objectRow(id int64, chunk partition.ChunkID) sqlengine.Row {
	return sqlengine.Row{
		id, 30.0 + float64(id)/10, 0.1, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28,
		2e-28, 0.05, int64(chunk), int64(0)}
}

func TestPing(t *testing.T) {
	w := mustNew(t, DefaultConfig("w-ping"), replRegistry(t))
	defer w.Close()
	data, err := w.HandleRead(xrd.PingPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"worker":"w-ping"`) {
		t.Fatalf("ping payload = %s", data)
	}
}

// TestReplRoundTrip moves one chunk worker-to-worker: /load builds it
// on the source, a /repl read exports it, a /repl write installs it on
// the target, and the target's re-export is byte-identical — the
// verification the replication manager relies on. The director-key
// index is rebuilt on arrival.
func TestReplRoundTrip(t *testing.T) {
	reg := replRegistry(t)
	src := mustNew(t, DefaultConfig("w-src"), reg)
	defer src.Close()
	dst := mustNew(t, DefaultConfig("w-dst"), reg)
	defer dst.Close()

	const chunk = partition.ChunkID(7)
	rows := []sqlengine.Row{objectRow(1, chunk), objectRow(2, chunk), objectRow(3, chunk)}
	overlap := []sqlengine.Row{objectRow(9, 8)}
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: rows, Overlap: overlap})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.HandleWrite(xrd.LoadPath("Object", int(chunk)), payload); err != nil {
		t.Fatal(err)
	}

	exported, err := src.HandleRead(xrd.ReplPath("Object", int(chunk)))
	if err != nil {
		t.Fatal(err)
	}
	// Exports are segment-framed; an in-memory worker ships one segment.
	segs, err := ingest.DecodeSegments(exported)
	if err != nil {
		t.Fatal(err)
	}
	var nRows, nOver int
	for _, seg := range segs {
		b, err := ingest.DecodeBatch(seg)
		if err != nil {
			t.Fatal(err)
		}
		nRows += len(b.Rows)
		nOver += len(b.Overlap)
	}
	if nRows != len(rows) || nOver != len(overlap) {
		t.Fatalf("export carried %d+%d rows, want %d+%d", nRows, nOver, len(rows), len(overlap))
	}

	if err := dst.HandleWrite(xrd.ReplPath("Object", int(chunk)), exported); err != nil {
		t.Fatal(err)
	}
	back, err := dst.HandleRead(xrd.ReplPath("Object", int(chunk)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported, back) {
		t.Fatal("target re-export differs from source export")
	}

	db, err := dst.Engine().Database(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table(meta.ChunkTableName("Object", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("objectId") {
		t.Fatal("director-key index not rebuilt on install")
	}
	ov, err := db.Table(meta.OverlapTableName("Object", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if ov.Len() != len(overlap) {
		t.Fatalf("overlap companion has %d rows, want %d", ov.Len(), len(overlap))
	}
	found := false
	for _, c := range dst.Chunks() {
		if c == chunk {
			found = true
		}
	}
	if !found {
		t.Fatal("installed chunk not tracked by the target worker")
	}

	// Replace semantics: re-installing the same batch converges instead
	// of duplicating rows (a torn repair retried).
	if err := dst.HandleWrite(xrd.ReplPath("Object", int(chunk)), exported); err != nil {
		t.Fatal(err)
	}
	tbl, err = db.Table(meta.ChunkTableName("Object", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(rows) {
		t.Fatalf("double install left %d rows, want %d", tbl.Len(), len(rows))
	}
}

func TestReplSharedRoundTrip(t *testing.T) {
	reg := replRegistry(t)
	src := mustNew(t, DefaultConfig("w-src"), reg)
	defer src.Close()
	dst := mustNew(t, DefaultConfig("w-dst"), reg)
	defer dst.Close()

	rows := []sqlengine.Row{{int64(0), "u"}, {int64(1), "g"}}
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.HandleWrite(xrd.LoadSharedPath("Filter"), payload); err != nil {
		t.Fatal(err)
	}
	exported, err := src.HandleRead(xrd.ReplSharedPath("Filter"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.HandleWrite(xrd.ReplSharedPath("Filter"), exported); err != nil {
		t.Fatal(err)
	}
	db, err := dst.Engine().Database(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("Filter")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != len(rows) {
		t.Fatalf("shared install: %d rows, want %d", tbl.Len(), len(rows))
	}
}

func TestReplExportErrors(t *testing.T) {
	reg := replRegistry(t)
	w := mustNew(t, DefaultConfig("w"), reg)
	defer w.Close()
	if _, err := w.HandleRead(xrd.ReplPath("Object", 3)); err == nil {
		t.Error("exporting a chunk the worker does not hold should fail")
	}
	if _, err := w.HandleRead(xrd.ReplPath("NoSuch", 3)); err == nil {
		t.Error("exporting an unknown table should fail")
	}
	if _, err := w.HandleRead(xrd.ReplSharedPath("Object")); err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Errorf("exporting a partitioned table whole: %v", err)
	}
}
