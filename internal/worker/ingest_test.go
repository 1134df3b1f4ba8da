package worker

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dump"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

func sensorRegistry(t testing.TB) *meta.Registry {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return meta.NewRegistry("demo", ch)
}

func demoSpec() meta.CatalogSpec {
	return meta.CatalogSpec{
		Database: "demo",
		Tables: []meta.TableSpec{{
			Name: "T", Kind: meta.KindDirector,
			Columns: sqlengine.Schema{
				{Name: "id", Type: sqlparse.TypeInt},
				{Name: "ra", Type: sqlparse.TypeFloat},
				{Name: "decl", Type: sqlparse.TypeFloat},
			},
			RAColumn: "ra", DeclColumn: "decl", DirectorKey: "id",
		}},
	}
}

// TestIngestOverTCPRoundTrip drives the whole /load transaction family
// over the real TCP fabric endpoint: the spec installs the catalog on
// the worker, two row batches build a chunk table (and its overlap
// companion and director-key index) incrementally, and a chunk query
// dispatched over the same fabric reads the rows back.
func TestIngestOverTCPRoundTrip(t *testing.T) {
	reg := sensorRegistry(t)
	w := mustNew(t, DefaultConfig("w0"), reg)
	defer w.Close()
	srv, err := xrd.Serve("127.0.0.1:0", w)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ep := xrd.NewTCPEndpoint("w0", srv.Addr())
	defer ep.Close()

	red := xrd.NewRedirector()
	red.Register(ep, "/result")
	client := xrd.NewClient(red)
	ctx := context.Background()

	// DDL over the fabric.
	specPayload, err := ingest.EncodeSpec(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.WriteTo(ctx, "w0", xrd.LoadSpecPath, specPayload); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Table("T"); err != nil {
		t.Fatalf("spec did not reach the worker registry: %v", err)
	}

	// Two batches for one chunk: the table, its overlap companion and
	// the director-key index must grow incrementally.
	const chunk = 99
	batches := []ingest.Batch{
		{
			Rows:    []sqlengine.Row{{int64(1), 10.0, 5.0, int64(chunk), int64(0)}},
			Overlap: []sqlengine.Row{{int64(7), 10.6, 5.0, int64(chunk + 1), int64(0)}},
		},
		{
			Rows: []sqlengine.Row{{int64(2), 10.1, 5.1, int64(chunk), int64(1)}},
		},
	}
	for _, b := range batches {
		payload, err := ingest.EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.WriteTo(ctx, "w0", xrd.LoadPath("T", chunk), payload); err != nil {
			t.Fatal(err)
		}
	}

	db, err := w.Engine().Database("demo")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table(meta.ChunkTableName("T", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("chunk table has %d rows, want 2", tbl.Len())
	}
	if !tbl.HasIndex("id") {
		t.Error("director-key index not built incrementally")
	}
	ov, err := db.Table(meta.OverlapTableName("T", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if ov.Len() != 1 {
		t.Fatalf("overlap table has %d rows, want 1", ov.Len())
	}
	found := false
	for _, c := range w.Chunks() {
		if c == partition.ChunkID(chunk) {
			found = true
		}
	}
	if !found {
		t.Error("worker does not report the ingested chunk")
	}

	// The data answers a chunk query dispatched over the same fabric.
	red.Register(ep, xrd.QueryPath(chunk))
	payload := []byte("-- CLASS: INTERACTIVE\nSELECT id FROM T_99 WHERE id = 2;\n")
	name, err := client.Write(ctx, xrd.QueryPath(chunk), payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := client.ReadFrom(ctx, name, xrd.ResultPath(payload))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := dump.Decode(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != 1 || dec.Rows[0][0] != int64(2) {
		t.Errorf("result does not contain the ingested row: %v", dec.Rows)
	}
}

// TestIngestLoadPathErrors checks the /load error surface: unknown
// tables, malformed payloads and paths, and kind/path mismatches.
func TestIngestLoadPathErrors(t *testing.T) {
	reg := sensorRegistry(t)
	w := mustNew(t, DefaultConfig("w0"), reg)
	defer w.Close()

	if err := w.HandleWrite(xrd.LoadPath("T", 1), []byte("x")); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Errorf("load into undeclared table: %v", err)
	}
	if err := w.HandleWrite(xrd.LoadSpecPath, []byte("{")); err == nil {
		t.Error("malformed spec accepted")
	}
	if err := w.HandleWrite(xrd.LoadSpecPath, mustSpec(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.LoadPath("T", 1), []byte("garbage")); err == nil {
		t.Error("malformed batch accepted")
	}
	if err := w.HandleWrite("/load/t/T", nil); err == nil {
		t.Error("chunkless load path accepted")
	}
	empty, err := ingest.EncodeBatch(ingest.Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.LoadSharedPath("T"), empty); err == nil ||
		!strings.Contains(err.Error(), "partitioned") {
		t.Errorf("shared load into partitioned table: %v", err)
	}

	// A batch holding a cell its column cannot take (a string that is no
	// number, for DOUBLE ra) fails whole, naming table, column and row, and
	// leaves the chunk table and its overlap companion as long as they were.
	good := []sqlengine.Row{{int64(1), 10.0, 5.0, int64(1), int64(0)}}
	for _, b := range []ingest.Batch{
		{Rows: good, Overlap: good},
		{Rows: []sqlengine.Row{good[0], {int64(2), "east", 5.0, int64(1), int64(0)}}, Overlap: good},
	} {
		payload, err := ingest.EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		err = w.HandleWrite(xrd.LoadPath("T", 1), payload)
		if bad := len(b.Rows) > 1; bad != (err != nil) {
			t.Fatalf("load of %d rows: %v", len(b.Rows), err)
		} else if bad {
			for _, part := range []string{"table T_1", "column ra", "row 2"} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not name %s", err, part)
				}
			}
		}
	}
	db, err := w.Engine().Database("demo")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{meta.ChunkTableName("T", 1), meta.OverlapTableName("T", 1)} {
		if tbl, err := db.Table(name); err != nil || tbl.Len() != 1 {
			t.Errorf("table %s after the refused batch: %v rows, %v; want the 1 it had", name, tbl.Len(), err)
		}
	}
}

// TestParseQueryPath: the chunk id is the whole rest of the path.
func TestParseQueryPath(t *testing.T) {
	for path, want := range map[string]int{"/query2/12": 12, "/query2/12abc": -1, "/query2/": -1, "/query3/12": -1, "/query2/1/2": -1} {
		if id, err := parseQueryPath(path); (err != nil) != (want < 0) || (err == nil && int(id) != want) {
			t.Errorf("parseQueryPath(%q) = %d, %v; want %d", path, id, err, want)
		}
	}
}

func mustSpec(t *testing.T) []byte {
	t.Helper()
	payload, err := ingest.EncodeSpec(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	return payload
}
