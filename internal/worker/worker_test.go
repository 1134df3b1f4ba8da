package worker

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dump"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

// mustNew builds a worker, failing the test on a store-recovery error.
func mustNew(t testing.TB, cfg Config, reg *meta.Registry) *Worker {
	t.Helper()
	w, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// load ships rows to the worker the way an ingest does: one encoded batch
// written to a /load path (xrd.LoadPath or xrd.LoadSharedPath), so fixtures
// are installed by the code production uses. A batch without rows still
// creates the chunk's tables.
func load(t testing.TB, w *Worker, path string, rows, overlap []sqlengine.Row) {
	t.Helper()
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: rows, Overlap: overlap})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(path, payload); err != nil {
		t.Fatal(err)
	}
}

// testWorker builds a worker with one Object chunk containing a few
// hand-placed rows (including overlap rows from a neighboring chunk).
func testWorker(t testing.TB, cfg Config) (*Worker, partition.ChunkID) {
	t.Helper()
	w, chunk := openTestWorker(t, cfg)
	t.Cleanup(w.Close)
	return w, chunk
}

// openTestWorker is testWorker for a test that closes the worker itself.
func openTestWorker(t testing.TB, cfg Config) (*Worker, partition.ChunkID) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	w := mustNew(t, cfg, reg)

	// Pick the chunk containing (100, 0).
	chunk, _ := ch.Locate(sphgeom.NewPoint(100, 0))
	bounds, err := ch.ChunkBounds(chunk)
	if err != nil {
		t.Fatal(err)
	}

	mkRow := func(id int64, ra, decl, zflux float64) sqlengine.Row {
		c, s := ch.Locate(sphgeom.NewPoint(ra, decl))
		return sqlengine.Row{id, ra, decl, 1e-28, 1e-28, 1e-28, 1e-28, zflux, 1e-28,
			2e-28, 0.05, int64(c), int64(s)}
	}
	center := sphgeom.NewPoint(bounds.RAMin+bounds.RAExtent()/2, (bounds.DeclMin+bounds.DeclMax)/2)
	rows := []sqlengine.Row{
		mkRow(1, center.RA, center.Decl, 3e-28),
		mkRow(2, center.RA+0.05, center.Decl+0.03, 5e-28), // near object 1
		mkRow(3, bounds.RAMin+0.1, center.Decl, 1e-29),
	}
	// One overlap row just past the chunk's RA max edge.
	overlapPt := sphgeom.NewPoint(bounds.RAMax+0.1, center.Decl)
	overlap := []sqlengine.Row{mkRow(4, overlapPt.RA, overlapPt.Decl, 2e-29)}

	load(t, w, xrd.LoadPath("Object", int(chunk)), rows, overlap)
	return w, chunk
}

// submit writes a chunk query and reads its result dump.
func submit(t testing.TB, w *Worker, chunk partition.ChunkID, payload string) string {
	t.Helper()
	data := []byte(payload)
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), data); err != nil {
		t.Fatalf("HandleWrite: %v", err)
	}
	out, err := w.HandleRead(xrd.ResultPath(data))
	if err != nil {
		t.Fatalf("HandleRead: %v", err)
	}
	return string(out)
}

// loadResult decodes a result stream into a table of a scratch engine,
// so tests can query what the worker shipped.
func loadResult(t testing.TB, stream string) (*sqlengine.Engine, string) {
	t.Helper()
	dec, err := dump.Decode(stream)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	tbl := sqlengine.NewTable(dec.Name, dec.Schema)
	if err := tbl.Insert(dec.Rows...); err != nil {
		t.Fatalf("load result: %v", err)
	}
	e := sqlengine.New("LSST")
	e.CreateDatabase("LSST").Put(tbl)
	return e, dec.Name
}

// TestNewFillsZeroValuesFromDefaultConfig: a worker built from a Config that
// leaves a knob at zero runs with DefaultConfig's value for it; the lane
// counts keep their floor of one.
func TestNewFillsZeroValuesFromDefaultConfig(t *testing.T) {
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	w := mustNew(t, Config{Name: "w0"}, datagen.LSSTRegistry(ch))
	defer w.Close()
	want := DefaultConfig("w0")
	want.Slots, want.InteractiveSlots = 1, 1
	if w.cfg != want {
		t.Errorf("New(Config{Name}) runs with\n %+v, want\n %+v", w.cfg, want)
	}
}

func TestSimpleChunkQuery(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	stream := submit(t, w, chunk, fmt.Sprintf(
		"SELECT objectId FROM LSST.Object_%d WHERE zFlux_PS > 1e-28;", chunk))
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT COUNT(*) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("rows = %v, want 2", res.Rows[0][0])
	}
}

// TestResultStreamDeclaresCompiledTypes: the stream's column types are the
// ones the statements' compiler declares, not a guess from whichever
// statement of the job ran first. A job whose first statement finds no row
// used to declare every column DOUBLE, and the czar's decoder then turned
// the later statements' objectIds into float64.
func TestResultStreamDeclaresCompiledTypes(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	dec, err := dump.Decode(submit(t, w, chunk, fmt.Sprintf(
		"SELECT objectId, ra_PS FROM LSST.Object_%[1]d WHERE objectId = 999;"+
			"SELECT objectId, ra_PS FROM LSST.Object_%[1]d WHERE objectId = 2;", chunk)))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Schema[0].Type != sqlparse.TypeInt || dec.Schema[1].Type != sqlparse.TypeFloat {
		t.Errorf("stream declares %v, %v; want BIGINT, DOUBLE", dec.Schema[0].Type, dec.Schema[1].Type)
	}
	if len(dec.Rows) != 1 || dec.Rows[0][0] != int64(2) {
		t.Errorf("rows = %v, want one row of objectId int64(2)", dec.Rows)
	}

	// No row at all: a VARCHAR column still says so.
	tags := sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}, {Name: "tag", Type: sqlparse.TypeString}}
	spec, err := ingest.EncodeSpec(meta.CatalogSpec{Database: "LSST",
		Tables: []meta.TableSpec{{Name: "Tags", Kind: meta.KindReplicated, Columns: tags}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.LoadSpecPath, spec); err != nil {
		t.Fatal(err)
	}
	load(t, w, xrd.LoadSharedPath("Tags"), []sqlengine.Row{{int64(1), "a"}}, nil)
	dec, err = dump.Decode(submit(t, w, chunk, "SELECT tag, id FROM LSST.Tags WHERE id = 999;"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != 0 || dec.Schema[0].Type != sqlparse.TypeString || dec.Schema[1].Type != sqlparse.TypeInt {
		t.Errorf("empty stream: %d rows, declares %v, %v; want none, VARCHAR, BIGINT",
			len(dec.Rows), dec.Schema[0].Type, dec.Schema[1].Type)
	}
}

func TestChunkQueryUsesObjectIdIndex(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	stream := submit(t, w, chunk, fmt.Sprintf(
		"SELECT * FROM LSST.Object_%d WHERE objectId = 2;", chunk))
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT objectId FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 2 {
		t.Fatalf("point lookup: %v", res.Rows)
	}
	// The worker-side execution must have used the index (a random
	// read, no full scan).
	reports := w.Reports()
	last := reports[len(reports)-1]
	if last.Stats.RandReads == 0 {
		t.Errorf("chunk objectId index unused: %+v", last.Stats)
	}
}

func TestMultiStatementAccumulation(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	payload := fmt.Sprintf(
		"SELECT objectId FROM LSST.Object_%d WHERE objectId = 1;\nSELECT objectId FROM LSST.Object_%d WHERE objectId = 3;",
		chunk, chunk)
	stream := submit(t, w, chunk, payload)
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT COUNT(*) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("accumulated rows = %v, want 2 (one per statement)", res.Rows[0][0])
	}
}

// TestChunkQueryCannotWrite: a chunk query reads. A payload holding a
// statement that writes — alone, after a SELECT, in either lane — fails to
// parse and runs nothing, so the worker's tables, their rows and their
// indexes are what they were, and the SELECT alone answers as before.
func TestChunkQueryCannotWrite(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	table := "LSST." + meta.ChunkTableName("Object", chunk)
	count := "SELECT COUNT(*) AS n, SUM(objectId) AS s FROM " + table + ";"
	before, tables := submit(t, w, chunk, count), w.db.TableNames()
	for _, stmt := range []string{
		"CREATE TABLE LSST.planted (a BIGINT)",
		"CREATE TABLE LSST.planted AS SELECT * FROM " + table,
		"INSERT INTO " + table + " (objectId) VALUES (99)",
		"DROP TABLE " + table,
		"DROP TABLE IF EXISTS " + table,
		"CREATE INDEX i ON " + table + " (zFlux_PS)",
	} {
		for _, payload := range []string{stmt + ";", count + "\n" + stmt + ";", "-- CLASS: FULLSCAN\n" + count + "\n" + stmt + ";"} {
			data := []byte(payload)
			err := w.HandleWrite(xrd.QueryPath(int(chunk)), data)
			if err == nil {
				_, err = w.HandleRead(xrd.ResultPath(data))
			}
			if err == nil || !strings.Contains(err.Error(), "expected SELECT") {
				t.Errorf("%q: err = %v, want the parser's refusal", payload, err)
			}
		}
	}
	if got := w.db.TableNames(); !slices.Equal(got, tables) {
		t.Errorf("tables %v before the writes, %v after", tables, got)
	}
	if tbl, err := w.db.Table(meta.ChunkTableName("Object", chunk)); err != nil || tbl.HasIndex("zFlux_PS") {
		t.Errorf("the chunk table after the writes: %v, indexed on zFlux_PS: %v", err, err == nil && tbl.HasIndex("zFlux_PS"))
	}
	if after := submit(t, w, chunk, count); after != before {
		t.Errorf("the count answers\n%q\nafter the writes, not\n%q", after, before)
	}
}

func TestSubchunkGenerationAndJoin(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	// Objects 1 and 2 are ~0.06 deg apart; count ordered near pairs
	// within 0.5 deg across all subchunks of the chunk.
	reg := w.registry
	subs, err := reg.Chunker.AllSubChunks(chunk)
	if err != nil {
		t.Fatal(err)
	}
	var header strings.Builder
	header.WriteString("-- SUBCHUNKS:")
	for i, s := range subs {
		if i > 0 {
			header.WriteString(",")
		}
		fmt.Fprintf(&header, " %d", s)
	}
	// The pair is written for the first listed subchunk and runs for each.
	s := subs[0]
	payload := header.String() + "\n" + fmt.Sprintf(
		"SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_%d_%d AS o1, LSST.Object_%d_%d AS o2 WHERE (qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.4);\n"+
			"SELECT COUNT(*) AS qserv_c0 FROM LSST.Object_%d_%d AS o1, LSST.ObjectFullOverlap_%d_%d AS o2 WHERE (qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.4);\n",
		chunk, s, chunk, s, chunk, s, chunk, s)
	stream := submit(t, w, chunk, payload)
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT SUM(qserv_c0) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs within 0.4 deg: self pairs (1,1),(2,2),(3,3) + (1,2),(2,1).
	// Object 3 is ~0.9 deg from 1 and 2. Object 4 (overlap) is beyond
	// 0.4 of everything in-chunk (the chunk spans ~2 deg RA).
	if got := res.Rows[0][0].(int64); got != 5 {
		t.Errorf("near pairs = %d, want 5", got)
	}
	// The subchunk tables were the job's: the catalog never held one.
	if names := catalogSubchunkTables(w); len(names) > 0 {
		t.Errorf("the catalog holds subchunk tables %v", names)
	}
}

// catalogSubchunkTables lists the tables of the worker's catalog whose names
// decode to a subchunk kind.
func catalogSubchunkTables(w *Worker) []string {
	var out []string
	for _, name := range w.db.TableNames() {
		if ref, ok := w.registry.ResolveTable(name); ok && ref.Kind.Subchunk() {
			out = append(out, name)
		}
	}
	return out
}

func TestSubchunkOverlapCrossBorderPair(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	// Object 4 lives in the NEXT chunk but is 0.1 deg past the border;
	// a 0.5-deg near-neighbor search from object 3... object 3 is at
	// RAMin+0.1, far from RAMax. Query pairs within 0.5 deg of the
	// overlap row instead: place a probe subquery over all subchunks
	// and count pairs with o2 in overlap.
	reg := w.registry
	bounds, _ := reg.Chunker.ChunkBounds(chunk)
	// Add an in-chunk object 0.2 deg inside the RA max edge: within
	// 0.35 deg of overlap object 4.
	info, _ := reg.Table("Object")
	db, _ := w.Engine().Database("LSST")
	tbl, _ := db.Table(meta.ChunkTableName("Object", chunk))
	p := sphgeom.NewPoint(bounds.RAMax-0.2, (bounds.DeclMin+bounds.DeclMax)/2)
	c, s := reg.Chunker.Locate(p)
	if c != chunk {
		t.Fatalf("probe point not in chunk: %d vs %d", c, chunk)
	}
	if err := tbl.Insert(sqlengine.Row{int64(9), p.RA, p.Decl, 1e-28, 1e-28, 1e-28, 1e-28,
		1e-28, 1e-28, 1e-28, 0.05, int64(c), int64(s)}); err != nil {
		t.Fatal(err)
	}
	_ = info

	payload := fmt.Sprintf("-- SUBCHUNKS: %d\n"+
		"SELECT o2.objectId AS qserv_c0 FROM LSST.Object_%d_%d AS o1, LSST.ObjectFullOverlap_%d_%d AS o2 WHERE (qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.4);",
		s, chunk, s, chunk, s)
	stream := submit(t, w, chunk, payload)
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT COUNT(*) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) < 1 {
		t.Error("cross-border pair not found via overlap table")
	}
}

// TestDuplicatePayloadDeduplicated: a bare write repeated before its read is
// the same chunk query — one job, one read.
func TestDuplicatePayloadDeduplicated(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d;", chunk))
	for i := 0; i < 2; i++ {
		if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
			t.Fatal(err)
		}
	}
	out, err := w.HandleRead(xrd.ResultPath(payload))
	if err != nil || len(out) == 0 {
		t.Fatalf("read: %v", err)
	}
	if _, err := w.HandleRead(xrd.ResultPath(payload)); err == nil {
		t.Error("a second read found the result its one job already served")
	}
	if held, ran := w.HeldJobs(), len(w.Reports()); held != 0 || ran != 1 {
		t.Errorf("%d jobs held and %d run, want 0 and 1", held, ran)
	}
}

// TestRepeatedDispatchIsOneJob: a query's chunk-query write delivered twice,
// as a transport re-delivery does, is one job, gone after the query's one
// read; a query that never wrote it reads nothing.
func TestRepeatedDispatchIsOneJob(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d;", chunk))
	qpath, rpath := xrd.QueryPath(int(chunk)), xrd.ResultPath(payload)
	for i := 0; i < 2; i++ {
		if err := w.HandleWrite(xrd.WithQID(qpath, "czar-0-7"), payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{xrd.WithQID(rpath, "czar-0-9"), rpath} {
		if _, err := w.HandleRead(path); err == nil {
			t.Errorf("read %s by a query that never wrote the chunk query succeeded", path)
		}
	}
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-7")); err != nil {
		t.Fatalf("the writing query's read: %v", err)
	}
	if held, ran := w.HeldJobs(), len(w.Reports()); held != 0 || ran != 1 {
		t.Errorf("%d jobs held and %d run after the one read, want 0 and 1", held, ran)
	}
}

func TestBadPayloads(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	// Malformed SQL: write succeeds (queued), read reports the error.
	payload := []byte("THIS IS NOT SQL")
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HandleRead(xrd.ResultPath(payload)); err == nil {
		t.Error("malformed SQL should surface on result read")
	}
	// Query against a chunk table the worker does not have.
	payload2 := []byte("SELECT COUNT(*) FROM LSST.Object_999999;")
	if err := w.HandleWrite(xrd.QueryPath(999999), payload2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HandleRead(xrd.ResultPath(payload2)); err == nil {
		t.Error("missing chunk table should surface on result read")
	}
	// Bad paths.
	if err := w.HandleWrite("/nonsense", []byte("x")); err == nil {
		t.Error("bad write path accepted")
	}
	if _, err := w.HandleRead("/result/short"); err == nil {
		t.Error("bad result hash accepted")
	}
	if _, err := w.HandleRead(xrd.ResultPath([]byte("never written"))); err == nil {
		t.Error("unknown result hash should fail")
	}
}

func TestInteractiveLaneFIFO(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.InteractiveSlots = 1 // strict FIFO within the interactive lane
	w, chunk := testWorker(t, cfg)
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf("-- CLASS: INTERACTIVE\nSELECT COUNT(*) FROM LSST.Object_%d WHERE objectId != %d;", chunk, i))
		payloads = append(payloads, p)
		if err := w.HandleWrite(xrd.QueryPath(int(chunk)), p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		if _, err := w.HandleRead(xrd.ResultPath(p)); err != nil {
			t.Fatal(err)
		}
	}
	reports := w.Reports()
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, r := range reports {
		if r.Class != core.Interactive {
			t.Errorf("job %d class = %v, want Interactive", i, r.Class)
		}
		if i > 0 && reports[i].StartedAt.Before(reports[i-1].StartedAt) {
			t.Errorf("FIFO violated: job %d started before job %d", i, i-1)
		}
	}
}

func TestScanLaneGangStartOrder(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 1
	w, chunk := testWorker(t, cfg)
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		// No CLASS header: defaults to the scan lane.
		p := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d WHERE objectId != %d;", chunk, i))
		payloads = append(payloads, p)
		if err := w.HandleWrite(xrd.QueryPath(int(chunk)), p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		if _, err := w.HandleRead(xrd.ResultPath(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Gang members run concurrently (they share one read of the chunk), so report
	// order follows completion; but start times are stamped in arrival
	// order. Sorting by start time must recover queue order.
	reports := w.Reports()
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].StartedAt.Before(reports[j].StartedAt) })
	for i := 1; i < len(reports); i++ {
		if reports[i].QueuedAt.Before(reports[i-1].QueuedAt) {
			t.Errorf("gang start order broke arrival order at job %d", i)
		}
	}
	for i, r := range reports {
		if r.Class != core.FullScan {
			t.Errorf("job %d class = %v, want FullScan", i, r.Class)
		}
	}
}

func TestQueueFull(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 1
	cfg.QueueDepth = 1
	w, chunk := testWorker(t, cfg)
	// Saturate: 1 executing + 1 queued, then overflow.
	accepted := 0
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d WHERE objectId > %d;", chunk, i))
		if err := w.HandleWrite(xrd.QueryPath(int(chunk)), p); err == nil {
			accepted++
		}
	}
	if accepted == 20 {
		t.Error("queue never filled; depth limit not enforced")
	}
	if accepted == 0 {
		t.Error("nothing accepted")
	}
}

// holdScan registers test_hold on w's engine and writes a scan of chunk
// that calls it: with one scan slot, the scan holds the slot until gate is
// closed. It returns once the scan is running.
func holdScan(t *testing.T, w *Worker, chunk partition.ChunkID, gate chan struct{}) []byte {
	t.Helper()
	entered := make(chan struct{}, 1)
	w.Engine().RegisterFunc("test_hold", func(args []sqlengine.Value) (sqlengine.Value, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return args[0], nil
	})
	blocker := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d WHERE test_hold(zFlux_PS) > 0;", chunk))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), blocker); err != nil {
		t.Fatal(err)
	}
	<-entered
	return blocker
}

// TestResultReadEndsWithItsCallerOrTheWorker: no timer bounds a result
// read. A read of a queued job returns when its caller's context ends, and
// the job goes with it; a read blocked on a queued job returns an error
// when the worker closes.
func TestResultReadEndsWithItsCallerOrTheWorker(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 1
	w, chunk := testWorker(t, cfg)
	gate := make(chan struct{})
	blocker := holdScan(t, w, chunk, gate)
	queued := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d;", chunk))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), queued); err != nil {
		t.Fatal(err)
	}
	if _, scan := w.QueueLens(); scan != 1 {
		t.Fatalf("scan queue len = %d, want 1", scan)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := w.HandleReadContext(ctx, xrd.ResultPath(queued)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read of a queued job whose caller gave up: %v", err)
	}
	if _, scan := w.QueueLens(); scan != 0 || w.HeldJobs() != 1 {
		t.Fatalf("after the read gave up: %d queued, %d held; want 0 and the blocker", scan, w.HeldJobs())
	}
	close(gate)
	if _, err := w.HandleRead(xrd.ResultPath(blocker)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.HeldJobs() != 0 || w.ActiveJobs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after both jobs ended: %d held, %d active", w.HeldJobs(), w.ActiveJobs())
		}
		time.Sleep(time.Millisecond)
	}

	w2, chunk := openTestWorker(t, cfg)
	gate2 := make(chan struct{})
	holdScan(t, w2, chunk, gate2)
	if err := w2.HandleWrite(xrd.QueryPath(int(chunk)), queued); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := w2.HandleRead(xrd.ResultPath(queued))
		readErr <- err
	}()
	closed := make(chan struct{})
	go func() { w2.Close(); close(closed) }()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("a read of a job the closed worker never ran answered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read blocked on a queued job outlived its worker's Close")
	}
	close(gate2)
	<-closed
}

// TestConcurrentChunkQueries: 16 queries, four to a payload, each write and
// read their own chunk query at once.
func TestConcurrentChunkQueries(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			p := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d WHERE objectId >= %d;", chunk, i%4))
			qid := fmt.Sprintf("czar-0-%d", i)
			if err := w.HandleWrite(xrd.WithQID(xrd.QueryPath(int(chunk)), qid), p); err != nil {
				errs <- err
				return
			}
			_, err := w.HandleRead(xrd.WithQID(xrd.ResultPath(p), qid))
			errs <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if held, ran := w.HeldJobs(), len(w.Reports()); held != 0 || ran != 16 {
		t.Errorf("%d jobs held and %d run, want 0 and 16", held, ran)
	}
}

// TestSubchunkBaseParsing: which of a job's tables are subchunk tables it
// builds, and from which base table's chunk unit.
func TestSubchunkBaseParsing(t *testing.T) {
	w := digitSuffixWorker(t)
	cases := []struct {
		in   string
		base string
		ok   bool
	}{
		{"Object_123_4", "Object", true},
		{"ObjectFullOverlap_123_4", "Object", true},
		{"Source_9_0", "Source", true},
		{"Object_123", "", false},
		{"Object", "", false},
		{"Forced_Source_1_2", "Forced_Source", true},
		{"Object_x_4", "", false},
		// Chunk 58 of Station_7 is a stored table, not a subchunk of Station.
		{"Station_7_58", "", false},
		{"Station_7_58_3", "Station_7", true},
		{"Station_7FullOverlap_58_3", "Station_7", true},
		{"Reading_2_1_58", "", false},
		{"Reading_2_1_58_3", "Reading_2_1", true},
	}
	for _, c := range cases {
		base, ok := "", false
		ref, _ := w.registry.ResolveTable(c.in)
		if use := resolveOne(t, w, c.in); use != nil && ref.Kind.Subchunk() {
			base, ok = use.id.Table, true
		}
		if ok != c.ok || base != c.base {
			t.Errorf("subchunk base of %q = %q, %v; want %q, %v", c.in, base, ok, c.base, c.ok)
		}
	}
}

// TestServedResultsAreReleased: once every query that asked for a chunk
// result has read it the worker keeps nothing — N distinct finished
// queries leave an empty registry, not N retained result streams.
func TestServedResultsAreReleased(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	const n = 50
	for i := 0; i < n; i++ {
		submit(t, w, chunk, fmt.Sprintf("SELECT objectId FROM LSST.Object_%d WHERE objectId > %d;", chunk, i-n))
	}
	held := w.HeldJobs()
	if held != 0 {
		t.Fatalf("%d of %d served results still held", held, n)
	}
	if got := len(w.Reports()); got != n {
		t.Errorf("reports = %d, want %d", got, n)
	}

	// Two queries write one payload: each has a job of its own, which goes
	// when its query has read. A second read by either was never paid for.
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d;", chunk))
	qpath, rpath := xrd.QueryPath(int(chunk)), xrd.ResultPath(payload)
	ran := len(w.Reports())
	for _, qid := range []string{"czar-0-1", "czar-0-2"} {
		if err := w.HandleWrite(xrd.WithQID(qpath, qid), payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, qid := range []string{"czar-0-1", "czar-0-2"} {
		if _, err := w.HandleRead(xrd.WithQID(rpath, qid)); err != nil {
			t.Fatalf("%s's read: %v", qid, err)
		}
	}
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-1")); err == nil {
		t.Error("a second read found a result its query already read")
	}
	if got := len(w.Reports()) - ran; got != 2 {
		t.Errorf("two queries' writes of one payload ran %d jobs, want 2", got)
	}
	held = w.HeldJobs()
	if held != 0 {
		t.Errorf("%d results held after both queries read", held)
	}

	// A query that cancels after its job finished never reads; the job
	// goes with the cancel.
	ran = len(w.Reports())
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(w.Reports()) != ran+1 {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %d reports", len(w.Reports()))
		}
		time.Sleep(time.Millisecond)
	}
	if w.Cancel(xrd.ResultHash(payload)) {
		t.Error("Cancel reported a live job for a finished one")
	}
	held = w.HeldJobs()
	if held != 0 {
		t.Errorf("%d results held after its query cancelled", held)
	}

	// A job is released once, by the query that wrote it: queries a and b
	// write one payload, a reads, and a's late cancel (a kill racing its
	// own read over the TCP fabric) must not end b's job — b's read still
	// finds the result.
	cpath := xrd.CancelPath(xrd.ResultHash(payload))
	for _, qid := range []string{"czar-0-1", "czar-0-2"} {
		if err := w.HandleWrite(xrd.WithQID(qpath, qid), payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-1")); err != nil {
		t.Fatalf("a's read: %v", err)
	}
	if err := w.HandleWrite(xrd.WithQID(cpath, "czar-0-1"), nil); err != nil {
		t.Fatal(err)
	}
	// A query that never wrote here, or an anonymous reader, reads
	// nothing and ends nothing.
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-9")); err == nil {
		t.Error("a stranger's read found a result")
	}
	if _, err := w.HandleRead(rpath); err == nil {
		t.Error("an anonymous read found a result")
	}
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-2")); err != nil {
		t.Fatalf("b's read after a read and then cancelled: %v", err)
	}
	held = w.HeldJobs()
	if held != 0 {
		t.Errorf("%d results held after a and b both read", held)
	}

	// A reader that gives up releases its job itself — no cancel has to
	// follow.
	// The statement sets its own length (20 ms a row): a job that finished
	// before the read arrived would leave the read a choice between the
	// outcome and the cancelled context.
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(20*time.Millisecond))
	slow := []byte(fmt.Sprintf("SELECT COUNT(*) FROM LSST.Object_%d WHERE test_slow(ra_PS) < 1e9;", chunk))
	if err := w.HandleWrite(xrd.WithQID(qpath, "czar-0-3"), slow); err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if _, err := w.HandleReadContext(ctx, xrd.WithQID(xrd.ResultPath(slow), "czar-0-3")); err == nil {
		t.Fatal("read under a cancelled context succeeded")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		held = w.HeldJobs()
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d results held after the only reader gave up", held)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedOutcomeNotRetained: an identical chunk query submitted
// after a failure re-executes instead of being answered with the
// failure — here the chunk table it needs arrives in between.
func TestFailedOutcomeNotRetained(t *testing.T) {
	w, chunk := testWorker(t, DefaultConfig("w0"))
	other := chunk + 1
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.Object_%d;", other))
	run := func() ([]byte, error) {
		if err := w.HandleWrite(xrd.QueryPath(int(other)), payload); err != nil {
			t.Fatal(err)
		}
		return w.HandleRead(xrd.ResultPath(payload))
	}
	if _, err := run(); err == nil {
		t.Fatal("query against a chunk table the worker lacks succeeded")
	}
	load(t, w, xrd.LoadPath("Object", int(other)), nil, nil)
	out, err := run()
	if err != nil {
		t.Fatalf("identical query after the table arrived: %v", err)
	}
	if got := countResult(t, string(out)); got != 0 {
		t.Errorf("count over the new empty chunk = %d", got)
	}

	// A failure its query has not read yet is that query's alone: a later
	// query writing the same payload runs afresh and reads the fresh
	// outcome, and the first still reads its failure.
	missing := []byte("SELECT COUNT(*) FROM LSST.Object_424242;")
	qpath, rpath := xrd.QueryPath(424242), xrd.ResultPath(missing)
	if err := w.HandleWrite(xrd.WithQID(qpath, "czar-0-1"), missing); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		reports := w.Reports()
		if last := reports[len(reports)-1]; last.Hash == xrd.ResultHash(missing) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failing job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	load(t, w, xrd.LoadPath("Object", 424242), nil, nil)
	if err := w.HandleWrite(xrd.WithQID(qpath, "czar-0-2"), missing); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-2")); err != nil {
		t.Fatalf("the later query read the stale failure: %v", err)
	}
	if _, err := w.HandleRead(xrd.WithQID(rpath, "czar-0-1")); err == nil {
		t.Error("the first query's failure was answered with the later outcome")
	}
	held := w.HeldJobs()
	if held != 0 {
		t.Errorf("%d results held after both queries read", held)
	}
}

// TestReportsAreBounded: the execution log is a ring of the most recent
// maxReports entries, oldest first.
func TestReportsAreBounded(t *testing.T) {
	w, _ := testWorker(t, DefaultConfig("w0"))
	const extra = 10
	w.mu.Lock()
	for i := 0; i < maxReports+extra; i++ {
		w.report(JobReport{ResultLen: i})
	}
	w.mu.Unlock()
	got := w.Reports()
	if len(got) != maxReports {
		t.Fatalf("reports = %d, want %d", len(got), maxReports)
	}
	for i, r := range got {
		if r.ResultLen != i+extra {
			t.Fatalf("report %d is execution %d, want %d (oldest first)", i, r.ResultLen, i+extra)
		}
	}
}
