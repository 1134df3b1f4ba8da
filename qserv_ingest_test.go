package qserv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
)

// ingestTestCatalog is a small partial-sky catalog for ingest tests.
func ingestTestCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 300, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 3, SourceDeclLimit: 54, MaxCopies: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// ingestBattery is the equivalence query set: full scans, aggregation
// over the system chunkId column, director-key dives into both tables,
// a spatial restriction, and a replicated-table join-free read.
var ingestBattery = []string{
	"SELECT COUNT(*) AS n FROM Object",
	"SELECT COUNT(*) AS n FROM Source",
	"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
	"SELECT COUNT(*) AS n, AVG(ra_PS) AS m FROM Object WHERE qserv_areaspec_box(0, -5, 30, 10)",
	"SELECT * FROM Object WHERE objectId = 17",
	"SELECT COUNT(*) AS n FROM Source WHERE objectId = 17",
	"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId LIMIT 9",
}

// TestSpecIngestMatchesLegacyLoad is the oracle-equivalence
// acceptance criterion: a cluster loaded through the deprecated Load
// wrapper and one loaded through explicit CreateTables + Ingest of the
// same spec and row sources answer identically, and both match the
// single-node oracle.
func TestSpecIngestMatchesLegacyLoad(t *testing.T) {
	cat := ingestTestCatalog(t)

	legacy, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Close)
	if err := legacy.Load(cat); err != nil {
		t.Fatal(err)
	}

	spec, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(spec.Close)
	if err := spec.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	objRows := make([]Row, len(cat.Objects))
	for i, o := range cat.Objects {
		objRows[i] = Row(datagen.ObjectUserRow(o))
	}
	srcRows := make([]Row, len(cat.Sources))
	for i, s := range cat.Sources {
		srcRows[i] = Row(datagen.SourceUserRow(s))
	}
	st, err := spec.Ingest("Object", RowsOf(objRows))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != int64(len(cat.Objects)) || st.Chunks == 0 || st.Batches == 0 {
		t.Errorf("object ingest stats: %+v", st)
	}
	if _, err := spec.Ingest("Source", RowsOf(srcRows)); err != nil {
		t.Fatal(err)
	}
	filterRows := make([]Row, 0, 6)
	for _, r := range datagen.FilterRows() {
		filterRows = append(filterRows, Row(r))
	}
	if _, err := spec.Ingest("Filter", RowsOf(filterRows)); err != nil {
		t.Fatal(err)
	}

	oracle, err := lsstOracle(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range ingestBattery {
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		for name, cl := range map[string]*Cluster{"legacy": legacy, "spec": spec} {
			got, err := cl.Query(sql)
			if err != nil {
				t.Fatalf("%s cluster %q: %v", name, sql, err)
			}
			sameAnswer(t, got, want, name+" "+sql)
		}
	}

	// The secondary index was fed from the partition pass itself.
	if legacy.Index.Len() != len(cat.Objects) || spec.Index.Len() != len(cat.Objects) {
		t.Errorf("index sizes: legacy %d, spec %d, want %d", legacy.Index.Len(), spec.Index.Len(), len(cat.Objects))
	}
}

// TestIngestWithReplication exercises replica shipping: every batch
// goes to Replication workers concurrently (their lanes encode the
// same Batch value in parallel), and answers still match the oracle.
func TestIngestWithReplication(t *testing.T) {
	cat := ingestTestCatalog(t)
	cfg := DefaultClusterConfig(4)
	cfg.Replication = 2
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
	for _, sql := range ingestBattery[:4] {
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want, "replicated "+sql)
	}
}

// TestReIngestRejected: loading a table twice would duplicate rows on
// the workers, so the second ingest must fail with a clear error.
func TestReIngestRejected(t *testing.T) {
	cat := ingestTestCatalog(t)
	cl, err := NewCluster(DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Ingest("Object", RowsOf(nil))
	if err == nil || !strings.Contains(err.Error(), "already ingested") {
		t.Errorf("re-ingest error = %v, want 'already ingested'", err)
	}
	if err := cl.Load(cat); err == nil || !strings.Contains(err.Error(), "already ingested") {
		t.Errorf("second Load error = %v, want 'already ingested'", err)
	}
}

// TestIngestOrderingAndKeyErrors: children need their director first,
// and a child row with an unknown director key is an error naming it.
func TestIngestOrderingAndKeyErrors(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest("Source", RowsOf(nil)); err == nil ||
		!strings.Contains(err.Error(), "ingest director table Object before") {
		t.Errorf("child-before-director error = %v", err)
	}
	if _, err := cl.Ingest("Object", RowsOf([]Row{
		{int64(1), 10.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05},
	})); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Ingest("Source", RowsOf([]Row{
		{int64(1), int64(999), 54000.0, 10.0, 5.0, 1.0, 0.1, int64(2)},
	}))
	if err == nil || !strings.Contains(err.Error(), "999") || !strings.Contains(err.Error(), "Object") {
		t.Errorf("unknown-key error = %v, want it to name key 999 and table Object", err)
	}
}

// TestIngestArityError names the table, row and expected columns.
func TestIngestArityError(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Ingest("Object", RowsOf([]Row{{int64(1), 10.0}}))
	if err == nil || !strings.Contains(err.Error(), "Object row 1") {
		t.Errorf("arity error = %v", err)
	}
	// The failure happened before anything shipped, so the table is
	// not poisoned: a corrected source may retry.
	if _, err := cl.Ingest("Object", RowsOf([]Row{
		{int64(1), 10.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05},
	})); err != nil {
		t.Errorf("retry after pre-shipment failure: %v", err)
	}
}

// TestIngestErrorNamesChunkTableAndWorker: when a worker rejects a
// batch, the error says which table, chunk and worker.
func TestIngestErrorNamesChunkTableAndWorker(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	cl.Endpoint("worker-000").SetDown(true)
	_, err = cl.Ingest("Object", RowsOf([]Row{
		{int64(1), 10.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05},
	}))
	if err == nil {
		t.Fatal("ingest into a downed worker succeeded")
	}
	for _, want := range []string{"Object", "chunk", "worker-000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ingest error %q does not mention %q", err, want)
		}
	}
}

// TestIngestRefusesUnconvertibleCell: chunk tables hold typed columns, so
// a cell its column's declared type cannot take (a string that is no
// number in DOUBLE uFlux_PS) fails the ingest — it used to be stored as
// given — and the error names the chunk table, the column and the row.
func TestIngestRefusesUnconvertibleCell(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Ingest("Object", RowsOf([]Row{
		{int64(1), 10.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05},
		{int64(2), 10.0, 5.0, "bright", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05},
	}))
	if err == nil {
		t.Fatal("a string in a DOUBLE column was ingested")
	}
	for _, want := range []string{"table Object_", "column uFlux_PS", "row 1", "worker-000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ingest error %q does not mention %q", err, want)
		}
	}
	// The batch was refused whole: the worker holds neither of its rows.
	db, err := cl.Workers[0].Engine().Database(cl.Registry.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.TableNames() {
		if tbl, _ := db.Table(name); tbl.Len() != 0 {
			t.Errorf("table %s holds %d rows of the refused batch", name, tbl.Len())
		}
	}
}

// TestConcurrentIngest ships two replicated tables through their own
// shippers concurrently — race-detector coverage for the per-worker
// lane machinery (CI runs this under -race).
func TestConcurrentIngest(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	spec := CatalogSpec{Tables: []TableSpec{
		{Name: "DimA", Kind: Replicated, Columns: []ColumnSpec{
			{Name: "id", Type: Integer}, {Name: "label", Type: Text}}},
		{Name: "DimB", Kind: Replicated, Columns: []ColumnSpec{
			{Name: "id", Type: Integer}, {Name: "v", Type: Double}}},
	}}
	if err := cl.CreateTables(spec); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var rows []Row
		for i := 0; i < 5000; i++ {
			rows = append(rows, Row{int64(i), fmt.Sprintf("a%d", i)})
		}
		_, errs[0] = cl.Ingest("DimA", RowsOf(rows))
	}()
	go func() {
		defer wg.Done()
		var rows []Row
		for i := 0; i < 5000; i++ {
			rows = append(rows, Row{int64(i), float64(i) * 0.5})
		}
		_, errs[1] = cl.Ingest("DimB", RowsOf(rows))
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent ingest %d: %v", i, err)
		}
	}
	got, err := cl.Query("SELECT COUNT(*) AS n FROM DimA")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].(int64) != 5000 {
		t.Errorf("DimA count = %v", got.Rows[0][0])
	}
}

// gatedSource yields its first row, then blocks until released — it
// holds an ingest mid-stream so tests can probe in-flight state.
type gatedSource struct {
	first    Row
	released chan struct{}
	pos      int
}

func (g *gatedSource) Next() (Row, bool) {
	g.pos++
	if g.pos == 1 {
		return g.first, true
	}
	<-g.released
	return nil, false
}

func (g *gatedSource) Err() error { return nil }

// TestQueriesRejectedDuringIngest: worker chunk tables grow batch by
// batch, so a query referencing a table whose ingest is still in
// flight must be rejected (and a concurrent second ingest of the same
// table too), then work once the ingest finishes.
func TestQueriesRejectedDuringIngest(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{
		first:    Row{int64(1), 10.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05},
		released: make(chan struct{}),
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Ingest("Object", src)
		done <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for !cl.Registry.Ingesting("Object") {
		if time.Now().After(deadline) {
			t.Fatal("ingest never reached in-flight state")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err == nil ||
		!strings.Contains(err.Error(), "being ingested") {
		t.Errorf("query during ingest: err = %v, want 'being ingested'", err)
	}
	if _, err := cl.Ingest("Object", RowsOf(nil)); err == nil ||
		!strings.Contains(err.Error(), "in flight") {
		t.Errorf("concurrent same-table ingest: err = %v, want 'in flight'", err)
	}

	close(src.released)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("query after ingest: %v", err)
	}
	if got.Rows[0][0].(int64) != 1 {
		t.Errorf("count = %v, want 1", got.Rows[0][0])
	}
}

// sensorsCatalog is a small non-LSST catalog: a director table of stations
// and a child table of their readings, in a database of its own.
func sensorsCatalog(t *testing.T) (spec CatalogSpec, stations, readings []Row) {
	t.Helper()
	spec = CatalogSpec{
		Database: "sensors",
		Tables: []TableSpec{
			{
				Name: "Station", Kind: Director,
				Columns: []ColumnSpec{
					{Name: "stationId", Type: Integer},
					{Name: "lon", Type: Double},
					{Name: "lat", Type: Double},
				},
				RAColumn: "lon", DeclColumn: "lat", DirectorKey: "stationId",
				Overlap: true,
			},
			{
				Name: "Reading", Kind: Child, Director: "Station",
				Columns: []ColumnSpec{
					{Name: "readingId", Type: Integer},
					{Name: "stationId", Type: Integer},
					{Name: "value", Type: Double},
				},
				DirectorKey: "stationId",
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 200; i++ {
		stations = append(stations, Row{i, float64(i*7%360) + 0.3, float64(i%140) - 70 + 0.1})
		for k := int64(0); k < 3; k++ {
			readings = append(readings, Row{i*10 + k, i, float64(i) + float64(k)*0.25})
		}
	}
	return spec, stations, readings
}

// checkSensorsCatalog installs sensorsCatalog on the cluster through the
// public API and checks its answers against the oracle.
func checkSensorsCatalog(t *testing.T, cl *Cluster) {
	t.Helper()
	spec, stations, readings := sensorsCatalog(t)
	if err := cl.CreateTables(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest("Station", RowsOf(stations)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest("Reading", RowsOf(readings)); err != nil {
		t.Fatal(err)
	}

	oracle, err := NewOracle(cl.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CreateTables(spec); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Ingest("Station", RowsOf(stations)); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Ingest("Reading", RowsOf(readings)); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT COUNT(*) AS n FROM Station",
		"SELECT COUNT(*) AS n FROM Reading",
		"SELECT AVG(value) AS m, COUNT(*) AS n FROM Reading WHERE stationId = 42",
		"SELECT COUNT(*) AS n FROM Station WHERE qserv_areaspec_box(10, -30, 120, 30)",
	}
	for _, sql := range queries {
		got, err := cl.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want, err := oracle.Query(sql)
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		sameAnswer(t, got, want, sql)
	}

	// The dive went to exactly one chunk.
	dive, err := cl.Query("SELECT COUNT(*) AS n FROM Reading WHERE stationId = 42")
	if err != nil {
		t.Fatal(err)
	}
	if dive.ChunksDispatched != 1 {
		t.Errorf("director-key dive dispatched %d chunks, want 1", dive.ChunksDispatched)
	}
}

// TestCustomCatalogSpec runs a small non-LSST schema through the full
// distributed path and checks it against the oracle — the in-tree
// version of examples/customcatalog.
func TestCustomCatalogSpec(t *testing.T) {
	cfg := DefaultClusterConfig(3)
	cfg.Database = "sensors"
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	checkSensorsCatalog(t, cl)
}

// TestWorkerOutcomeNotServedStale: a statement that failed because its
// table had no data yet must succeed once the data is there. Workers
// address results by statement hash, so a worker that retained the
// failed outcome would answer the identical statement with the old
// failure forever (the czar result cache is off: nothing else may mask
// or cause this).
func TestWorkerOutcomeNotServedStale(t *testing.T) {
	cat := ingestTestCatalog(t)
	cfg := DefaultClusterConfig(4)
	cfg.ResultCacheBytes = 0
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	objRows := make([]Row, len(cat.Objects))
	for i, o := range cat.Objects {
		objRows[i] = Row(datagen.ObjectUserRow(o))
	}
	if _, err := cl.Ingest("Object", RowsOf(objRows)); err != nil {
		t.Fatal(err)
	}

	const sql = "SELECT COUNT(*) AS n FROM Source"
	if res, err := cl.Query(sql); err == nil {
		t.Fatalf("Source scan before its ingest answered %v, want the missing-table failure", res.Rows)
	}

	srcRows := make([]Row, len(cat.Sources))
	for i, s := range cat.Sources {
		srcRows[i] = Row(datagen.SourceUserRow(s))
	}
	if _, err := cl.Ingest("Source", RowsOf(srcRows)); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(sql)
	if err != nil {
		t.Fatalf("identical statement after the ingest still fails: %v", err)
	}
	if got := res.Rows[0][0]; got != int64(len(cat.Sources)) {
		t.Errorf("COUNT(*) = %v, want %d", got, len(cat.Sources))
	}

	// Every interest the two queries registered at the workers — read,
	// or abandoned when the first query's first chunk failed — has been
	// released: an idle cluster holds no chunk-query state.
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range cl.Workers {
		for w.HeldJobs() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s still holds %d chunk queries", w.Name(), w.HeldJobs())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
