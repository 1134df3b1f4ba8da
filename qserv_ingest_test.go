package qserv

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/sqlengine"
	"repro/internal/worker"
	"repro/internal/xrd"
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
// goes to Replication workers concurrently (their lanes write the same
// encoded batch in parallel), and answers still match the oracle.
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
	// Nor may a half-loaded table be copied between workers. That gate is
	// the czar's — a worker exports whatever it is asked for: the repairer
	// copies only tables whose ingest completed, and a join holds the ingest
	// gate, so it waits this ingest out before it seeds the new worker.
	if tables := cl.partitionedTables(); len(tables) != 0 {
		t.Errorf("tables a repair would copy mid-ingest: %v, want none", tables)
	}
	joined := make(chan error, 1)
	go func() { joined <- cl.AddWorker("late") }()
	select {
	case err := <-joined:
		t.Fatalf("AddWorker returned (%v) while an ingest was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(src.released)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatalf("AddWorker after the ingest finished: %v", err)
	}
	if tables := cl.partitionedTables(); len(tables) != 1 || tables[0] != "Object" {
		t.Errorf("tables a repair copies after the ingest: %v, want [Object]", tables)
	}
	got, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("query after ingest: %v", err)
	}
	if got.Rows[0][0].(int64) != 1 {
		t.Errorf("count = %v, want 1", got.Rows[0][0])
	}
}

// sensorsNames are the table names sensorsCatalog is run under: plain ones,
// and ones that end in digit groups, which the worker-side naming
// convention (Station_7_58: chunk 58 of Station_7) must not read as chunk
// and subchunk ids of a shorter name.
var sensorsNames = [][2]string{{"Station", "Reading"}, {"Station_7", "Reading_2_1"}}

// sensorsCatalog is a small non-LSST catalog: a director table of stations
// and a child table of their readings, in a database of its own.
func sensorsCatalog(t *testing.T, station, reading string) (spec CatalogSpec, stations, readings []Row) {
	t.Helper()
	spec = CatalogSpec{
		Database: "sensors",
		Tables: []TableSpec{
			{
				Name: station, Kind: Director,
				Columns: []ColumnSpec{
					{Name: "stationId", Type: Integer},
					{Name: "lon", Type: Double},
					{Name: "lat", Type: Double},
				},
				RAColumn: "lon", DeclColumn: "lat", DirectorKey: "stationId",
				Overlap: true,
			},
			{
				Name: reading, Kind: Child, Director: station,
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

// checkSensorsCatalog installs sensorsCatalog, under the given table names,
// on the cluster through the public API and checks its answers against the
// oracle. On a cluster that runs its own durable workers it then restarts
// every one of them — each comes back with its units on disk and a registry
// it re-declared from its stored spec — and checks again; the caller turns
// the result cache off, or that second pass would not reach a worker.
func checkSensorsCatalog(t *testing.T, cl *Cluster, station, reading string) {
	t.Helper()
	spec, stations, readings := sensorsCatalog(t, station, reading)
	oracle, err := NewOracle(cl.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTables(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(station, RowsOf(stations)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(reading, RowsOf(readings)); err != nil {
		t.Fatal(err)
	}
	if err := oracle.CreateTables(spec); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Ingest(station, RowsOf(stations)); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Ingest(reading, RowsOf(readings)); err != nil {
		t.Fatal(err)
	}

	dive := "SELECT COUNT(*) AS n FROM " + reading + " WHERE stationId = 42"
	nearby := " s1, " + station + " s2 WHERE %s AND qserv_angSep(s1.lon, s1.lat, s2.lon, s2.lat) < 0.4"
	// Where the oracle needs a statement spelled differently it is the
	// second of the pair.
	queries := [][2]string{
		{"SELECT COUNT(*) AS n FROM " + station},
		{"SELECT COUNT(*) AS n FROM " + reading},
		{"SELECT COUNT(*) AS n FROM " + station + " WHERE lat > -100"}, // a scan: the stored row count cannot answer it
		{"SELECT AVG(value) AS m, COUNT(*) AS n FROM " + reading + " WHERE stationId = 42"},
		{"SELECT COUNT(*) AS n FROM " + station + " WHERE qserv_areaspec_box(10, -30, 120, 30)"},
		// The subchunk tables of a near-neighbour join, derived names and all.
		{"SELECT COUNT(*) AS n FROM " + station + fmt.Sprintf(nearby, "qserv_areaspec_box(10, -30, 120, 30)"),
			"SELECT COUNT(*) AS n FROM " + station + fmt.Sprintf(nearby, "qserv_ptInSphericalBox(s1.lon, s1.lat, 10, -30, 120, 30) = 1")},
		{dive},
	}
	check := func(label string) {
		t.Helper()
		for _, q := range queries {
			sql, oracleSQL := q[0], q[0]
			if q[1] != "" {
				oracleSQL = q[1]
			}
			got, err := cl.Query(sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", label, sql, err)
			}
			if got.CacheHit {
				t.Fatalf("%s: %q was answered from the result cache, not executed", label, sql)
			}
			want, err := oracle.Query(oracleSQL)
			if err != nil {
				t.Fatalf("oracle %q: %v", oracleSQL, err)
			}
			sameAnswer(t, got, want, label+": "+sql)
			if sql == dive && got.ChunksDispatched != 1 {
				t.Errorf("%s: director-key dive dispatched %d chunks, want 1", label, got.ChunksDispatched)
			}
		}
	}
	check("after ingest")

	if len(cl.Workers) == 0 || cl.Config.DataDir == "" {
		return
	}
	for _, name := range cl.WorkerNames() {
		if err := cl.RestartWorker(name); err != nil {
			t.Fatal(err)
		}
		workerState(t, cl, name, WorkerAlive, 10*time.Second)
	}
	check("after a durable restart of every worker")
	if st := cl.Status().Repair; st.TablesCopied != 0 || st.ChunksHealed != 0 {
		t.Errorf("durable restarts needed repair: %+v", st)
	}
}

// TestCustomCatalogSpec runs a small non-LSST schema through the full
// distributed path and checks it against the oracle — the in-tree
// version of examples/customcatalog — under both sets of table names, on
// workers that keep everything in memory (unless the environment says
// otherwise), on durable workers restarted with their data on disk, and on
// workers whose budget evicts every unit nothing is reading.
func TestCustomCatalogSpec(t *testing.T) {
	lanes := []struct {
		name  string
		tweak func(*ClusterConfig)
	}{
		{"default", func(*ClusterConfig) {}},
		{"durable", func(cfg *ClusterConfig) { cfg.DataDir = t.TempDir() }},
		{"evicting", func(cfg *ClusterConfig) { cfg.WorkerMemoryBudget = 1 }},
	}
	for _, names := range sensorsNames {
		for _, lane := range lanes {
			t.Run(names[0]+"/"+lane.name, func(t *testing.T) {
				cfg := DefaultClusterConfig(3)
				cfg.Database = "sensors"
				cfg.ResultCacheBytes = 0
				lane.tweak(&cfg)
				cl, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cl.Close)
				checkSensorsCatalog(t, cl, names[0], names[1])
				if cfg.WorkerMemoryBudget == 0 {
					return
				}
				var st worker.ResidencyStats
				for _, w := range cl.Workers {
					ws := w.ResidencyStats()
					st.Evictions += ws.Evictions
					st.Materializations += ws.Materializations
				}
				if st.Evictions == 0 || st.Materializations == 0 {
					t.Errorf("a 1-byte budget evicted %d units and re-materialized %d; want both", st.Evictions, st.Materializations)
				}
			})
		}
	}
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

	// Every chunk query the two queries wrote to the workers — read, or
	// abandoned when the first query's first chunk failed — has been
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

// loadCapture wraps a worker's fabric handler and keeps every /load batch
// it is written, by path, in arrival order.
type loadCapture struct {
	inner   xrd.ContextHandler
	mu      sync.Mutex
	batches map[string][][]byte
}

func (c *loadCapture) HandleWrite(path string, data []byte) error {
	return c.HandleWriteContext(context.Background(), path, data)
}

func (c *loadCapture) HandleRead(path string) ([]byte, error) {
	return c.inner.HandleReadContext(context.Background(), path)
}

func (c *loadCapture) HandleWriteContext(ctx context.Context, path string, data []byte) error {
	if strings.HasPrefix(path, "/load/t/") {
		c.mu.Lock()
		c.batches[path] = append(c.batches[path], bytes.Clone(data))
		c.mu.Unlock()
	}
	return c.inner.HandleWriteContext(ctx, path, data)
}

func (c *loadCapture) HandleReadContext(ctx context.Context, path string) ([]byte, error) {
	return c.inner.HandleReadContext(ctx, path)
}

// TestIngestBatchIsEncodeBatch: the partition pass encodes each row once,
// straight into its chunk's pending batch, and the replicated path once for
// every worker; every batch a worker is sent is byte for byte EncodeBatch
// of the rows it carries — a chunk's own rows, batch after batch, being
// the chunk's rows in stream order with their chunk and subchunk ids, and
// the overlap rows adding up to the ingest's overlap count.
func TestIngestBatchIsEncodeBatch(t *testing.T) {
	cat := ingestTestCatalog(t)
	cfg := DefaultClusterConfig(2)
	cfg.Replication = 2
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var caps []*loadCapture
	for _, w := range cl.Workers {
		c := &loadCapture{inner: w, batches: map[string][][]byte{}}
		cl.Endpoint(w.Name()).SetHandler(c)
		caps = append(caps, c)
	}
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Ingest("Object", objectSource(cat))
	if err != nil {
		t.Fatal(err)
	}
	filters := make([]sqlengine.Row, 0, 6)
	for _, r := range datagen.FilterRows() {
		filters = append(filters, sqlengine.Row(r))
	}
	if _, err := cl.Ingest("Filter", filterSource()); err != nil {
		t.Fatal(err)
	}

	// The rows each chunk owns, in stream order, as storage rows.
	info, err := cl.Registry.Table("Object")
	if err != nil {
		t.Fatal(err)
	}
	placer, err := newRowPlacer(info, cl.Chunker, meta.NewObjectIndex())
	if err != nil {
		t.Fatal(err)
	}
	own := map[int][]sqlengine.Row{}
	src := objectSource(cat)
	for row, ok := src.Next(); ok; row, ok = src.Next() {
		pl, err := placer.place(row)
		if err != nil {
			t.Fatal(err)
		}
		full := append(sqlengine.Row(slices.Clone(row)), int64(pl.chunk), int64(pl.sub))
		own[int(pl.chunk)] = append(own[int(pl.chunk)], full)
	}

	wantFilter, err := ingest.EncodeBatch(ingest.Batch{Rows: filters})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		var overlapRows int64
		for path, batches := range c.batches {
			table, chunk, shared, err := xrd.ParseLoadPath(path)
			if err != nil {
				t.Fatal(err)
			}
			if shared {
				if table != "Filter" || len(batches) != 1 || !bytes.Equal(batches[0], wantFilter) {
					t.Errorf("worker %d: %s got %d batches, want EncodeBatch of the filter rows", i, path, len(batches))
				}
				continue
			}
			next := 0
			for k, payload := range batches {
				b, err := ingest.DecodeBatch(payload)
				if err != nil {
					t.Fatalf("%s batch %d: %v", path, k, err)
				}
				if next+len(b.Rows) > len(own[chunk]) {
					t.Fatalf("%s: batch %d carries %d own rows past the chunk's %d", path, k, len(b.Rows), len(own[chunk]))
				}
				want, err := ingest.EncodeBatch(ingest.Batch{Rows: own[chunk][next : next+len(b.Rows)], Overlap: b.Overlap})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload, want) {
					t.Fatalf("%s batch %d: %d bytes differ from EncodeBatch of its rows (%d bytes)", path, k, len(payload), len(want))
				}
				next += len(b.Rows)
				overlapRows += int64(len(b.Overlap))
			}
			if next != len(own[chunk]) {
				t.Errorf("%s: batches carry %d own rows, the chunk owns %d", path, next, len(own[chunk]))
			}
		}
		if overlapRows != st.OverlapRows || overlapRows == 0 {
			t.Errorf("worker %d was sent %d overlap rows, the ingest counts %d", i, overlapRows, st.OverlapRows)
		}
	}
}
