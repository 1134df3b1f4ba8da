package czar

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/member"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/worker"
	"repro/internal/xrd"
)

// load ships one chunk's rows to a worker the way an ingest does: an
// encoded batch written to the table's /load path.
func load(t *testing.T, w *worker.Worker, table string, c partition.ChunkID, rows []sqlengine.Row) {
	t.Helper()
	payload, err := ingest.EncodeBatch(ingest.Batch{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.LoadPath(table, int(c)), payload); err != nil {
		t.Fatal(err)
	}
}

// miniCluster wires one czar to two real workers over the in-process
// fabric, with a handful of Object rows split across two chunks.
func miniCluster(t *testing.T) (*Czar, []*worker.Worker, *xrd.Redirector) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	red := xrd.NewRedirector()
	index := meta.NewObjectIndex()
	placement := meta.NewPlacement()

	points := []struct {
		id       int64
		ra, decl float64
	}{
		{1, 30, 0}, {2, 30.2, 0.1}, {3, 210, 40}, {4, 210.3, 40.2},
	}
	// Group points by chunk.
	byChunk := map[partition.ChunkID][]sqlengine.Row{}
	for _, p := range points {
		c, s := ch.Locate(sphgeom.NewPoint(p.ra, p.decl))
		index.Put(p.id, meta.ChunkSub{Chunk: c, Sub: s})
		byChunk[c] = append(byChunk[c], sqlengine.Row{
			p.id, p.ra, p.decl, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28,
			2e-28, 0.05, int64(c), int64(s)})
	}

	var workers []*worker.Worker
	i := 0
	for c, rows := range byChunk {
		w, err := worker.New(worker.DefaultConfig("w"+string(rune('0'+i))), reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		load(t, w, "Object", c, rows)
		load(t, w, "Source", c, nil)
		ep := xrd.NewLocalEndpoint(w.Name(), w)
		red.Register(ep, xrd.QueryPath(int(c)), "/result")
		placement.Assign(c, w.Name())
		workers = append(workers, w)
		i++
	}
	cz := New(DefaultConfig("czar-test"), reg, index, placement, red)
	return cz, workers, red
}

func TestQueryCount(t *testing.T) {
	cz, _, _ := miniCluster(t)
	res, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 4 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if res.ChunksDispatched != 2 {
		t.Errorf("chunks = %d, want 2", res.ChunksDispatched)
	}
	if res.ResultBytes == 0 {
		t.Error("no result bytes accounted")
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestQueryPointViaIndex(t *testing.T) {
	cz, _, _ := miniCluster(t)
	res, err := cz.Query("SELECT objectId, ra_PS FROM Object WHERE objectId = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.ChunksDispatched != 1 {
		t.Errorf("point query dispatched %d chunks", res.ChunksDispatched)
	}
}

func TestQuerySpatialRestriction(t *testing.T) {
	cz, _, _ := miniCluster(t)
	res, err := cz.Query("SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(29, -1, 31, 1)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("box count = %v", res.Rows[0][0])
	}
	if res.ChunksDispatched != 1 {
		t.Errorf("spatial query dispatched %d chunks, want 1", res.ChunksDispatched)
	}
}

func TestQueryAggregateMerge(t *testing.T) {
	cz, _, _ := miniCluster(t)
	res, err := cz.Query("SELECT AVG(ra_PS) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	want := (30 + 30.2 + 210 + 210.3) / 4.0
	got := res.Rows[0][0].(float64)
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("avg = %v, want %v", got, want)
	}
}

func TestQueryEmptyIndexMiss(t *testing.T) {
	cz, _, _ := miniCluster(t)
	res, err := cz.Query("SELECT COUNT(*), SUM(ra_PS) FROM Object WHERE objectId = 9999")
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksDispatched != 0 {
		t.Errorf("dispatched %d chunks for a missing id", res.ChunksDispatched)
	}
	if res.Rows[0][0].(int64) != 0 || !sqlengine.IsNull(res.Rows[0][1]) {
		t.Errorf("empty aggregate: %v", res.Rows[0])
	}
}

// TestAnswersInvariantUnderCombining runs this file's statements, and one of
// every other plan shape, on two czars over the same four rows: one with the
// shipped combine threshold, which these few rows never reach, and one that
// combines whenever a session holds two rows — after nearly every chunk.
// Rows are compared as sets: without ORDER BY their order is arrival order.
func TestAnswersInvariantUnderCombining(t *testing.T) {
	shipped, _, _ := miniCluster(t)
	eager, _, _ := miniCluster(t)
	eager.compactRows = 2
	answer := func(cz *Czar, sql string) string {
		res, err := cz.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = fmt.Sprint(r)
		}
		if !strings.Contains(sql, "ORDER BY") {
			sort.Strings(rows)
		}
		return strings.Join(rows, " ")
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT COUNT(*) FROM Object", "[4]"},
		{"SELECT objectId, ra_PS FROM Object WHERE objectId = 3", "[3 210]"},
		{"SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(29, -1, 31, 1)", "[2]"},
		{"SELECT AVG(ra_PS) FROM Object", ""},
		{"SELECT COUNT(*), SUM(ra_PS) FROM Object WHERE objectId = 9999", "[0 <nil>]"},
		{"SELECT MIN(objectId), MAX(decl_PS), SUM(objectId) FROM Object", "[1 40.2 10]"},
		{"SELECT chunkId, COUNT(*) AS n, MIN(ra_PS), MAX(objectId) FROM Object GROUP BY chunkId", ""},
		{"SELECT COUNT(*) AS n, MAX(objectId) FROM Object GROUP BY chunkId ORDER BY n, MAX(objectId) DESC LIMIT 1", "[2 4]"},
		{"SELECT objectId FROM Object ORDER BY objectId LIMIT 2", "[1] [2]"},
		{"SELECT objectId, decl_PS FROM Object ORDER BY ra_PS DESC LIMIT 3", "[4 40.2] [3 40] [2 0.1]"},
		{"SELECT objectId FROM Object ORDER BY decl_PS LIMIT 1", "[1]"},
		{"SELECT objectId FROM Object", "[1] [2] [3] [4]"},
		{"SELECT objectId FROM Object LIMIT 10", "[1] [2] [3] [4]"},
		{"SELECT DISTINCT subChunkId - subChunkId FROM Object", "[0]"},
	} {
		got := answer(eager, tc.sql)
		if want := answer(shipped, tc.sql); got != want {
			t.Errorf("%s: %s when combining, %s when not", tc.sql, got, want)
		}
		if tc.want != "" && got != tc.want {
			t.Errorf("%s: %s, want %s", tc.sql, got, tc.want)
		}
	}
}

func TestReadFailureFailsOver(t *testing.T) {
	cz, workers, red := miniCluster(t)
	// Register a second replica for every chunk of worker 0 by loading
	// the same chunks into a fresh worker.
	reg := workers[0]
	chunks := reg.Chunks()
	if len(chunks) == 0 {
		t.Fatal("worker 0 has no chunks")
	}
	// Kill worker 0 at the endpoint level: with no replica the query
	// must fail with a chunk error.
	for _, name := range red.EndpointNames() {
		if name == workers[0].Name() {
			red.SetDown(name, true)
		}
	}
	_, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err == nil {
		t.Fatal("query should fail with a dead unreplicated worker")
	}
	if !strings.Contains(err.Error(), "chunk") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestBadSQLRejected(t *testing.T) {
	cz, _, _ := miniCluster(t)
	if _, err := cz.Query("DELETE FROM Object"); err == nil {
		t.Error("non-SELECT should be rejected")
	}
	if _, err := cz.Query("SELECT * FROM"); err == nil {
		t.Error("malformed SQL should be rejected")
	}
}

func TestResultTableCleanup(t *testing.T) {
	cz, _, _ := miniCluster(t)
	for i := 0; i < 5; i++ {
		if _, err := cz.Query("SELECT COUNT(*) FROM Object"); err != nil {
			t.Fatal(err)
		}
	}
	db, err := cz.Engine().Database("qservResult")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(db.TableNames()); n != 0 {
		t.Errorf("%d result tables leaked: %v", n, db.TableNames())
	}
	// Staging tables in the default db are cleaned too.
	def, err := cz.Engine().Database(cz.Engine().DefaultDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range def.TableNames() {
		if strings.HasPrefix(name, "r_") {
			t.Errorf("staging table leaked: %s", name)
		}
	}
}

// fakeMembership marks scripted workers dead.
type fakeMembership struct{ dead map[string]bool }

func (f fakeMembership) Dead(w string) bool    { return f.dead[w] }
func (f fakeMembership) Status() member.Status { return member.Status{} }

// replicatedMini wires one czar to two workers that BOTH hold the same
// chunk (replication 2), registered with wA first so dispatch would
// try it first.
func replicatedMini(t *testing.T) (*Czar, *worker.Worker, *worker.Worker, partition.ChunkID) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	red := xrd.NewRedirector()
	index := meta.NewObjectIndex()
	placement := meta.NewPlacement()

	c, s := ch.Locate(sphgeom.NewPoint(30, 0))
	rows := []sqlengine.Row{
		{int64(1), 30.0, 0.0, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 2e-28, 0.05, int64(c), int64(s)},
		{int64(2), 30.2, 0.1, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 2e-28, 0.05, int64(c), int64(s)},
	}
	var ws []*worker.Worker
	for _, name := range []string{"wA", "wB"} {
		w, err := worker.New(worker.DefaultConfig(name), reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		load(t, w, "Object", c, rows)
		red.Register(xrd.NewLocalEndpoint(name, w), xrd.QueryPath(int(c)), "/result")
		ws = append(ws, w)
	}
	placement.Assign(c, "wA", "wB")
	cz := New(DefaultConfig("czar-health"), reg, index, placement, red)
	return cz, ws[0], ws[1], c
}

// TestHealthAwareDispatchSkipsDead: with a membership installed, a
// replica the detector knows is dead receives no dispatch at all — it
// costs the chunk one avoid-map entry, not a timed-out transaction.
func TestHealthAwareDispatchSkipsDead(t *testing.T) {
	cz, wA, wB, _ := replicatedMini(t)
	cz.SetMembership(fakeMembership{dead: map[string]bool{"wA": true}})
	res, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if n := len(wA.Reports()); n != 0 {
		t.Fatalf("dead-marked replica executed %d chunk queries", n)
	}
	if n := len(wB.Reports()); n == 0 {
		t.Fatal("surviving replica executed nothing")
	}
}

// TestHealthFalsePositiveFallsBack: when the detector (wrongly) writes
// off every replica of a chunk, dispatch gives the skipped replicas one
// fallback chance instead of failing the query — the detector may lag
// a recovery.
func TestHealthFalsePositiveFallsBack(t *testing.T) {
	cz, wA, wB, _ := replicatedMini(t)
	cz.SetMembership(fakeMembership{dead: map[string]bool{"wA": true, "wB": true}})
	res, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("query should fall back to detector-dead replicas: %v", err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if len(wA.Reports())+len(wB.Reports()) == 0 {
		t.Fatal("fallback executed nothing")
	}
}

// TestNoMembershipKeepsLegacyDispatch: without a membership the avoid
// set starts empty and the first registered replica serves, exactly as
// before the availability subsystem existed.
func TestNoMembershipKeepsLegacyDispatch(t *testing.T) {
	cz, wA, _, _ := replicatedMini(t)
	res, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if len(wA.Reports()) == 0 {
		t.Fatal("first replica should have served the chunk")
	}
	if _, ok := cz.ClusterStatus(); ok {
		t.Fatal("ClusterStatus without membership should report ok=false")
	}
}
