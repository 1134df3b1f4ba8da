package czar

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/member"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
	"repro/internal/xrd"
)

// stallHandler accepts every chunk query and never answers one: a result
// read returns only when its caller gives up.
type stallHandler struct{}

func (stallHandler) HandleWrite(string, []byte) error { return nil }

func (stallHandler) HandleRead(string) ([]byte, error) { select {} }

func (stallHandler) HandleWriteContext(context.Context, string, []byte) error { return nil }

func (stallHandler) HandleReadContext(ctx context.Context, _ string) ([]byte, error) {
	<-ctx.Done()
	return nil, context.Cause(ctx)
}

// stalledCzar is a czar whose one chunk lives on a worker that never
// answers, so a SELECT stays in flight until it is killed.
func stalledCzar(t *testing.T) *Czar {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := ch.Locate(sphgeom.NewPoint(30, 0))
	red := xrd.NewRedirector()
	red.Register(xrd.NewLocalEndpoint("stall", stallHandler{}), xrd.QueryPath(int(c)), "/result")
	placement := meta.NewPlacement()
	placement.Assign(c, "stall")
	cz := New(DefaultConfig("czar-manage"), datagen.LSSTRegistry(ch), meta.NewObjectIndex(), placement, red)
	t.Cleanup(cz.Close)
	return cz
}

// TestShowProcesslistAndKill: SHOW PROCESSLIST lists an in-flight query
// and never itself, KILL ends the query with context.Canceled, a
// management statement is not counted as a query, and unknown or
// malformed ids are errors.
func TestShowProcesslistAndKill(t *testing.T) {
	cz := stalledCzar(t)
	reg := telemetry.NewRegistry()
	cz.SetTelemetry(Telemetry{Metrics: reg})
	const sql = "SELECT COUNT(*) FROM Object"
	q, err := cz.Submit(context.Background(), sql, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, show := range []string{"SHOW PROCESSLIST", "show  processlist ;", "\tShow\nProcessList"} {
		pl, err := cz.Query(show)
		if err != nil {
			t.Fatalf("%q: %v", show, err)
		}
		if want := []string{"Id", "Class", "Time", "Chunks", "Rows", "Info"}; !slices.Equal(pl.Cols, want) {
			t.Fatalf("%q columns = %v, want %v", show, pl.Cols, want)
		}
		if len(pl.Rows) != 1 || pl.Rows[0][0] != q.ID() || pl.Rows[0][3] != "0/1" || pl.Rows[0][5] != sql {
			t.Fatalf("%q rows = %v, want the one in-flight query %d", show, pl.Rows, q.ID())
		}
	}

	killed, err := cz.Query(fmt.Sprintf("KILL %d;", q.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(killed.Rows) != 1 || killed.Rows[0][0] != q.ID() {
		t.Fatalf("KILL answered %v", killed.Rows)
	}
	if _, err := q.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed query's Wait = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(cz.Running()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("killed query still listed: %v", cz.Running())
		}
		time.Sleep(time.Millisecond)
	}
	if pl, err := cz.Query("SHOW PROCESSLIST"); err != nil || len(pl.Rows) != 0 {
		t.Fatalf("SHOW PROCESSLIST of an idle czar = %v, %v", pl, err)
	}

	for _, bad := range []string{fmt.Sprintf("KILL %d", q.ID()), "KILL 99", "KILL abc", "KILL", "KILL 1:4"} {
		if _, err := cz.Query(bad); err == nil {
			t.Errorf("%q answered", bad)
		}
	}
	if n, _ := reg.Value("qserv_czar_queries_total"); n != 1 {
		t.Errorf("qserv_czar_queries_total = %d after one SELECT and the management statements, want 1", n)
	}
}

// statusMembership reports a canned availability snapshot.
type statusMembership struct{ st member.Status }

func (statusMembership) Dead(string) bool        { return false }
func (m statusMembership) Status() member.Status { return m.st }

// TestShowWorkers: the availability snapshot renders one row per worker,
// and SHOW REPAIRS the replication manager's progress.
func TestShowWorkers(t *testing.T) {
	cz := stalledCzar(t)
	cz.SetMembership(statusMembership{member.Status{
		Epoch: 7,
		Workers: []member.WorkerStatus{
			{Name: "worker-000", State: member.StateAlive, Chunks: 12, LastSeen: time.Now()},
			{Name: "worker-001", State: member.StateDead, Chunks: 0, Misses: 5, LastErr: "offline"},
		},
		Repair: member.RepairProgress{ChunksRepaired: 3, TablesCopied: 6, BytesCopied: 4096},
	}})

	res, err := cz.Query("SHOW WORKERS")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("SHOW WORKERS rows = %d, want 2", len(res.Rows))
	}
	if r := res.Rows[0]; r[0] != "worker-000" || r[1] != "alive" || r[2] != int64(12) {
		t.Errorf("row 0 = %v", r)
	}
	if r := res.Rows[1]; r[1] != "dead" || r[3] != int64(5) || r[4] != "never" || r[5] != "offline" {
		t.Errorf("row 1 = %v", r)
	}

	rep, err := cz.Query("SHOW REPAIRS")
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Rows[0]; r[0] != int64(7) || r[1] != int64(3) || r[2] != int64(0) || r[5] != int64(4096) {
		t.Errorf("SHOW REPAIRS = %v", r)
	}
}

// TestShowWorkersWithoutMembership: a czar with no availability subsystem
// says so rather than answering an empty table; so does one without a
// result cache asked for SHOW CACHE.
func TestShowWorkersWithoutMembership(t *testing.T) {
	cz := stalledCzar(t)
	for _, sql := range []string{"SHOW WORKERS", "SHOW REPAIRS"} {
		if _, err := cz.Query(sql); err == nil || !strings.Contains(err.Error(), "availability") {
			t.Errorf("%s without membership: %v", sql, err)
		}
	}
	if _, err := cz.Query("SHOW CACHE"); err == nil || !strings.Contains(err.Error(), "cache") {
		t.Errorf("SHOW CACHE without a cache: %v", err)
	}
}

// TestShowMetricsAndProfile: SHOW METRICS is the registry's exposition a
// line per row, SHOW PROFILE lists the retained traces and renders one by
// id, and the statements refuse what they cannot answer.
func TestShowMetricsAndProfile(t *testing.T) {
	cz, _, _ := miniCluster(t)
	cz.SetTelemetry(Telemetry{Metrics: telemetry.NewRegistry(), Trace: true, Ring: telemetry.NewTraceRing(8)})
	res, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}

	met, err := cz.Query("SHOW METRICS")
	if err != nil {
		t.Fatal(err)
	}
	if len(met.Cols) != 1 || met.Cols[0] != "Metric" || !slices.ContainsFunc(met.Rows, func(r sqlengine.Row) bool {
		return r[0] == "qserv_czar_queries_total 1"
	}) {
		t.Fatalf("SHOW METRICS = %v %v", met.Cols, met.Rows)
	}

	recent, err := cz.Query("SHOW PROFILE")
	if err != nil {
		t.Fatal(err)
	}
	if len(recent.Rows) != 1 || !strings.HasPrefix(recent.Rows[0][0].(string), fmt.Sprint(res.ID)+" ") {
		t.Fatalf("SHOW PROFILE rows = %v", recent.Rows)
	}
	prof, err := cz.Query(fmt.Sprintf("SHOW PROFILE %d", res.ID))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Cols[0] != "Profile" || !strings.Contains(fmt.Sprint(prof.Rows), "czar merge") {
		t.Fatalf("SHOW PROFILE %d = %v", res.ID, prof.Rows)
	}
	for _, bad := range []string{"SHOW PROFILE 99", "SHOW PROFILE abc", "SHOW PROFILES", "SHOW METRICS now"} {
		if _, err := cz.Query(bad); err == nil {
			t.Errorf("%q answered", bad)
		}
	}

	bare := stalledCzar(t)
	for _, sql := range []string{"SHOW METRICS", "SHOW PROFILE"} {
		if _, err := bare.Query(sql); err == nil {
			t.Errorf("%s without telemetry answered", sql)
		}
	}
}

// TestIsManagementReadsTheTable: the predicate the frontend asks is the
// czar's table — whole words, any case and spacing, one trailing ';' — and
// a SELECT costs it no allocation.
func TestIsManagementReadsTheTable(t *testing.T) {
	for _, st := range statements {
		if !IsManagement(st.words) || !IsManagement(" "+strings.ToLower(st.words)+" ;") {
			t.Errorf("%q not recognised", st.words)
		}
	}
	for sql, want := range map[string]bool{
		"SHOW PROFILE 12":                 true,
		"KILL 3":                          true,
		"SHOW FRONTEND":                   false, // the frontend's own
		"SHOW PROCESSLIST 3":              false,
		"SHOW PROFILES":                   false,
		"KILLS 3":                         false,
		"SHOW":                            false,
		"EXPLAIN ANALYZE SHOW WORKERS":    false,
		"SELECT COUNT(*) FROM Object":     false,
		"SELECT kill FROM Object":         false,
		"SHOWPROCESSLIST":                 false,
		"SHOW WORKERS":                    true,
		"SELECT * FROM Object WHERE x=1;": false,
	} {
		if got := IsManagement(sql); got != want {
			t.Errorf("IsManagement(%q) = %v, want %v", sql, got, want)
		}
	}
	sql := "SELECT objectId, ra_PS FROM Object WHERE objectId = 42"
	if n := testing.AllocsPerRun(100, func() { IsManagement(sql) }); n != 0 {
		t.Errorf("IsManagement allocates %.0f times for a SELECT", n)
	}
}
