package qserv

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/czar"
	"repro/internal/datagen"
	"repro/internal/frontend"
	"repro/internal/telemetry"
)

// TestAdminEndpointExposesClusterMetrics boots a small cluster with
// the admin HTTP listener on, runs a fan-out query plus a repeat (so
// cache series move), and scrapes /metrics: the exposition must parse
// and carry series from the telemetry spine's in-cluster subsystems.
func TestAdminEndpointExposesClusterMetrics(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 120, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 2, SourceDeclLimit: 54, MaxCopies: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.DataDir = t.TempDir()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	if cl.Metrics() == nil {
		t.Fatal("Metrics() = nil with telemetry enabled")
	}
	if cl.AdminAddr() == "" {
		t.Fatal("AdminAddr() empty with AdminAddr configured")
	}

	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err != nil {
		t.Fatalf("query: %v", err)
	}
	if _, err := cl.Query("SELECT COUNT(*) FROM Object"); err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	// The frontend is a subsystem of the cluster like the others: serving
	// one exports its admission series into the same registry.
	c, err := frontend.Dial(startFrontend(t, cl, DefaultFrontendConfig()).Addr(), "tester", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", cl.AdminAddr()))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	text := string(body)
	st, err := c.Query(context.Background(), "SHOW METRICS")
	if err != nil {
		t.Fatal(err)
	}
	var shown strings.Builder
	for row, ok := st.Next(); ok; row, ok = st.Next() {
		fmt.Fprintln(&shown, row...)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	for _, series := range []string{"qserv_frontend_active_sessions", "qserv_frontend_shed_total"} {
		if !strings.Contains(text, "\n"+series+" ") {
			t.Errorf("/metrics has no %s series", series)
		}
		if !strings.Contains(shown.String(), series) {
			t.Errorf("SHOW METRICS has no %s series", series)
		}
	}
	subsystems := []string{
		"qserv_czar_", "qserv_qcache_", "qserv_worker_",
		"qserv_member_", "qserv_chunkstore_", "qserv_xrd_",
	}
	var present int
	for _, prefix := range subsystems {
		if strings.Contains(text, "\n"+prefix) || strings.HasPrefix(text, prefix) {
			present++
		} else {
			t.Logf("subsystem %s absent from exposition", prefix)
		}
	}
	if present < 5 {
		t.Fatalf("exposition spans %d subsystems, want >= 5", present)
	}
	if !strings.Contains(text, "\nqserv_worker_gang_joins_total{") {
		t.Error("/metrics has no qserv_worker_gang_joins_total series")
	}
	// The fan-out actually moved the hot-path counters.
	if !strings.Contains(text, "qserv_czar_queries_total 2") {
		t.Errorf("czar query counter did not advance:\n%s", grepLines(text, "qserv_czar_queries_total"))
	}

	// pprof rides the same listener.
	pp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", cl.AdminAddr()))
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", pp.StatusCode)
	}
}

// TestDisableTelemetry pins the off switch: no registry, no admin
// listener, queries still answer.
func TestDisableTelemetry(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 60, MeanSourcesPerObject: 2},
		datagen.DuplicateConfig{DeclBands: 1, SourceDeclLimit: 54, MaxCopies: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(2)
	cfg.DisableTelemetry = true
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	if cl.Metrics() != nil {
		t.Fatal("Metrics() non-nil with DisableTelemetry")
	}
	if cl.AdminAddr() != "" {
		t.Fatal("AdminAddr() non-empty without AdminAddr configured")
	}
	res, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query with telemetry off: %v, %v", res, err)
	}
	if res.ResultBytes != res.BytesMerged {
		t.Fatalf("ResultBytes %d != BytesMerged %d with tracing off", res.ResultBytes, res.BytesMerged)
	}
}

// grepLines returns the exposition lines containing substr, for
// failure messages.
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestResultAccountingNumbers pins every count the result path reports, on
// a fixed catalog, for one statement of each way the czar folds results —
// pass-through, a merge statement over appended rows, the top-K fold, the
// aggregate fold, a dive, a multi-statement near-neighbour job. The rows
// travel encoded, so nothing here counts the boxed rows it used to count;
// the numbers are the ones the boxed path reported (captured at the commit
// before it went).
func TestResultAccountingNumbers(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 11, ObjectsPerPatch: 150, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 12},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(3)
	cfg.ResultCacheBytes = 0 // every run dispatches
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	c, err := frontend.Dial(startFrontend(t, cl, DefaultFrontendConfig()).Addr(), "tester", "LSST")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type counts struct {
		Rows        int   // of the answer: len(Rows), the trace root's rows, the D frame's count
		RowsMerged  int64 // Progress.RowsMerged, the merge fold spans' rows summed
		Chunks      int   // ChunksDispatched, DoneStats.Chunks
		BytesMerged int64 // QueryResult.BytesMerged, DoneStats.BytesMerged, the jobs' ResultLen summed
		JobRowsOut  int64 // the jobs' ExecStats.RowsOut summed
	}
	for _, tc := range []struct {
		sql  string
		want counts
	}{
		{"SELECT objectId, ra_PS, decl_PS FROM Object WHERE uFlux_PS > 2e-31", counts{1800, 1800, 18, 51337, 1800}},
		{"SELECT objectId, ra_PS FROM Object WHERE decl_PS < 2 ORDER BY ra_PS, objectId", counts{1080, 1080, 18, 21294, 1080}},
		{"SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 7", counts{7, 126, 18, 3168, 126}},
		{"SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY chunkId", counts{18, 18, 18, 1854, 18}},
		{"SELECT * FROM Object WHERE objectId = 42", counts{1, 1, 1, 273, 1}},
		{"SELECT o1.objectId, o2.objectId FROM Object o1, Object o2 WHERE qserv_areaspec_box(0, 0, 6, 6) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1", counts{57, 57, 1, 1129, 57}},
	} {
		seen := map[string]int{}
		for _, w := range cl.Workers {
			seen[w.Name()] = len(w.Reports())
		}
		q, err := cl.Czar.Submit(context.Background(), tc.sql, czar.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		got := counts{Rows: len(res.Rows), RowsMerged: q.Progress().RowsMerged,
			Chunks: res.ChunksDispatched, BytesMerged: res.BytesMerged}
		var jobBytes int64
		for _, w := range cl.Workers {
			for _, r := range w.Reports()[seen[w.Name()]:] {
				jobBytes += int64(r.ResultLen)
				got.JobRowsOut += r.Stats.RowsOut
			}
		}
		if got != tc.want {
			t.Errorf("%s:\n  got %+v\n want %+v", tc.sql, got, tc.want)
		}
		if jobBytes != got.BytesMerged || res.ResultBytes < res.BytesMerged {
			t.Errorf("%s: jobs report %d result bytes, the czar merged %d of %d fetched", tc.sql, jobBytes, res.BytesMerged, res.ResultBytes)
		}
		var folded int64
		for _, chunk := range res.Trace.Children {
			for _, s := range chunk.Children {
				if s.Name == "merge fold" {
					folded += spanAttr(t, s, "rows")
				}
			}
		}
		if folded != got.RowsMerged || spanAttr(t, res.Trace, "rows") != int64(got.Rows) {
			t.Errorf("%s: merge fold spans count %d rows (Progress: %d), the trace root %d (answer: %d)",
				tc.sql, folded, got.RowsMerged, spanAttr(t, res.Trace, "rows"), got.Rows)
		}

		st, err := c.Query(context.Background(), tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		frames := 0
		for _, ok := st.Next(); ok; _, ok = st.Next() {
			frames++
		}
		if st.Err() != nil {
			t.Fatalf("%s: %v", tc.sql, st.Err())
		}
		if done := st.Stats(); frames != got.Rows || st.RowCount() != int64(got.Rows) ||
			done.Chunks != int64(got.Chunks) || done.BytesMerged != got.BytesMerged || done.ElapsedNS <= 0 {
			t.Errorf("%s: %d row frames, D frame %d rows %+v; want %+v", tc.sql, frames, st.RowCount(), done, got)
		}
	}
}

// spanAttr reads an integer attribute of a span.
func spanAttr(t *testing.T, s *telemetry.Span, key string) int64 {
	t.Helper()
	for _, a := range s.Attrs {
		if a.Key == key {
			var n int64
			if _, err := fmt.Sscan(a.Value, &n); err != nil {
				t.Fatalf("span %s: %s=%q", s.Name, key, a.Value)
			}
			return n
		}
	}
	t.Fatalf("span %s has no %s attribute", s.Name, key)
	return 0
}
