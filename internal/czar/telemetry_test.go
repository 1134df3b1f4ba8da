package czar

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/qcache"
	"repro/internal/telemetry"
)

// TestExplainAnalyzeOracleEquivalence runs a statement plain and under
// EXPLAIN ANALYZE and requires the profiled run to have computed the
// same answer (preserved in Underlying), while its visible result is
// the span tree with both czar- and worker-side spans stitched in.
func TestExplainAnalyzeOracleEquivalence(t *testing.T) {
	cz, workers, _ := miniCluster(t)
	for _, w := range workers {
		w.SetTrace(true)
	}
	cz.SetTelemetry(Telemetry{
		Metrics: telemetry.NewRegistry(),
		Trace:   true,
		Ring:    telemetry.NewTraceRing(8),
	})

	plain, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("plain query: %v", err)
	}

	res, err := cz.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	if !res.Explain {
		t.Fatalf("Explain flag not set")
	}
	if len(res.Cols) != 1 || res.Cols[0] != "EXPLAIN ANALYZE" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Underlying == nil {
		t.Fatalf("Underlying result missing")
	}
	if len(res.Underlying.Rows) != 1 || res.Underlying.Rows[0][0] != plain.Rows[0][0] {
		t.Fatalf("Underlying rows = %v, plain rows = %v", res.Underlying.Rows, plain.Rows)
	}

	var tree strings.Builder
	for _, row := range res.Rows {
		tree.WriteString(row[0].(string))
		tree.WriteByte('\n')
	}
	for _, span := range []string{"query", "plan", "czar merge", "worker exec", "fabric txn"} {
		if !strings.Contains(tree.String(), span) {
			t.Errorf("span tree missing %q:\n%s", span, tree.String())
		}
	}

	if strings.Contains(tree.String(), "merge combine") {
		t.Errorf("two one-row partials tripped a combine at the shipped threshold:\n%s", tree.String())
	}

	// A session that combines says so: one span under the chunk whose
	// arrival tripped it, with the rows it read and the rows it left, and
	// the same answer.
	cz.compactRows = 2
	combined, err := cz.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE, combining: %v", err)
	}
	if got := combined.Underlying.Rows; len(got) != 1 || got[0][0] != plain.Rows[0][0] {
		t.Errorf("combining: Underlying rows = %v, plain rows = %v", got, plain.Rows)
	}
	var combines []*telemetry.Span
	combined.Trace.Walk(func(s *telemetry.Span) {
		if strings.HasPrefix(s.Name, "chunk ") {
			s.Walk(func(c *telemetry.Span) {
				if c.Name == "merge combine" {
					combines = append(combines, c)
				}
			})
		}
	})
	if len(combines) != 1 {
		t.Fatalf("%d merge combine spans under the chunk spans:\n%s", len(combines), combined.Trace.Render())
	}
	if got := fmt.Sprint(combines[0].Attrs); got != "[{rows_in 2} {rows_out 1}]" {
		t.Errorf("merge combine of two one-row partials: %s", got)
	}

	// The trace is retained for SHOW PROFILE under the query's id.
	prof, err := cz.Query(fmt.Sprintf("SHOW PROFILE %d", res.ID))
	if err != nil || !strings.Contains(fmt.Sprint(prof.Rows), "EXPLAIN ANALYZE") {
		t.Fatalf("SHOW PROFILE %d = %v, %v", res.ID, prof, err)
	}
	if recent, err := cz.Query("SHOW PROFILE"); err != nil || len(recent.Rows) < 2 {
		t.Fatalf("SHOW PROFILE = %v, %v; want both queries retained", recent, err)
	}
}

// TestExplainAnalyzePartialTrace is the dropped-worker-report path:
// with span shipping disabled worker-side, EXPLAIN ANALYZE must still
// answer correctly and render the czar-side tree — just without
// worker exec spans (the partial-trace contract: missing reports
// degrade the tree, never the query).
func TestExplainAnalyzePartialTrace(t *testing.T) {
	cz, workers, _ := miniCluster(t)
	for _, w := range workers {
		w.SetTrace(false)
	}
	cz.SetTelemetry(Telemetry{Trace: true, Ring: telemetry.NewTraceRing(8)})

	res, err := cz.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	var tree strings.Builder
	for _, row := range res.Rows {
		tree.WriteString(row[0].(string))
		tree.WriteByte('\n')
	}
	if !strings.Contains(tree.String(), "czar merge") {
		t.Errorf("tree missing czar merge span:\n%s", tree.String())
	}
	if strings.Contains(tree.String(), "worker exec") {
		t.Errorf("tree has worker exec spans with shipping off:\n%s", tree.String())
	}
	if res.Underlying == nil || len(res.Underlying.Rows) != 1 {
		t.Fatalf("Underlying = %+v", res.Underlying)
	}
}

// TestExplainAnalyzeCachedRepeat pins the cache interaction: the
// result cache stores the statement's real rows (not the span tree),
// so a plain repeat of an EXPLAIN ANALYZE'd statement is a correct
// cache hit.
func TestExplainAnalyzeCachedRepeat(t *testing.T) {
	cz, _, _ := miniCluster(t)
	cz.SetResultCache(qcache.New(1 << 20))
	cz.SetTelemetry(Telemetry{Trace: true, Ring: telemetry.NewTraceRing(8)})

	res, err := cz.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	want := res.Underlying.Rows[0][0]

	repeat, err := cz.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !repeat.CacheHit {
		t.Fatalf("repeat was not a cache hit")
	}
	if len(repeat.Rows) != 1 || repeat.Rows[0][0] != want {
		t.Fatalf("cached rows = %v, want [[%v]] (the real rows, not the tree)", repeat.Rows, want)
	}
}

// TestSlowQueryLogTrigger sets the threshold below any real query's
// latency and requires the structured slow-query line.
func TestSlowQueryLogTrigger(t *testing.T) {
	var buf bytes.Buffer
	prev := telemetry.SetLogOutput(&buf)
	defer telemetry.SetLogOutput(prev)

	cz, _, _ := miniCluster(t)
	cz.SetTelemetry(Telemetry{
		Trace:              true,
		Ring:               telemetry.NewTraceRing(8),
		SlowQueryThreshold: time.Nanosecond,
	})
	if _, err := cz.Query("SELECT COUNT(*) FROM Object"); err != nil {
		t.Fatalf("query: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "query.slow") || !strings.Contains(out, "comp=czar") {
		t.Fatalf("slow-query log missing, got %q", out)
	}
	if !strings.Contains(out, "sql=") || !strings.Contains(out, "elapsed=") {
		t.Fatalf("slow-query line lacks accounting: %q", out)
	}
}
