package czar

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/qcache"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
)

// logger emits the czar's structured events (slow queries).
var logger = telemetry.NewLogger("czar")

// Telemetry configures the czar's observability: the metrics registry
// it exports into, per-query span tracing with a bounded retention
// ring (SHOW PROFILE), and the slow-query log. The zero value disables
// everything — every handle below is nil-safe.
type Telemetry struct {
	// Metrics is the registry czar series are registered into.
	Metrics *telemetry.Registry
	// Trace builds a span tree for every query and retains it in Ring.
	// EXPLAIN ANALYZE forces tracing for its own query regardless.
	Trace bool
	// Ring retains finished query traces for SHOW PROFILE; nil keeps
	// traces only for the duration of their query.
	Ring *telemetry.TraceRing
	// SlowQueryThreshold emits one structured warn line (with the span
	// summary) for every query at least this slow; 0 disables.
	SlowQueryThreshold time.Duration
}

// czarMetrics are the czar's owned hot-path series.
type czarMetrics struct {
	queries   *telemetry.Counter
	errors    *telemetry.Counter
	cacheHits *telemetry.Counter
	latencyNS *telemetry.Histogram
	mergeNS   *telemetry.Histogram
	chunks    *telemetry.Counter
	retries   *telemetry.Counter
}

// SetTelemetry installs the czar's observability configuration. Call
// at assembly time, before the czar serves queries.
func (c *Czar) SetTelemetry(t Telemetry) {
	c.tel = t
	reg := t.Metrics
	if reg == nil {
		return
	}
	c.metrics = czarMetrics{
		queries:   reg.Counter("qserv_czar_queries_total", "user queries submitted"),
		errors:    reg.Counter("qserv_czar_query_errors_total", "user queries that failed or were killed"),
		cacheHits: reg.Counter("qserv_czar_cache_hit_queries_total", "queries answered from the result cache"),
		latencyNS: reg.Histogram("qserv_czar_query_latency_ns", "end-to-end user query latency"),
		mergeNS:   reg.Histogram("qserv_czar_merge_ns", "final czar-merge statement time"),
		chunks:    reg.Counter("qserv_czar_chunks_dispatched_total", "chunk queries dispatched"),
		retries:   reg.Counter("qserv_czar_retries_total", "chunk replica failovers"),
	}
	reg.GaugeFunc("qserv_czar_inflight_queries", "registered in-flight user queries", func() int64 {
		c.qmu.Lock()
		defer c.qmu.Unlock()
		return int64(len(c.queries))
	})
	// The result cache exports through sampling funcs over its own
	// counters; the nil guard re-checks per scrape because the cache is
	// installed by a separate assembly call.
	cacheVal := func(pick func(st qcache.Stats) int64) func() int64 {
		return func() int64 {
			if c.cache == nil {
				return 0
			}
			return pick(c.cache.Stats())
		}
	}
	reg.CounterFunc("qserv_qcache_hits_total", "result cache hits", cacheVal(func(s qcache.Stats) int64 { return s.Hits }))
	reg.CounterFunc("qserv_qcache_misses_total", "result cache misses", cacheVal(func(s qcache.Stats) int64 { return s.Misses }))
	reg.CounterFunc("qserv_qcache_evictions_total", "result cache evictions", cacheVal(func(s qcache.Stats) int64 { return s.Evictions }))
	reg.CounterFunc("qserv_qcache_invalidations_total", "result cache invalidations", cacheVal(func(s qcache.Stats) int64 { return s.Invalidations }))
	reg.GaugeFunc("qserv_qcache_entries", "result cache entries", cacheVal(func(s qcache.Stats) int64 { return int64(s.Entries) }))
	reg.GaugeFunc("qserv_qcache_bytes", "result cache resident bytes: what the encoded row batches of the czar's entries hold, an estimate only for entries given as boxed rows", cacheVal(func(s qcache.Stats) int64 { return s.Bytes }))
}

// renderProfile renders one retained trace: a header line, then the
// span tree.
func renderProfile(e *telemetry.TraceEntry) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query %d (%s)\n", e.ID, e.QID)
	fmt.Fprintf(&sb, "statement: %s\n", e.SQL)
	if e.Err != "" {
		fmt.Fprintf(&sb, "error: %s\n", e.Err)
	}
	sb.WriteString(e.Root.Render())
	return sb.String()
}

// stripExplainAnalyze detects an EXPLAIN ANALYZE prefix
// (case-insensitive) and returns the underlying statement. EXPLAIN
// ANALYZE runs the statement for real — with tracing forced on — and
// returns the rendered span tree instead of the rows.
func stripExplainAnalyze(sql string) (string, bool) {
	rest := strings.TrimSpace(sql)
	for _, kw := range []string{"EXPLAIN", "ANALYZE"} {
		if len(rest) < len(kw) || !strings.EqualFold(rest[:len(kw)], kw) {
			return sql, false
		}
		rest = rest[len(kw):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\n') {
			return sql, false
		}
		rest = strings.TrimSpace(rest)
	}
	if rest == "" {
		return sql, false
	}
	return rest, true
}

// explainColumns is the single-column header of an EXPLAIN ANALYZE
// result: one rendered trace line per row.
var explainColumns = []string{"EXPLAIN ANALYZE"}

// explainResult wraps a finished query's accounting into the EXPLAIN
// ANALYZE answer: the rendered span tree as rows, the real result — boxed
// where it was made, since an EXPLAIN streams none of it — preserved in
// Underlying for oracle checks.
func explainResult(q *Query, res *QueryResult) *QueryResult {
	lines := strings.Split(strings.TrimSuffix(q.root.Render(), "\n"), "\n")
	rows := make([]sqlengine.Row, 0, len(lines))
	for _, ln := range lines {
		rows = append(rows, sqlengine.Row{ln})
	}
	out := *res
	out.Underlying = res.Result
	out.Result = &sqlengine.Result{Cols: explainColumns, Rows: rows}
	out.Explain = true
	return &out
}

// traceFinish settles a finished query's trace: close the root span,
// annotate it with the terminal accounting, retain it in the ring, and
// emit the slow-query line when the threshold is crossed. It runs for
// every traced query, success or failure.
func (c *Czar) traceFinish(q *Query, res *QueryResult, err error) {
	root := q.root
	if root == nil {
		return
	}
	root.Finish()
	if res != nil {
		root.SetAttr("chunks", res.ChunksDispatched)
		if res.ChunksPruned > 0 {
			root.SetAttr("pruned", res.ChunksPruned)
		}
		if res.CacheHit {
			root.SetAttr("cache", "hit")
		}
		if res.Retries > 0 {
			root.SetAttr("retries", res.Retries)
		}
		root.SetAttr("rows", res.Stats.RowsOut)
	}
	errText := ""
	if err != nil {
		errText = err.Error()
		root.SetAttr("err", errText)
	}
	c.tel.Ring.Put(&telemetry.TraceEntry{
		ID: q.id, QID: c.qidOf(q), SQL: q.sql, Root: root, Err: errText, Explain: q.explain,
	})
	if t := c.tel.SlowQueryThreshold; t > 0 && root.Duration() >= t {
		kv := []any{"id", q.id, "elapsed", root.Duration().Round(time.Microsecond),
			"threshold", t, "sql", q.sql}
		if res != nil {
			kv = append(kv, "chunks", res.ChunksDispatched, "rows", res.Stats.RowsOut,
				"bytes", res.ResultBytes, "cache_hit", res.CacheHit)
		}
		if errText != "" {
			kv = append(kv, "err", errText)
		}
		logger.Warn("query.slow", kv...)
	}
}
