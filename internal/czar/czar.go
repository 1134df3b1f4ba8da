// Package czar implements the Qserv master frontend (the "qserv-master"
// of Figure 1): it parses user SQL, plans chunk queries via the core
// rewriter, dispatches them through the xrd fabric's two file
// transactions, collects the workers' result streams into a session
// result table, and runs the merge/aggregation query over it to produce
// the final answer (paper sections 5.3-5.5).
//
// Result collection is the scalability bottleneck the paper identifies
// at the master (section 7.6); this czar therefore collects with a
// streaming, parallel pipeline instead of the paper's serialized
// load-then-copy: dispatch goroutines check result streams concurrently
// (package dump, no engine involvement) and hand their rows, still
// encoded, to the query's mergeSession, gated czar-wide by
// MergeParallelism so collection overlaps with in-flight chunk fetches and
// concurrent user queries never serialize on a shared lock. Rows are
// checked, not opened: a pass-through plan's travel on — to the session's
// row stream, the frontend's row frames, the result cache — as the bytes
// the worker wrote. The czar's engine is the only thing that combines
// rows: it runs the plan's merge statement over the session at the end,
// and for top-K and aggregate plans the plan's combine statement over it
// whenever it has grown, so the session stays about as small as the answer.
package czar

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/member"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/qcache"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
	"repro/internal/xrd"
)

// Config controls a czar.
type Config struct {
	// Name identifies this master (multiple czars can share a cluster;
	// see the paper's section 7.6 discussion).
	Name string
	// MergeParallelism bounds concurrent result-stream checks (and the
	// combines they trip) czar-wide, across all in-flight user queries.
	// 1 reproduces the paper's serialized result collection (section
	// 7.6); larger values let collection overlap chunk fetches and let
	// concurrent queries merge independently.
	MergeParallelism int
	// TopKPushdown ships ORDER BY + LIMIT to workers for pass-through
	// queries, so each chunk returns at most K rows and the czar's session
	// combines them down to the best K instead of holding every match.
	TopKPushdown bool
}

// DefaultConfig returns sensible defaults.
func DefaultConfig(name string) Config {
	return Config{
		Name:             name,
		MergeParallelism: 8,
		TopKPushdown:     true,
	}
}

const (
	// maxParallelDispatch bounds in-flight chunk queries per user query.
	maxParallelDispatch = 64
	// maxRetriesPerChunk bounds replica failover attempts per chunk.
	maxRetriesPerChunk = 3
)

// Czar is one master frontend.
type Czar struct {
	cfg       Config
	registry  *meta.Registry
	planner   *core.Planner
	placement *meta.Placement
	client    *xrd.Client

	// engine holds the metadata database, replicated small tables, and
	// per-query result tables.
	engine *sqlengine.Engine
	// mergeSem gates concurrent absorb work at MergeParallelism.
	mergeSem chan struct{}
	// compactRows is every session's combine threshold (see mergeSession);
	// a field so that a test can lower it.
	compactRows int

	// membership, when installed, is the availability subsystem's view
	// of the cluster: dispatch consults Dead to order replicas around
	// known-dead workers, and SHOW WORKERS reads Status.
	// Without one (nil), dispatch behaves exactly as before.
	membership Membership

	// cache, when installed, answers repeat queries without dispatching
	// a single chunk job (see internal/qcache). nil disables caching.
	cache *qcache.Cache

	// tel configures observability (SetTelemetry): metrics registry,
	// per-query tracing + retention ring, slow-query log. metrics holds
	// the czar's owned series; all handles are nil-safe, so a czar
	// without telemetry pays one branch per instrumentation point.
	tel     Telemetry
	metrics czarMetrics

	// The in-flight query registry (see session.go).
	qmu     sync.Mutex
	queries map[int64]*Query
	qseq    int64
	qclosed bool
	qwg     sync.WaitGroup
}

// New builds a czar over a cluster.
func New(cfg Config, registry *meta.Registry, index *meta.ObjectIndex,
	placement *meta.Placement, red *xrd.Redirector) *Czar {
	if cfg.MergeParallelism <= 0 {
		cfg.MergeParallelism = 8
	}
	e := sqlengine.New(registry.DB)
	planner := core.NewPlanner(registry, index)
	planner.TopK = cfg.TopKPushdown
	return &Czar{
		cfg:         cfg,
		registry:    registry,
		planner:     planner,
		placement:   placement,
		client:      xrd.NewClient(red),
		engine:      e,
		mergeSem:    make(chan struct{}, cfg.MergeParallelism),
		compactRows: compactRows,
		queries:     map[int64]*Query{},
	}
}

// Engine exposes the czar-local engine (for loading replicated tables).
func (c *Czar) Engine() *sqlengine.Engine { return c.engine }

// Membership is the czar's window into the availability subsystem
// (*member.Manager implements it): Dead drives health-aware replica
// ordering in dispatch, Status feeds SHOW WORKERS.
type Membership interface {
	Dead(worker string) bool
	Status() member.Status
}

// SetMembership installs the availability subsystem's view. Call it at
// assembly time, before the czar serves queries; a nil membership (the
// default) keeps the pre-availability dispatch behavior.
func (c *Czar) SetMembership(m Membership) { c.membership = m }

// ClusterStatus reports cluster availability when a membership is
// installed; ok is false otherwise.
func (c *Czar) ClusterStatus() (member.Status, bool) {
	if c.membership == nil {
		return member.Status{}, false
	}
	return c.membership.Status(), true
}

// SetRouter installs a chunk-routing tier (internal/planopt) on the
// czar's planner, replacing the built-in index-dive/spatial/fan-out
// selection. Call it at assembly time, before the czar serves queries.
func (c *Czar) SetRouter(r core.Router) { c.planner.Router = r }

// SetResultCache installs the czar-level result cache. Call it at
// assembly time, before the czar serves queries; nil (the default)
// disables caching.
func (c *Czar) SetResultCache(cache *qcache.Cache) { c.cache = cache }

// CacheStats snapshots the result cache's counters; ok is false when no
// cache is installed.
func (c *Czar) CacheStats() (qcache.Stats, bool) {
	if c.cache == nil {
		return qcache.Stats{}, false
	}
	return c.cache.Stats(), true
}

// QueryResult is a final answer plus execution accounting.
type QueryResult struct {
	*sqlengine.Result
	// ID is the czar-assigned query id (the KILL handle).
	ID int64
	// Class is the scheduling class the planner assigned; it rides
	// every chunk-query payload so workers lane the job correctly.
	Class core.QueryClass
	// ChunksDispatched counts chunk queries sent; 0 for a cache hit.
	ChunksDispatched int
	// ChunksPruned counts placed chunks the routing tier eliminated
	// (index dive, spatial cover, or statistics pruning).
	ChunksPruned int
	// CacheHit is true when the answer came from the czar result cache
	// and no worker was touched.
	CacheHit bool
	// ResultBytes counts bytes collected from workers over the fabric
	// (trace trailers included — it is the wire transfer truth).
	ResultBytes int64
	// BytesMerged counts dump-stream bytes folded into the merge
	// pipeline (trace trailers stripped); 0 for a cache hit.
	BytesMerged int64
	// Elapsed is the wall-clock time of the whole query.
	Elapsed time.Duration
	// Retries counts replica failovers that occurred.
	Retries int
	// Trace is the query's stitched span tree when tracing was on (the
	// czar's Telemetry.Trace, or an EXPLAIN ANALYZE run); nil otherwise.
	Trace *telemetry.Span
	// Explain is true when the query ran as EXPLAIN ANALYZE: Rows hold
	// the rendered trace, and Underlying preserves the statement's real
	// result (the oracle-equivalence seam).
	Explain    bool
	Underlying *sqlengine.Result
}

// Query runs one user SQL statement to completion: the synchronous
// convenience form of Submit + Wait.
func (c *Czar) Query(sql string) (*QueryResult, error) {
	q, err := c.Submit(context.Background(), sql, Options{})
	if err != nil {
		return nil, err
	}
	return q.Wait(context.Background())
}

// execute dispatches the plan's chunk queries, collects the results in a
// merge session, and has it run the final merge statement. It runs inside
// q's session goroutine; q carries the context that kills it and the
// progress counters observers read.
func (c *Czar) execute(q *Query, plan *core.Plan, fill *cacheFill) (*QueryResult, error) {
	ctx := q.ctx
	qr := &QueryResult{Class: plan.Class, ChunksDispatched: len(plan.Chunks),
		ChunksPruned: plan.Route.Pruned}

	// Each dispatch goroutine fetches its chunk's result stream and then
	// absorbs it right there, so collection overlaps with the fetches
	// still in flight. The merge gate (MergeParallelism) is czar-wide: it
	// bounds that CPU across all concurrent user queries without ever
	// serializing them on shared state — each query has its own session.
	// A pass-through plan's rows go on to the stream; an EXPLAIN ANALYZE
	// shows the trace instead, so its session holds them like any plan's.
	pass := plan.Streamable() && !q.explain
	session := newMergeSession(plan, c.engine, c.compactRows, pass)
	c.metrics.chunks.Add(int64(len(plan.Chunks)))
	type chunkOutcome struct {
		chunk   partition.ChunkID
		bytes   int64 // dump-stream bytes folded (trailer stripped)
		raw     int64 // wire bytes read from the worker
		retries int
		err     error
	}
	results := make(chan chunkOutcome, len(plan.Chunks))
	sem := make(chan struct{}, maxParallelDispatch)
	for _, chunk := range plan.Chunks {
		go func(chunk partition.ChunkID) {
			// The outcome is sent only after the chunk's span and window
			// slot are released: once every outcome is drained the trace
			// is complete and may be rendered.
			results <- func() chunkOutcome {
				// The chunk span covers the whole per-chunk pipeline: the
				// dispatch-window wait, the fabric transactions (with the
				// worker's shipped subtree grafted beneath), and the merge
				// fold. A nil root makes every span call a no-op.
				cs := q.root.Child(fmt.Sprintf("chunk %d", chunk))
				defer cs.Finish()
				// A canceled query's queued dispatches never start: they
				// drain immediately instead of burning the dispatch window.
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return chunkOutcome{chunk: chunk, err: context.Cause(ctx)}
				}
				defer func() { <-sem }()
				q.dispatched.Add(1)
				data, raw, retries, err := c.runChunk(ctx, q, plan, chunk, cs)
				if err == nil {
					c.mergeSem <- struct{}{}
					ms := cs.Child("merge fold")
					batch, ferr := session.absorb(data, ms)
					ms.Finish()
					<-c.mergeSem
					if err = ferr; err == nil {
						ms.SetAttr("rows", batch.Len())
						q.rowsMerged.Add(int64(batch.Len()))
						if pass { // past the merge gate: a stalled reader holds only this slot
							fill.add(batch)
							err = q.stream.pushWait(ctx, batch)
						}
					}
				}
				return chunkOutcome{chunk: chunk, bytes: int64(len(data)), raw: int64(raw), retries: retries, err: err}
			}()
		}(chunk)
	}
	// Drain every outcome even after a failure — the error path cancels
	// the query context, so stragglers return promptly and no goroutine
	// outlives the query.
	var firstErr error
	for range plan.Chunks {
		co := <-results
		if co.err != nil {
			if firstErr == nil {
				stage := fmt.Sprintf("chunk %d", co.chunk)
				if errors.As(co.err, new(mergeError)) {
					stage = "merge"
				}
				firstErr = fmt.Errorf("czar %s: %s: %w", c.cfg.Name, stage, co.err)
				q.cancel(firstErr)
			}
			continue
		}
		qr.Retries += co.retries
		qr.ResultBytes += co.raw
		qr.BytesMerged += co.bytes
		q.completed.Add(1)
		q.bytesRead.Add(co.raw)
	}
	c.metrics.retries.Add(int64(qr.Retries))
	if firstErr != nil {
		return nil, firstErr
	}

	mg := q.root.Child("czar merge")
	mergeStart := time.Now()
	res, out, err := session.finish()
	c.metrics.mergeNS.Observe(time.Since(mergeStart).Nanoseconds())
	mg.Finish()
	if err != nil {
		return nil, fmt.Errorf("czar %s: merge: %w", c.cfg.Name, err)
	}
	mg.SetAttr("rows", res.Stats.RowsOut)
	qr.Result = res
	fill.add(out)
	if q.explain {
		res.Rows = out.Box(nil)
	} else {
		q.stream.push(out)
	}
	return qr, nil
}

// cacheLookup consults the czar result cache at submit time: a hit
// returns a completed QueryResult (zero dispatch), its rows in q's stream
// (boxed instead, for EXPLAIN ANALYZE), and the session never plans any
// chunk work: its progress reads 0/0 chunks, which is the truth. nil means
// no cache or no valid entry.
func (c *Czar) cacheLookup(q *Query, plan *core.Plan) *QueryResult {
	if c.cache == nil {
		return nil
	}
	epoch, gens := c.cacheStamp(plan)
	e, ok := c.cache.Get(plan.CacheKey(), epoch, gens)
	if !ok {
		return nil
	}
	c.metrics.cacheHits.Inc()
	res := &sqlengine.Result{Cols: e.Cols, Types: e.Types}
	for _, b := range e.Batches {
		res.Stats.RowsOut += int64(b.Len())
		if q.explain {
			res.Rows = b.Box(res.Rows)
		}
	}
	if !q.explain {
		q.stream.push(e.Batches...)
	}
	return &QueryResult{Result: res, Class: plan.Class, CacheHit: true, ChunksPruned: plan.Route.Pruned}
}

// executeWithCache runs execute and fills the result cache on success.
// The validity stamp — placement epoch plus the ingest generation of
// every referenced table — is captured before execution and re-verified
// before the fill, so a repair, membership change, or ingest that lands
// mid-query can never install rows computed against the old cluster
// state under the new state's stamp. (A kill that raced completion also
// never fills: a canceled query's rows may be partial.)
func (c *Czar) executeWithCache(q *Query, plan *core.Plan) (*QueryResult, error) {
	if c.cache == nil {
		return c.execute(q, plan, nil)
	}
	epoch, gens := c.cacheStamp(plan)
	fill := new(cacheFill)
	qr, err := c.execute(q, plan, fill)
	if err == nil && q.ctx.Err() == nil && fill.bytes <= streamBytes {
		if e, g := c.cacheStamp(plan); e == epoch && g == gens {
			st := q.root.Child("cache store")
			c.cache.Put(plan.CacheKey(), epoch, gens,
				qcache.Result{Cols: qr.Cols, Types: qr.Types, Batches: fill.batches})
			st.Finish()
		}
	}
	return qr, err
}

// cacheFill is a result-cache entry in the making: the answer's batches,
// teed as they pass, and let go of past streamBytes — a result larger than
// the czar buffers for its own reader it does not keep for the next. A nil
// fill collects nothing.
type cacheFill struct {
	mu      sync.Mutex
	batches []rowcodec.Batch
	bytes   int64
}

func (f *cacheFill) add(b rowcodec.Batch) {
	if f == nil || b.Len() == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bytes += b.Size(); f.bytes > streamBytes {
		f.batches = nil
	} else {
		f.batches = append(f.batches, b)
	}
}

// cacheStamp captures the cluster state a plan's answer depends on: the
// placement epoch (bumped by every assign/replace/remove, i.e. repair
// and elastic membership) and the ingest generation of every table the
// statement references, joined in sorted order. Chunk-set changes are
// covered transitively — placed chunks only change via ingest or
// placement mutation, and both bump their half of the stamp.
func (c *Czar) cacheStamp(plan *core.Plan) (int64, string) {
	var sb strings.Builder
	for _, n := range planTables(plan) {
		fmt.Fprintf(&sb, "%s=%d;", n, c.registry.IngestGen(n))
	}
	return c.placement.Epoch(), sb.String()
}

// planTables names every table a plan reads, lower-cased, sorted, once.
func planTables(plan *core.Plan) []string {
	var names []string
	for _, pr := range plan.Analysis.PartRefs {
		names = append(names, strings.ToLower(pr.Info.Name))
	}
	for _, ref := range plan.Analysis.NonPartRefs {
		names = append(names, strings.ToLower(ref.Table))
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// cancelTxTimeout bounds the best-effort worker-side cancel
// transactions: the kill path exists to reclaim resources promptly, so
// it must never become the one unbounded transaction in the system (a
// blackholed worker would otherwise hang the dispatch goroutine — and
// with it Wait and Close — forever).
const cancelTxTimeout = 2 * time.Second

// runChunk performs the two file transactions for one chunk, failing
// over to replicas when a worker dies between accepting the query and
// serving the result. A canceled context aborts the transactions in
// flight and fires a best-effort cancel transaction at the worker that
// accepted the dispatch, so its queued or running chunk query is
// dequeued or aborted and the scan slot reclaimed. Dispatch, result
// read and cancel all carry the query's out-of-band identity
// (xrd.WithQID) so a read or a cancel can only reach the chunk query this
// query wrote.
// Worker-shipped trace trailers are stripped from the result bytes
// here — unconditionally, because a worker with tracing on must not
// leak trailer bytes into the merge regardless of this czar's own
// telemetry state — and grafted under cs when this query is traced.
// Returns the stripped data plus the raw wire byte count.
func (c *Czar) runChunk(ctx context.Context, q *Query, plan *core.Plan, chunk partition.ChunkID, cs *telemetry.Span) ([]byte, int, int, error) {
	payload := plan.QueryFor(chunk).Payload()
	qid := c.qidOf(q)
	queryPath := xrd.QueryPath(int(chunk))
	writePath := xrd.WithQID(queryPath, qid)
	hash := xrd.ResultHash(payload)
	resultPath := xrd.WithQID(xrd.ResultPathOf(hash), qid)
	cancelPath := xrd.WithQID(xrd.CancelPath(hash), qid)

	// Health-aware replica ordering: replicas the failure detector
	// knows are dead are excluded up front, so a dead worker costs the
	// query one map entry instead of a full dispatch timeout per chunk.
	// The skip is remembered separately from read-failure avoidance: if
	// it excludes *every* replica the detector may be wrong (a
	// recovering worker is probed back in asynchronously), and the
	// skipped replicas get one fallback chance before the chunk fails.
	avoid := map[string]bool{}
	var skippedDead []string
	if c.membership != nil {
		for _, name := range c.client.Replicas(queryPath) {
			if c.membership.Dead(name) {
				avoid[name] = true
				skippedDead = append(skippedDead, name)
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt < maxRetriesPerChunk; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, attempt, context.Cause(ctx)
		}
		tx := cs.Child("fabric txn")
		endpoint, err := c.client.WriteAvoiding(ctx, writePath, payload, avoid)
		if err != nil {
			tx.SetAttr("err", err)
			tx.Finish()
			if len(skippedDead) > 0 && errors.Is(err, xrd.ErrNoServer) && ctx.Err() == nil {
				for _, name := range skippedDead {
					delete(avoid, name)
				}
				// Restoring the skipped replicas is bookkeeping, not a
				// dispatch: it must not consume an attempt (else a
				// one-attempt budget would fail without ever
				// dispatching). skippedDead is nil now, so this branch
				// runs at most once.
				skippedDead = nil
				lastErr = err
				attempt--
				continue
			}
			if ctx.Err() != nil {
				// The kill aborted the write mid-transaction: the chunk
				// query may have reached a worker anyway (the abort can
				// land after the request bytes were delivered), and
				// which one accepted it is unknown. Broadcast the
				// cancel to every replica; the qid makes it a no-op
				// wherever this query's write never landed, so another
				// query's job of the same payload is never touched.
				cctx, done := context.WithTimeout(context.Background(), cancelTxTimeout)
				c.client.WriteEverywhere(cctx, queryPath, cancelPath, nil)
				done()
				return nil, 0, attempt, context.Cause(ctx)
			}
			return nil, 0, attempt, err
		}
		tx.SetAttr("worker", endpoint)
		data, err := c.client.ReadFrom(ctx, endpoint, resultPath)
		if err == nil {
			tx.Finish()
			raw := len(data)
			data, shipped := telemetry.ExtractTrailer(data)
			cs.Graft(shipped...)
			return data, raw, attempt, nil
		}
		tx.SetAttr("err", err)
		tx.Finish()
		if ctx.Err() != nil {
			// The query was killed while the worker held (or ran) the
			// chunk query; tell it to stop. The kill rides a fresh,
			// bounded context — the canceled one would refuse the
			// transaction.
			cctx, done := context.WithTimeout(context.Background(), cancelTxTimeout)
			_ = c.client.WriteTo(cctx, endpoint, cancelPath, nil)
			done()
			return nil, 0, attempt, context.Cause(ctx)
		}
		lastErr = err
		avoid[endpoint] = true
	}
	return nil, 0, maxRetriesPerChunk, fmt.Errorf(
		"czar %s: chunk %d failed after %d attempts: %w",
		c.cfg.Name, chunk, maxRetriesPerChunk, lastErr)
}

// qidOf renders a query's fabric-wide identity: czar name + query id.
func (c *Czar) qidOf(q *Query) string {
	return fmt.Sprintf("%s-%d", c.cfg.Name, q.id)
}
