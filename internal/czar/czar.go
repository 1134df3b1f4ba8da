// Package czar implements the Qserv master frontend (the "qserv-master"
// of Figure 1): it parses user SQL, plans chunk queries via the core
// rewriter, dispatches them through the xrd fabric's two file
// transactions — one write per worker listing the chunks it is sent, one
// result read per chunk — collects the workers' result streams into a
// session result table, and runs the merge/aggregation query over it to
// produce the final answer (paper sections 5.3-5.5).
//
// Result collection is the scalability bottleneck the paper identifies
// at the master (section 7.6); this czar therefore collects with a
// streaming, parallel pipeline instead of the paper's serialized
// load-then-copy: each dispatch's reader checks result streams as they
// come (package dump, no engine involvement) and hands their rows, still
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
	"strconv"
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

// maxRetriesPerChunk bounds the dispatches a chunk is part of.
const maxRetriesPerChunk = 3

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
//
// The chunks are grouped by the replica each is sent to, and each group is
// one dispatch write (core.Dispatch) read back a chunk at a time, in list
// order, by a goroutine of its own (runDispatch). A group that fails comes
// back here with its unread chunks, which go out again grouped by their
// next replica.
func (c *Czar) execute(q *Query, plan *core.Plan, fill *cacheFill) (*QueryResult, error) {
	qr := &QueryResult{Class: plan.Class, ChunksDispatched: len(plan.Chunks),
		ChunksPruned: plan.Route.Pruned}
	// A pass-through plan's rows go on to the stream; an EXPLAIN ANALYZE
	// shows the trace instead, so its session holds them like any plan's.
	pass := plan.Streamable() && !q.explain
	session := newMergeSession(plan, c.engine, c.compactRows, pass)
	c.metrics.chunks.Add(int64(len(plan.Chunks)))
	runs := make([]*chunkRun, len(plan.Chunks))
	for i, chunk := range plan.Chunks {
		cq := plan.QueryFor(chunk)
		r := &chunkRun{chunk: chunk, path: xrd.QueryPath(int(chunk)), subs: cq.SubChunks, stmts: cq.Statements, hash: xrd.ResultHash(cq.Payload())}
		if q.root != nil {
			// The chunk span covers the whole per-chunk pipeline: the fabric
			// transactions (with the worker's shipped subtree grafted
			// beneath) and the merge fold.
			r.span = q.root.Child(fmt.Sprintf("chunk %d", chunk))
		}
		c.skipDead(r)
		runs[i] = r
	}

	// Drain every outcome even after a failure — the error path cancels the
	// query context, so stragglers return promptly and no goroutine
	// outlives the query.
	outcomes := make(chan dispatchOutcome)
	inflight := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("czar %s: %w", c.cfg.Name, err)
			q.cancel(firstErr)
		}
	}
	send := func(runs []*chunkRun) {
		groups, err := c.group(runs)
		if err != nil {
			fail(err)
			return
		}
		for _, g := range groups {
			inflight++
			go func() { outcomes <- c.runDispatch(q, plan, session, g, fill) }()
		}
	}
	send(runs)
	for inflight > 0 {
		o := <-outcomes
		inflight--
		qr.ResultBytes += o.raw
		qr.BytesMerged += o.bytes
		switch {
		case o.err != nil:
			fail(o.err)
		case len(o.unread) > 0 && firstErr == nil:
			qr.Retries += len(o.unread)
			send(o.unread)
		}
	}
	for _, r := range runs {
		r.span.Finish()
	}
	c.metrics.retries.Add(int64(qr.Retries))
	if firstErr != nil {
		return nil, firstErr
	}

	if pass {
		// Every row went by as its chunk's result arrived: no merge
		// statement runs, and none is timed.
		qr.Result = session.passed()
		return qr, nil
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

// chunkRun is one chunk of a query on its way through dispatch: its
// one-chunk chunk query, the hash its result is read at (the paper's
// /result/<md5> of that payload), the replicas it avoids, and the
// dispatches it has been in.
type chunkRun struct {
	chunk partition.ChunkID
	path  string // the chunk's dispatch path, /query2/<chunk>
	subs  []partition.SubChunkID
	stmts []string
	hash  string
	span  *telemetry.Span
	tx    *telemetry.Span // the fabric transaction in flight

	// avoid holds the replicas the chunk is not sent to: ones it failed on,
	// and ones the failure detector knows are dead (skipped). If those
	// exclude every replica the detector may be wrong (a recovering worker
	// is probed back in asynchronously), and the skipped ones get one
	// chance before the chunk fails.
	avoid   map[string]bool
	skipped []string
	tries   int
	lastErr error
}

// skipDead excludes a chunk's replicas the failure detector knows are dead
// up front, so a dead worker costs the query one map entry instead of a
// failed dispatch.
func (c *Czar) skipDead(r *chunkRun) {
	if c.membership == nil {
		return
	}
	for _, name := range c.client.Replicas(r.path) {
		if c.membership.Dead(name) {
			r.exclude(name)
			r.skipped = append(r.skipped, name)
		}
	}
}

func (r *chunkRun) exclude(name string) {
	if r.avoid == nil {
		r.avoid = map[string]bool{}
	}
	r.avoid[name] = true
}

// dispatchGroup is the chunks one dispatch write sends to one replica, in
// plan order.
type dispatchGroup struct {
	endpoint string
	runs     []*chunkRun
}

// group picks each chunk's replica — the first live one it does not avoid —
// and groups the chunks by it. A chunk with no replica left, or out of
// tries, fails the query.
func (c *Czar) group(runs []*chunkRun) ([]dispatchGroup, error) {
	var groups []dispatchGroup
	for _, r := range runs {
		if r.tries >= maxRetriesPerChunk {
			return nil, fmt.Errorf("chunk %d: failed after %d attempts: %w", r.chunk, r.tries, r.lastErr)
		}
		ep, err := c.replica(r)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", r.chunk, err)
		}
		i := slices.IndexFunc(groups, func(g dispatchGroup) bool { return g.endpoint == ep })
		if i < 0 {
			i = len(groups)
			groups = append(groups, dispatchGroup{endpoint: ep})
		}
		groups[i].runs = append(groups[i].runs, r)
	}
	return groups, nil
}

// replica is the first live replica of r's chunk that r does not avoid.
func (c *Czar) replica(r *chunkRun) (string, error) {
	for {
		name, exported := c.client.Replica(r.path, r.avoid)
		if name != "" {
			return name, nil
		}
		if exported && len(r.skipped) > 0 {
			// Restoring the skipped replicas is bookkeeping, not a
			// dispatch: it consumes no try, and runs at most once.
			for _, name := range r.skipped {
				delete(r.avoid, name)
			}
			r.skipped = nil
			continue
		}
		if r.lastErr != nil {
			return "", fmt.Errorf("failed on every replica after %d attempts: %w", r.tries, r.lastErr)
		}
		return "", fmt.Errorf("%w: %s", xrd.ErrNoServer, r.path)
	}
}

// dispatchOutcome is what a dispatch came to: the bytes it collected, and
// either the chunks it left unread on a failed replica, to send again, or
// the error that fails the query.
type dispatchOutcome struct {
	bytes  int64 // dump-stream bytes folded (trailers stripped)
	raw    int64 // wire bytes read from the worker
	unread []*chunkRun
	err    error
}

// cancelTxTimeout bounds the best-effort worker-side cancel
// transactions: the kill path exists to reclaim resources promptly, so
// it must never become the one unbounded transaction in the system (a
// blackholed worker would otherwise hang the dispatch goroutine — and
// with it Wait and Close — forever).
const cancelTxTimeout = 2 * time.Second

// runDispatch performs one dispatch write of g's chunks to its replica and
// reads their results back a chunk at a time, in list order, each absorbed
// into the session right there, so collection overlaps with the jobs still
// running — the worker admits a listed chunk as an earlier one is read (its
// window). Dispatch, result reads and cancels all carry the query's
// out-of-band identity (xrd.WithQID), so a read or a cancel can only reach
// the chunk queries this query wrote.
//
// A failed write or read sends the unread chunks back to execute, with the
// replica avoided, after a best-effort cancel of the ones the worker may
// still hold. A canceled query cancels them at the worker, so its queued or
// running chunk queries are dequeued or aborted and the scan slots
// reclaimed. Worker-shipped trace trailers are stripped from the result
// bytes here — unconditionally, because a worker with tracing on must not
// leak trailer bytes into the merge regardless of this czar's own
// telemetry state — and grafted under the chunk's span when the query is
// traced.
func (c *Czar) runDispatch(q *Query, plan *core.Plan, session *mergeSession, g dispatchGroup, fill *cacheFill) (o dispatchOutcome) {
	ctx, qid, ep := q.ctx, c.qidOf(q), g.endpoint
	d := core.Dispatch{Class: plan.Class, Statements: g.runs[0].stmts, Chunks: make([]core.DispatchChunk, len(g.runs))}
	for i, r := range g.runs {
		d.Chunks[i] = core.DispatchChunk{Chunk: r.chunk, Hash: r.hash, SubChunks: r.subs}
		if r.tries == 0 {
			q.dispatched.Add(1)
		}
		r.tries++
		r.tx = r.span.Child("fabric txn")
		r.tx.SetAttr("worker", ep)
	}
	// failed ends the dispatch at its i-th chunk; held is the first chunk
	// the worker may still hold (a failed read released its own).
	failed := func(i, held int, err error) dispatchOutcome {
		for _, r := range g.runs[i:] {
			r.tx.SetAttr("err", err)
			r.tx.Finish()
		}
		if ctx.Err() != nil {
			// The query was killed while the worker held (or ran) these
			// chunk queries, or while the write was in flight (it may have
			// landed all the same): tell the worker to stop them.
			c.cancelAt(ep, qid, g.runs[i:])
			o.err = fmt.Errorf("chunk %d: %w", g.runs[i].chunk, context.Cause(ctx))
			return o
		}
		c.cancelAt(ep, qid, g.runs[held:])
		for _, r := range g.runs[i:] {
			r.exclude(ep)
			r.lastErr = err
		}
		o.unread = g.runs[i:]
		return o
	}
	if err := c.client.WriteTo(ctx, ep, xrd.WithQID(g.runs[0].path, qid), d.Payload()); err != nil {
		return failed(0, 0, err) // a write torn in transport may have landed
	}
	for i, r := range g.runs {
		data, err := c.client.ReadFrom(ctx, ep, xrd.WithQID(xrd.ResultPathOf(r.hash), qid))
		if err != nil {
			return failed(i, i+1, err)
		}
		r.tx.Finish()
		o.raw += int64(len(data))
		q.bytesRead.Add(int64(len(data)))
		data, shipped := telemetry.ExtractTrailer(data)
		r.span.Graft(shipped...)
		o.bytes += int64(len(data))

		c.mergeSem <- struct{}{}
		ms := r.span.Child("merge fold")
		batch, err := session.absorb(data, ms)
		ms.Finish()
		<-c.mergeSem
		if err == nil {
			ms.SetAttr("rows", batch.Len())
			q.rowsMerged.Add(int64(batch.Len()))
			if session.pass { // past the merge gate: a stalled reader holds only this dispatch
				fill.add(batch)
				err = q.stream.pushWait(ctx, batch)
			}
		}
		if err != nil {
			if errors.As(err, new(mergeError)) {
				o.err = fmt.Errorf("merge: %w", err)
			} else {
				o.err = fmt.Errorf("chunk %d: %w", r.chunk, err)
			}
			c.cancelAt(ep, qid, g.runs[i+1:])
			return o
		}
		r.span.Finish()
		q.completed.Add(1)
	}
	return o
}

// cancelAt fires best-effort cancel transactions for runs at the replica
// they were written to, on a fresh bounded context — the query's own may be
// canceled, and would refuse them.
func (c *Czar) cancelAt(ep, qid string, runs []*chunkRun) {
	if len(runs) == 0 {
		return
	}
	ctx, done := context.WithTimeout(context.Background(), cancelTxTimeout)
	defer done()
	for _, r := range runs {
		if c.client.WriteTo(ctx, ep, xrd.WithQID(xrd.CancelPath(r.hash), qid), nil) != nil && ctx.Err() != nil {
			return
		}
	}
}

// cacheLookup consults the czar result cache at submit time: a hit
// returns a completed QueryResult (zero dispatch), its rows in q's stream
// (boxed instead, for EXPLAIN ANALYZE), and the session never plans any
// chunk work: its progress reads 0/0 chunks, which is the truth. nil means
// no cache or no valid entry. On a miss q keeps the key and the stamp the
// lookup used, for executeWithCache's fill.
func (c *Czar) cacheLookup(q *Query, plan *core.Plan) *QueryResult {
	if c.cache == nil {
		return nil
	}
	q.cacheKey = plan.CacheKey()
	q.epoch, q.gens = c.cacheStamp(plan)
	e, ok := c.cache.Get(q.cacheKey, q.epoch, q.gens)
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
// every referenced table — is the one cacheLookup captured before
// execution, and it is re-verified before the fill, so a repair,
// membership change, or ingest that lands mid-query can never install rows
// computed against the old cluster state under the new state's stamp. (A
// kill that raced completion also never fills: a canceled query's rows may
// be partial.)
func (c *Czar) executeWithCache(q *Query, plan *core.Plan) (*QueryResult, error) {
	if c.cache == nil {
		return c.execute(q, plan, nil)
	}
	fill := new(cacheFill)
	qr, err := c.execute(q, plan, fill)
	if err == nil && q.ctx.Err() == nil && fill.bytes <= streamBytes {
		if e, g := c.cacheStamp(plan); e == q.epoch && g == q.gens {
			st := q.root.Child("cache store")
			c.cache.Put(q.cacheKey, q.epoch, q.gens,
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
	var buf []byte
	for _, n := range plan.Tables {
		buf = append(append(buf, n...), '=')
		buf = append(strconv.AppendInt(buf, c.registry.IngestGen(n), 10), ';')
	}
	return c.placement.Epoch(), string(buf)
}

// qidOf renders a query's fabric-wide identity: czar name + query id.
func (c *Czar) qidOf(q *Query) string {
	var buf [64]byte
	return string(strconv.AppendInt(append(append(buf[:0], c.cfg.Name...), '-'), q.id, 10))
}
