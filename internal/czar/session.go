package czar

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
)

// This file is the czar's query-management layer (paper section 5: the
// master "manages" multi-hour queries — tracks them, reports progress,
// kills them). A user query is an asynchronous session: Submit returns
// a Query handle immediately, dispatch and merging run in a background
// goroutine, and the handle exposes Wait, Progress, a streaming row
// iterator, and Cancel. Every in-flight query is registered so
// operators can list (SHOW PROCESSLIST) and kill (KILL <id>) them; a
// kill propagates through the query's context into the dispatch
// goroutines, the xrd transactions, and — via cancel transactions — the
// workers' scan lanes, so the resources a dead query held actually
// free.

// ErrClosed rejects submissions to (and fails queries drained by) a
// closed czar.
var ErrClosed = errors.New("czar: closed")

// Options are per-query overrides of czar-wide defaults.
type Options struct {
	// Deadline bounds the whole query; past it the query fails with
	// context.DeadlineExceeded and its workers are told to abort. Zero
	// means no deadline.
	Deadline time.Duration
	// Class forces the scheduling class carried to workers, overriding
	// the planner's classification; nil inherits. (An operator can pin
	// a known-cheap scan to the interactive lane, or demote a pricey
	// "interactive" query to the scan lane.)
	Class *core.QueryClass
}

// Progress is a point-in-time snapshot of a query's execution.
type Progress struct {
	// ChunksTotal is the planned chunk-query count.
	ChunksTotal int
	// ChunksDispatched counts chunk queries whose dispatch transaction
	// has begun.
	ChunksDispatched int
	// ChunksCompleted counts chunk results fetched and merged.
	ChunksCompleted int
	// RowsMerged counts rows folded into the session result so far.
	RowsMerged int64
	// BytesFetched counts dump-stream bytes collected from workers.
	BytesFetched int64
	// Done is true once Wait would not block.
	Done bool
}

// QueryInfo describes one registered in-flight query.
type QueryInfo struct {
	ID      int64
	SQL     string
	Class   core.QueryClass
	Started time.Time
	Progress
}

// Query is the handle of one submitted user query.
type Query struct {
	id      int64
	sql     string
	class   core.QueryClass
	started time.Time

	ctx    context.Context
	cancel context.CancelCauseFunc

	chunksTotal int
	dispatched  atomic.Int64
	completed   atomic.Int64
	rowsMerged  atomic.Int64
	bytesRead   atomic.Int64

	// cols are the result column names, published through colsReady as
	// soon as they are known: at plan time for distributed queries (the
	// planner derives ResultColumns before any chunk is dispatched), at
	// completion for czar-local ones. The frontend's streaming wire
	// protocol sends its column header from here, long before the query
	// finishes.
	cols      []string
	colsOnce  sync.Once
	colsReady chan struct{}

	stream *rowStream
	// boxOnce guards the one boxing of a result whose rows stayed encoded
	// (see Wait).
	boxOnce sync.Once

	// root is the query's trace span tree (nil when untraced); explain
	// marks an EXPLAIN ANALYZE run (tracing forced, row streaming
	// suppressed, visible rows are the rendered tree).
	root    *telemetry.Span
	explain bool

	done chan struct{}
	res  *QueryResult
	err  error
}

// ID returns the czar-assigned query id (the KILL handle).
func (q *Query) ID() int64 { return q.id }

// SQL returns the submitted statement text.
func (q *Query) SQL() string { return q.sql }

// Class returns the scheduling class the planner (or a class-hint
// option) assigned.
func (q *Query) Class() core.QueryClass { return q.class }

// Started returns the submission time.
func (q *Query) Started() time.Time { return q.started }

// Wait blocks until the query finishes, the query is canceled, or the
// passed context is done — whichever is first. The passed context only
// bounds the wait: abandoning a Wait does not kill the query. The rows of
// an answer that travelled encoded — a streamed plan's, a cache hit's —
// are boxed here, once, by the first Wait that returns them; a caller that
// reads the rows from Rows() and wants only the outcome calls Outcome.
func (q *Query) Wait(ctx context.Context) (*QueryResult, error) {
	res, err := q.Outcome(ctx)
	if res != nil {
		q.boxOnce.Do(res.box)
	}
	return res, err
}

// Outcome is Wait without the rows: it blocks the same way and returns the
// same result, but leaves rows that travelled encoded as they are, so
// Result.Rows is only set if the answer was made boxed or a Wait has boxed
// it. It is for the caller that took the rows from the Rows() iterator —
// the frontend, which forwards them as bytes and needs the terminal error
// and the accounting.
func (q *Query) Outcome(ctx context.Context) (*QueryResult, error) {
	select {
	case <-q.done:
		return q.res, q.err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// Cancel kills the query: dispatch stops, in-flight fabric transactions
// abort, workers are told to dequeue or abort its chunk queries, and
// Wait returns context.Canceled.
func (q *Query) Cancel() { q.cancel(context.Canceled) }

// Progress returns a snapshot of the query's execution counters.
func (q *Query) Progress() Progress {
	p := Progress{
		ChunksTotal:      q.chunksTotal,
		ChunksDispatched: int(q.dispatched.Load()),
		ChunksCompleted:  int(q.completed.Load()),
		RowsMerged:       q.rowsMerged.Load(),
		BytesFetched:     q.bytesRead.Load(),
	}
	select {
	case <-q.done:
		p.Done = true
	default:
	}
	return p
}

// Rows returns a streaming iterator over the query's result rows, fed
// by the merge pipeline: for pass-through plans rows are delivered as
// chunk results arrive (hours before a long scan finishes), for
// aggregate and top-K plans the final merged rows are delivered when
// the query completes. Iterators are independent; each sees every row.
func (q *Query) Rows() *RowIter { return &RowIter{q: q} }

// finish publishes the terminal state and releases waiters. Order
// matters: rows are pushed before done closes (a returned Wait sees
// the full stream), and done closes before the stream does — RowIter
// observes the stream's end only after Err is already answerable, so
// drain-then-check-Err can never read a failed query as a clean empty
// one.
func (q *Query) finish(res *QueryResult, err error) {
	if err == nil && res != nil && res.Result != nil {
		// Local queries (and fed handles) learn their columns only here;
		// distributed ones already published them at plan time (no-op).
		q.setColumns(res.Cols)
		switch {
		case q.stream.streamed():
		case res.batches != nil:
			q.stream.push(res.batches...)
		default:
			// An answer made boxed (a czar-local statement's, a fed
			// handle's) enters the stream encoded, like every other.
			err = q.stream.pushRows(res.Rows)
		}
	}
	if err != nil {
		res = nil
	}
	q.res, q.err = res, err
	close(q.done)
	q.stream.close()
}

// ---------- streaming rows ----------

// rowStream is the pipe between the merge pipeline and RowIters: an
// appendable log of encoded row batches plus a completion flag. It has
// the one representation whatever fed it — a chunk result's rows as the
// worker wrote them, a merge statement's answer, a cache hit's batches, or
// boxed rows (a fed handle's, a czar-local statement's), which are encoded
// as they enter. Producers
// never block — a slow (or absent) iterator must not stall chunk dispatch
// — and every iterator replays the log from its own position.
type rowStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches []rowcodec.Batch
	done    bool
}

func newRowStream() *rowStream {
	s := &rowStream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push appends batches, which must not be written to afterwards.
func (s *rowStream) push(batches ...rowcodec.Batch) {
	s.mu.Lock()
	for _, b := range batches {
		if b.Len() > 0 {
			s.batches = append(s.batches, b)
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// pushRows encodes rows into a batch and appends it. A value that has no
// encoding is an error, and nothing is appended.
func (s *rowStream) pushRows(rows []sqlengine.Row) error {
	if len(rows) == 0 {
		return nil
	}
	b, err := rowcodec.EncodeBatch(rows)
	if err != nil {
		return err
	}
	s.push(b)
	return nil
}

func (s *rowStream) streamed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches) > 0
}

func (s *rowStream) close() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// next blocks until batch i exists or the stream closed.
func (s *rowStream) next(i int) (rowcodec.Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.batches) && !s.done {
		s.cond.Wait()
	}
	if i < len(s.batches) {
		return s.batches[i], true
	}
	return rowcodec.Batch{}, false
}

// ready reports whether next(i) would return without blocking.
func (s *rowStream) ready(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return i < len(s.batches) || s.done
}

// RowIter iterates a query's streamed result rows. It takes the stream a
// batch at a time, so the rows of a batch cost no lock.
type RowIter struct {
	q     *Query
	next  int             // the stream's next batch
	cur   rowcodec.Batch  // the batch being read
	row   int             // its next row
	boxed []sqlengine.Row // cur's rows boxed, once Next was asked for one
}

// Ready reports whether Next would return without blocking — a row is
// already buffered, or the stream has ended. Streaming writers use it
// to flush buffered output before parking on a slow producer.
func (it *RowIter) Ready() bool { return it.row < it.cur.Len() || it.q.stream.ready(it.next) }

// NextBatch returns the stream's next rows, encoded — every row of the
// next batch the iterator has not handed out, the bytes a worker wrote for
// a pass-through chunk result — blocking until they arrive; ok is false
// once the query finished (or failed) and every streamed row has been
// consumed. Check Err after the final call. The bytes are shared with
// every other reader of the stream: they are not to be written to.
func (it *RowIter) NextBatch() (rowcodec.Batch, bool) {
	if !it.fill() {
		return rowcodec.Batch{}, false
	}
	b := it.cur
	if it.row > 0 {
		// Next handed out the head of this batch: the rest, rebased.
		start := b.Offset(it.row)
		ends := make([]int, b.Len()-it.row)
		for i := range ends {
			ends[i] = b.Ends[it.row+i] - start
		}
		b = rowcodec.Batch{Data: b.Data[start:], Ends: ends}
	}
	it.row = it.cur.Len()
	return b, true
}

// Next returns the next row boxed, the rows of a batch boxed together:
// the row is the caller's own, shared with no other iterator and no Wait.
func (it *RowIter) Next() (sqlengine.Row, bool) {
	if !it.fill() {
		return nil, false
	}
	if it.boxed == nil {
		it.boxed = it.cur.Box(nil)
	}
	it.row++
	return it.boxed[it.row-1], true
}

// fill makes cur a batch with a row left to hand out, blocking until the
// stream has one; false means it has ended.
func (it *RowIter) fill() bool {
	for it.row >= it.cur.Len() {
		var ok bool
		if it.cur, ok = it.q.stream.next(it.next); !ok {
			return false
		}
		it.next++
		it.row, it.boxed = 0, nil
	}
	return true
}

// Err returns the query's terminal error once it finished; nil while
// the query is still running or when it succeeded.
func (it *RowIter) Err() error {
	select {
	case <-it.q.done:
		return it.q.err
	default:
		return nil
	}
}

// ---------- submission and the registry ----------

// Submit parses and plans sql, registers the query, and starts its
// dispatch/merge pipeline in the background, returning the session
// handle immediately. Parse and plan errors surface here; execution
// errors surface from Wait. The context governs the whole query (not
// just the submission): canceling it is equivalent to Cancel.
func (c *Czar) Submit(ctx context.Context, sql string, opts Options) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// EXPLAIN ANALYZE <stmt> runs the statement for real — tracing
	// forced on even when czar-wide telemetry is off — and answers with
	// the rendered span tree instead of the rows.
	stmt, explain := stripExplainAnalyze(sql)
	sel, err := sqlparse.ParseSelect(stmt)
	if err != nil {
		return nil, err
	}

	// The trace root opens before planning so the plan stage is itself
	// a span. A nil root (telemetry off, not an EXPLAIN) makes every
	// span call below a no-op.
	var root *telemetry.Span
	if c.tel.Trace || explain {
		root = telemetry.StartSpan("query")
		root.SetAttr("stmt", stmt)
	}

	// Plan synchronously so the registry always knows the class and
	// chunk fan-out of everything it lists.
	local := false
	ps := root.Child("plan")
	plan, err := c.planner.Plan(sel, c.placement.Chunks())
	switch {
	case errors.Is(err, core.ErrNoPartitionedTable):
		// Unpartitioned tables are replicated; answer locally (still as
		// a session, so even metadata queries are managed uniformly).
		local = true
	case err != nil:
		return nil, err
	default:
		// Tables with an ingest in flight are not queryable: their
		// worker-side chunk tables are still growing batch by batch, so
		// a chunk query would race the inserts and see partial rows.
		for _, pr := range plan.Analysis.PartRefs {
			if c.registry.Ingesting(pr.Info.Name) {
				return nil, fmt.Errorf("czar %s: table %s is being ingested; retry when the ingest finishes", c.cfg.Name, pr.Info.Name)
			}
		}
		for _, ref := range plan.Analysis.NonPartRefs {
			if c.registry.Ingesting(ref.Table) {
				return nil, fmt.Errorf("czar %s: table %s is being ingested; retry when the ingest finishes", c.cfg.Name, ref.Table)
			}
		}
		if opts.Class != nil {
			plan.Class = *opts.Class
		}
	}
	if local {
		ps.SetAttr("route", "local")
	} else {
		ps.SetAttr("class", plan.Class)
		ps.SetAttr("chunks", len(plan.Chunks))
		if plan.Route.Pruned > 0 {
			ps.SetAttr("pruned", plan.Route.Pruned)
		}
	}
	ps.Finish()

	qctx := ctx
	var stopTimer context.CancelFunc
	if opts.Deadline > 0 {
		qctx, stopTimer = context.WithTimeout(qctx, opts.Deadline)
	}
	qctx, cancel := context.WithCancelCause(qctx)

	q := &Query{
		sql:       sql,
		started:   time.Now(),
		ctx:       qctx,
		cancel:    cancel,
		stream:    newRowStream(),
		done:      make(chan struct{}),
		colsReady: make(chan struct{}),
		root:      root,
		explain:   explain,
	}
	var cached *QueryResult
	if !local {
		// The result cache is consulted at submit time: a hit completes
		// the session without planning any chunk work, so its progress
		// honestly reports zero chunks rather than a fan-out it skipped.
		if c.cache != nil {
			cl := root.Child("cache lookup")
			cached = c.cacheLookup(plan)
			cl.SetAttr("hit", cached != nil)
			cl.Finish()
		}
		q.class = plan.Class
		if cached == nil {
			q.chunksTotal = len(plan.Chunks)
		}
		if explain {
			// The visible columns of an EXPLAIN ANALYZE are the rendered
			// trace, not the statement's.
			q.setColumns(explainColumns)
		} else {
			q.setColumns(plan.OutputColumns())
		}
	}

	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		cancel(ErrClosed)
		if stopTimer != nil {
			stopTimer()
		}
		return nil, ErrClosed
	}
	c.qseq++
	q.id = c.qseq
	c.queries[q.id] = q
	c.qwg.Add(1)
	c.qmu.Unlock()

	go func() {
		defer func() {
			cancel(nil)
			if stopTimer != nil {
				stopTimer()
			}
			c.qmu.Lock()
			delete(c.queries, q.id)
			c.qmu.Unlock()
			c.qwg.Done()
		}()
		var res *QueryResult
		var err error
		switch {
		case local:
			ls := q.root.Child("local exec")
			res, err = c.runLocal(q, sel)
			ls.Finish()
		case cached != nil:
			res = cached
		default:
			res, err = c.executeWithCache(q, plan)
		}
		if q.ctx.Err() != nil {
			// The query was killed (Cancel, KILL, deadline, Close, or a
			// failed sibling chunk): report the cause, not whichever
			// transaction happened to notice first — and even when
			// execution won the race and completed, a canceled query
			// never hands out its result (the documented Wait
			// contract).
			err = context.Cause(q.ctx)
		}
		if err != nil {
			res = nil
		} else {
			res.ID = q.id
			res.Elapsed = time.Since(q.started)
		}
		c.metrics.queries.Inc()
		if err != nil {
			c.metrics.errors.Inc()
		}
		c.metrics.latencyNS.Observe(time.Since(q.started).Nanoseconds())
		if q.root != nil {
			if res != nil {
				res.Trace = q.root
			}
			// Settle the trace (ring retention, slow-query log) before an
			// EXPLAIN ANALYZE swaps the rendered tree in as the rows, so
			// both render the fully annotated root.
			c.traceFinish(q, res, err)
			if err == nil && q.explain {
				res = explainResult(q, res)
			}
		} else if t := c.tel.SlowQueryThreshold; t > 0 && time.Since(q.started) >= t {
			// Untraced slow queries still log — with the accounting, just
			// no span summary.
			kv := []any{"id", q.id, "elapsed", time.Since(q.started).Round(time.Microsecond),
				"threshold", t, "sql", q.sql}
			if err != nil {
				kv = append(kv, "err", err)
			}
			logger.Warn("query.slow", kv...)
		}
		q.finish(res, err)
	}()
	return q, nil
}

// runLocal answers an unpartitioned-table query on the czar's engine.
// Even local execution honors the kill: the query context feeds the
// engine's interrupt seam, and a cancel that races completion still
// reports context.Canceled rather than handing a killed query its
// result.
func (c *Czar) runLocal(q *Query, sel *sqlparse.Select) (*QueryResult, error) {
	if err := q.ctx.Err(); err != nil {
		return nil, context.Cause(q.ctx)
	}
	res, err := c.engine.ExecuteStmtOpts(sel, sqlengine.ExecOptions{Interrupt: q.ctx.Done()})
	if err != nil {
		return nil, err
	}
	if q.ctx.Err() != nil {
		return nil, context.Cause(q.ctx)
	}
	return &QueryResult{Result: res}, nil
}

// Running lists the registered in-flight queries, oldest first.
func (c *Czar) Running() []QueryInfo {
	c.qmu.Lock()
	qs := make([]*Query, 0, len(c.queries))
	for _, q := range c.queries {
		qs = append(qs, q)
	}
	c.qmu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	out := make([]QueryInfo, len(qs))
	for i, q := range qs {
		out[i] = QueryInfo{
			ID:       q.id,
			SQL:      q.sql,
			Class:    q.class,
			Started:  q.started,
			Progress: q.Progress(),
		}
	}
	return out
}

// Kill cancels the in-flight query with the given id; false means no
// such query is registered (finished queries unregister themselves).
func (c *Czar) Kill(id int64) bool {
	c.qmu.Lock()
	q := c.queries[id]
	c.qmu.Unlock()
	if q == nil {
		return false
	}
	q.Cancel()
	return true
}

// Close shuts the czar down: new submissions are rejected, every
// in-flight query is canceled with ErrClosed, and Close blocks until
// they have drained (their worker-side chunk queries dequeued or
// aborted). Close is idempotent.
func (c *Czar) Close() {
	c.qmu.Lock()
	already := c.qclosed
	c.qclosed = true
	qs := make([]*Query, 0, len(c.queries))
	for _, q := range c.queries {
		qs = append(qs, q)
	}
	c.qmu.Unlock()
	if !already {
		for _, q := range qs {
			q.cancel(ErrClosed)
		}
	}
	c.qwg.Wait()
}
