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

	// cacheKey is the result cache's key for the query's plan, and epoch
	// and gens the stamp the cache lookup saw: rendered once, at submit,
	// and used again by the fill.
	cacheKey string
	epoch    int64
	gens     string

	// root is the query's trace span tree (nil when untraced); explain
	// marks an EXPLAIN ANALYZE run (tracing forced, row streaming
	// suppressed, visible rows are the rendered tree).
	root    *telemetry.Span
	explain bool

	done chan struct{}
	res  *QueryResult
	err  error
}

func newQuery(ctx context.Context, cancel context.CancelCauseFunc, sql string) *Query {
	return &Query{sql: sql, started: time.Now(), ctx: ctx, cancel: cancel,
		stream: newRowStream(), done: make(chan struct{}), colsReady: make(chan struct{})}
}

// ID returns the czar-assigned query id (the KILL handle).
func (q *Query) ID() int64 { return q.id }

// Wait blocks until the query finishes, is canceled, or ctx is done —
// whichever is first; abandoning a Wait does not kill the query. Unless
// Rows took the stream, the first Wait takes it and boxes the rows as the
// query makes them, and every Wait returns those rows. After Rows, Wait
// reports how the query ended and carries no rows but an answer made boxed
// (a czar-local statement's, a fed handle's, EXPLAIN ANALYZE's).
func (q *Query) Wait(ctx context.Context) (*QueryResult, error) {
	s := q.stream
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, s.wake)()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reader == noReader {
		s.reader = waitReader
	}
	for {
		for s.reader == waitReader && len(s.queue) > 0 {
			s.boxed = s.pop().Box(s.boxed)
		}
		if s.done {
			break
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		s.cond.Wait()
	}
	// finish set res before it closed the stream; s.mu orders the Waits.
	if res := q.res; s.reader == waitReader && res != nil && res.Result != nil && res.Rows == nil {
		res.Rows = s.boxed
	}
	return q.res, q.err
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

// Rows hands the query's result stream to its one reader: for
// pass-through plans rows arrive as chunk results do (hours before a long
// scan finishes), for aggregate and top-K plans when the query completes.
// The stream holds at most streamBytes the reader has not taken; past that
// the query's dispatch waits for it. A second Rows, or one after Wait,
// yields nothing and its Err is ErrRowsTaken.
func (q *Query) Rows() *RowIter {
	it := &RowIter{q: q, err: ErrRowsTaken}
	q.stream.mu.Lock()
	if q.stream.reader == noReader {
		q.stream.reader, it.err = iterReader, nil
	}
	q.stream.mu.Unlock()
	return it
}

// ErrRowsTaken is the Err of an iterator that asked for a query's rows
// after another reader took them.
var ErrRowsTaken = errors.New("czar: the query's rows were taken by another reader")

// finish publishes the terminal state and releases waiters, after every
// row was pushed. done closes before the stream does — a reader observes
// the stream's end only after Err is already answerable, so
// drain-then-check-Err can never read a failed query as a clean empty one.
func (q *Query) finish(res *QueryResult, err error) {
	if err == nil && res != nil && res.Result != nil {
		// Local queries (and fed handles) learn their columns only here;
		// distributed ones already published them at plan time (no-op).
		q.setColumns(res.Cols)
	}
	if err != nil {
		res = nil
	}
	q.res, q.err = res, err
	close(q.done)
	q.stream.close()
}

// ---------- streaming rows ----------

// streamBytes bounds the encoded rows a query's stream holds that its
// reader has not taken. A chunk result past it waits in its dispatch's
// reader goroutine, so a stalled reader leaves the czar at most this plus
// one chunk result per dispatch of its query, and each worker a window of
// each dispatch (the rest is not run until it is read).
const streamBytes = 8 << 20

// The stream's reader: nobody yet, a RowIter, or Wait.
const (
	noReader = iota
	iterReader
	waitReader
)

// rowStream is the pipe between the merge pipeline and the query's one
// reader: a FIFO of encoded row batches (boxed rows are encoded as they
// enter) plus a completion flag. A batch is the stream's from its push to
// its pop, then the reader's: the stream keeps nothing it handed out.
type rowStream struct {
	mu     sync.Mutex
	cond   *sync.Cond // a push, a pop, the end, a waiter's context done
	queue  []rowcodec.Batch
	bytes  int64 // what queue holds
	done   bool
	reader int
	boxed  []sqlengine.Row // what Wait took
}

func newRowStream() *rowStream {
	s := &rowStream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push queues batches, which must not be written to afterwards, without
// waiting: for answers that are whole before anyone reads.
func (s *rowStream) push(batches ...rowcodec.Batch) {
	s.mu.Lock()
	for _, b := range batches {
		s.add(b)
	}
	s.mu.Unlock()
}

// pushWait queues b once the stream has room for it (an empty stream
// always has), or fails with ctx's cause.
func (s *rowStream) pushWait(ctx context.Context, b rowcodec.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if full := func() bool { return len(s.queue) > 0 && s.bytes+b.Size() > streamBytes }; full() {
		defer context.AfterFunc(ctx, s.wake)()
		for full() {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			s.cond.Wait()
		}
	}
	s.add(b)
	return nil
}

// add queues b under s.mu.
func (s *rowStream) add(b rowcodec.Batch) {
	if b.Len() > 0 {
		s.queue = append(s.queue, b)
		s.bytes += b.Size()
		s.cond.Broadcast()
	}
}

// pop hands the oldest batch over, under s.mu.
func (s *rowStream) pop() rowcodec.Batch {
	b := s.queue[0]
	s.queue[0] = rowcodec.Batch{}
	s.queue = s.queue[1:]
	s.bytes -= b.Size()
	s.cond.Broadcast()
	return b
}

// pushRows encodes rows into a batch and queues it. A value that has no
// encoding is an error, and nothing is queued.
func (s *rowStream) pushRows(rows []sqlengine.Row) error {
	if len(rows) == 0 {
		return nil
	}
	b, err := rowcodec.EncodeBatch(rows)
	if err == nil {
		s.push(b)
	}
	return err
}

func (s *rowStream) close() {
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// wake rouses the stream's waiters to look at their contexts.
func (s *rowStream) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// RowIter reads a query's streamed result rows, a batch at a time, so the
// rows of a batch cost no lock.
type RowIter struct {
	q     *Query
	err   error           // ErrRowsTaken: the iterator got no stream
	cur   rowcodec.Batch  // the batch being read
	row   int             // its next row
	boxed []sqlengine.Row // cur's rows boxed, once Next was asked for one
}

// Ready reports whether Next would return without blocking — a row is
// already buffered, or the stream has ended. Streaming writers use it
// to flush buffered output before parking on a slow producer.
func (it *RowIter) Ready() bool {
	s := it.q.stream
	s.mu.Lock()
	defer s.mu.Unlock()
	return it.err != nil || it.row < it.cur.Len() || len(s.queue) > 0 || s.done
}

// NextBatch returns the stream's next rows, encoded — what is left of the
// batch being read, or the next, the bytes a worker wrote for a
// pass-through chunk result — blocking until they arrive; ok is false once
// the query finished (or failed) and every row was taken. Check Err after
// the final call. The bytes may be the result cache's too: do not write.
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
// the row is the caller's own.
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
	if it.err != nil || it.row < it.cur.Len() {
		return it.err == nil
	}
	s := it.q.stream
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.done {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return false
	}
	it.cur, it.row, it.boxed = s.pop(), 0, nil
	return true
}

// Err returns ErrRowsTaken for an iterator that got no stream, else the
// query's terminal error once it finished.
func (it *RowIter) Err() error {
	if it.err != nil {
		return it.err
	}
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
// just the submission): canceling it is equivalent to Cancel. A
// management statement (IsManagement) is answered here instead, and its
// handle is already finished.
func (c *Czar) Submit(ctx context.Context, sql string, opts Options) (*Query, error) {
	if st, arg := lookup(sql); st != nil {
		return c.manage(st, arg, sql)
	}
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
		for _, name := range plan.Tables {
			if c.registry.Ingesting(name) {
				return nil, fmt.Errorf("czar %s: table %s is being ingested; retry when the ingest finishes", c.cfg.Name, name)
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

	q := newQuery(qctx, cancel, sql)
	q.root, q.explain = root, explain
	var cached *QueryResult
	if !local {
		// The result cache is consulted at submit time: a hit completes
		// the session without planning any chunk work, so its progress
		// honestly reports zero chunks rather than a fan-out it skipped.
		if c.cache != nil {
			cl := root.Child("cache lookup")
			cached = c.cacheLookup(q, plan)
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
		if err == nil {
			// An answer made boxed (a czar-local statement's, EXPLAIN
			// ANALYZE's) enters the stream encoded, like every other.
			err = q.stream.pushRows(res.Rows)
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
