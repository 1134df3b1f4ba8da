package qserv

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/czar"
)

// This file is the public face of query management: asynchronous query
// sessions. The paper's workload is dominated by multi-hour shared
// scans, and its czar exists to manage exactly such queries — track
// them, report progress, and kill them (section 5). Callers therefore
// submit, detach, observe, and abort:
//
//	q, _ := cluster.Submit(ctx, "SELECT ... FROM Object", qserv.WithDeadline(time.Hour))
//	go watch(q)                  // q.Progress(), q.ID()
//	it := q.Rows()               // rows stream as chunks merge
//	for row, ok := it.Next(); ok; row, ok = it.Next() { ... }
//	res, err := q.Wait(ctx)      // how it ended; or q.Cancel()
//
// A result flows once: it has one reader, Rows or Wait, and the czar holds
// at most 8 MiB of it that the reader has not taken — past that the
// query's dispatch waits, so a slow reader slows its own query. Wait after
// Rows carries no rows; Wait alone returns them all.
//
// Every type in these signatures is qserv-owned: no internal/* package
// leaks through the public API.

// Row is one result row. Values are int64, float64, string, or nil
// (SQL NULL).
type Row = []any

// QueryClass is the worker-scheduling class of a query (paper section
// 4.3): interactive queries ride dedicated low-latency slots, full
// scans run chunk by chunk in gangs that share one read of each chunk.
type QueryClass string

// The scheduling classes.
const (
	ClassInteractive QueryClass = "INTERACTIVE"
	ClassFullScan    QueryClass = "FULLSCAN"
)

func classFromCore(c core.QueryClass) QueryClass {
	if c == core.Interactive {
		return ClassInteractive
	}
	return ClassFullScan
}

// Result is the final answer of one query plus execution accounting.
type Result struct {
	// Cols are the result column names.
	Cols []string
	// Rows are the result rows when Wait read them, nil after Rows took
	// them (but for an answer the czar makes whole, such as SHOW's). Every Wait of one query returns
	// the same slices, shared with no other query: copy before mutating if
	// another caller may read them.
	Rows []Row
	// ID is the cluster-assigned query id.
	ID int64
	// Class is the scheduling class the planner assigned.
	Class QueryClass
	// ChunksDispatched counts chunk queries sent to workers; 0 when the
	// answer came from the czar result cache.
	ChunksDispatched int
	// ChunksPruned counts placed chunks the routing tier eliminated
	// before dispatch (index dive, spatial cover, statistics pruning).
	ChunksPruned int
	// CacheHit is true when the czar result cache answered the query
	// without touching a worker.
	CacheHit bool
	// ResultBytes counts dump-stream bytes collected from workers —
	// wire truth, including any telemetry trailers.
	ResultBytes int64
	// BytesMerged counts result bytes folded into the czar merge (the
	// dump streams after telemetry trailers are stripped); equal to
	// ResultBytes when tracing is off.
	BytesMerged int64
	// Elapsed is the wall-clock time of the whole query.
	Elapsed time.Duration
	// Retries counts replica failovers that occurred.
	Retries int
}

func resultFromCzar(qr *czar.QueryResult) *Result {
	if qr == nil {
		return nil
	}
	res := &Result{
		ID:               qr.ID,
		Class:            classFromCore(qr.Class),
		ChunksDispatched: qr.ChunksDispatched,
		ChunksPruned:     qr.ChunksPruned,
		CacheHit:         qr.CacheHit,
		ResultBytes:      qr.ResultBytes,
		BytesMerged:      qr.BytesMerged,
		Elapsed:          qr.Elapsed,
		Retries:          qr.Retries,
	}
	if qr.Result != nil {
		res.Cols = append([]string(nil), qr.Result.Cols...)
		res.Rows = make([]Row, len(qr.Result.Rows))
		for i, r := range qr.Result.Rows {
			res.Rows[i] = Row(r)
		}
	}
	return res
}

// Progress is a point-in-time snapshot of a query's execution.
type Progress struct {
	// ChunksTotal is the planned chunk-query count.
	ChunksTotal int
	// ChunksDispatched counts chunk queries whose dispatch has begun.
	ChunksDispatched int
	// ChunksCompleted counts chunk results fetched and merged.
	ChunksCompleted int
	// RowsMerged counts rows folded into the session result so far.
	RowsMerged int64
	// BytesFetched counts dump-stream bytes collected so far.
	BytesFetched int64
	// Done is true once Wait would not block.
	Done bool
}

// QueryInfo describes one in-flight query (see Cluster.Running).
type QueryInfo struct {
	ID    int64
	SQL   string
	Class QueryClass
	Age   time.Duration
	Progress
}

// queryOptions collects the per-query functional options.
type queryOptions struct {
	deadline time.Duration
	class    *QueryClass
}

// QueryOption customizes one submitted query, overriding cluster-wide
// defaults.
type QueryOption func(*queryOptions)

// WithDeadline bounds the whole query: past the deadline it fails with
// context.DeadlineExceeded and its workers are told to abort.
func WithDeadline(d time.Duration) QueryOption {
	return func(o *queryOptions) { o.deadline = d }
}

// WithClass forces the worker-scheduling class, overriding the
// planner's classification — pin a known-cheap scan to the interactive
// lane, or demote an expensive point query to the scan lane.
func WithClass(class QueryClass) QueryOption {
	return func(o *queryOptions) { o.class = &class }
}

func (o *queryOptions) toCzar() czar.Options {
	opts := czar.Options{Deadline: o.deadline}
	if o.class != nil {
		cc := core.FullScan
		if *o.class == ClassInteractive {
			cc = core.Interactive
		}
		opts.Class = &cc
	}
	return opts
}

// Query is the handle of one submitted query session.
type Query struct {
	inner *czar.Query
}

// ID returns the cluster-assigned query id — the handle Kill (and the
// frontend's KILL command) addresses.
func (q *Query) ID() int64 { return q.inner.ID() }

// Wait blocks until the query finishes, the query is canceled, or ctx
// is done — whichever is first. ctx only bounds this wait; abandoning a
// Wait does not kill the query. A canceled query's Wait returns
// context.Canceled. Unless Rows took them, Wait reads the rows.
func (q *Query) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	qr, err := q.inner.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return resultFromCzar(qr), nil
}

// Cancel kills the query: dispatch stops, in-flight fabric transactions
// abort, and workers dequeue its queued chunk queries and abort running
// ones at the engine's next interrupt poll, on either lane — so the
// resources the query held actually free.
func (q *Query) Cancel() { q.inner.Cancel() }

// Progress returns a snapshot of the query's execution counters.
func (q *Query) Progress() Progress { return Progress(q.inner.Progress()) }

// Rows hands the query's rows to their one reader, a streaming iterator
// fed by the merge pipeline: for pass-through queries rows arrive as chunk
// results merge (long before a full scan finishes); aggregate and top-K
// queries deliver their merged rows on completion. The czar holds at most
// 8 MiB of rows the iterator has not taken, and a query whose reader
// stalls waits for it. A second Rows, or one after Wait, yields nothing and
// its Err is ErrRowsTaken.
func (q *Query) Rows() *RowIter { return &RowIter{inner: q.inner.Rows()} }

// ErrRowsTaken is the Err of an iterator that asked for a query's rows
// after another reader took them.
var ErrRowsTaken = czar.ErrRowsTaken

// RowIter iterates a query's streamed result rows.
type RowIter struct {
	inner *czar.RowIter
}

// Next returns the next result row, blocking until one arrives; ok is
// false once the query finished (or failed) and every row has been
// consumed. Check Err after the final Next.
//
// The merge pipeline holds result rows encoded; the iterator boxes them
// on demand, so the row is the caller's own.
func (it *RowIter) Next() (Row, bool) {
	row, ok := it.inner.Next()
	if !ok {
		return nil, false
	}
	return Row(row), true
}

// Err returns the query's terminal error once it finished; nil while
// it is still running or when it succeeded.
func (it *RowIter) Err() error { return it.inner.Err() }

// Submit starts a query session: it returns immediately with a handle
// once the statement is parsed and planned (errors in either surface
// here; execution errors surface from Wait). ctx governs the whole
// query — canceling it is equivalent to Cancel. The czar's management
// statements — SHOW PROCESSLIST, WORKERS, REPAIRS, CACHE, METRICS,
// PROFILE [<id>] and KILL <id> — are answered here, with the columns a
// served frontend returns, and their handle is already finished.
func (cl *Cluster) Submit(ctx context.Context, sql string, opts ...QueryOption) (*Query, error) {
	var o queryOptions
	for _, opt := range opts {
		opt(&o)
	}
	inner, err := cl.Czar.Submit(ctx, sql, o.toCzar())
	if err != nil {
		return nil, err
	}
	return &Query{inner: inner}, nil
}

// Query submits SQL and waits for the answer — the synchronous
// convenience form of Submit + Wait.
func (cl *Cluster) Query(sql string) (*Result, error) {
	q, err := cl.Submit(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return q.Wait(context.Background())
}

// Running lists the cluster's in-flight queries, oldest first.
func (cl *Cluster) Running() []QueryInfo {
	infos := cl.Czar.Running()
	out := make([]QueryInfo, len(infos))
	for i, qi := range infos {
		out[i] = QueryInfo{
			ID:       qi.ID,
			SQL:      qi.SQL,
			Class:    classFromCore(qi.Class),
			Age:      time.Since(qi.Started),
			Progress: Progress(qi.Progress),
		}
	}
	return out
}

// Kill cancels the in-flight query with the given id; false means no
// such query is running.
func (cl *Cluster) Kill(id int64) bool { return cl.Czar.Kill(id) }
