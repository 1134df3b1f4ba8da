package czar

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sqlengine"
)

// This file is the Backend seam of the frontend tier: the Submit-shaped
// streaming entry point. A real czar's Submit returns *Query handles
// whose columns are known at plan time and whose rows stream through
// the merge pipeline; any other Backend implementation (a test fake, a
// caching layer, a remote stub) mints equivalent handles with
// NewQueryHandle and drives them through a QueryFeed.

// setColumns publishes the result column names exactly once; later
// calls (e.g. finish re-reporting what plan time already published) are
// no-ops.
func (q *Query) setColumns(cols []string) {
	q.colsOnce.Do(func() {
		q.cols = append([]string(nil), cols...)
		close(q.colsReady)
	})
}

// Columns blocks until the query's result column names are known — at
// plan time for distributed queries (long before the first chunk
// merges), at completion for czar-local ones — or until the query fails
// or ctx is done. A streaming wire protocol sends its column header
// from here, decoupling first-byte latency from result size.
func (q *Query) Columns(ctx context.Context) ([]string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-q.colsReady:
		return q.cols, nil
	case <-q.done:
		// finish closes colsReady (when it can) before done, but the
		// select race can still pick this branch; re-check.
		select {
		case <-q.colsReady:
			return q.cols, nil
		default:
		}
		if q.err != nil {
			return nil, q.err
		}
		if q.res != nil && q.res.Result != nil {
			return q.res.Cols, nil
		}
		return nil, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// NewQueryHandle mints a detached query session handle fed by the
// caller instead of a czar's dispatch pipeline. The handle behaves
// exactly like a Submit result: Columns blocks until SetColumns, Rows
// streams what Push delivers, Cancel (and only Cancel) cancels the
// feed's Context, and Wait returns what Finish reports.
func NewQueryHandle(id int64, sql string, class core.QueryClass) (*Query, *QueryFeed) {
	ctx, cancel := context.WithCancelCause(context.Background())
	q := &Query{
		id:        id,
		sql:       sql,
		class:     class,
		started:   time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		stream:    newRowStream(),
		done:      make(chan struct{}),
		colsReady: make(chan struct{}),
	}
	return q, &QueryFeed{q: q}
}

// QueryFeed drives a NewQueryHandle session: the producing side of the
// handle's streaming contract.
type QueryFeed struct {
	q    *Query
	once sync.Once
}

// Context is done once the session is canceled (handle Cancel, a
// killed KILL target, or a dropped client connection); the producer
// must stop feeding and call Finish.
func (f *QueryFeed) Context() context.Context { return f.q.ctx }

// SetColumns publishes the result column names, releasing Columns
// waiters. Call it before the first Push.
func (f *QueryFeed) SetColumns(cols ...string) { f.q.setColumns(cols) }

// Push streams result rows to the handle's iterators, encoding them as
// they enter the stream. Push never blocks. A value that has no encoding
// (anything but nil, int64, float64 and string) fails the session: it is
// canceled with that error, which Finish then reports.
func (f *QueryFeed) Push(rows ...sqlengine.Row) {
	if err := f.q.stream.pushRows(rows); err != nil {
		f.q.cancel(err)
	}
}

// Finish completes the session: with err nil, res becomes the Wait
// result (rows already Pushed are not re-streamed; a Finish with no
// prior Push streams res.Rows); otherwise the session fails with err —
// mid-stream, after any number of Pushes, is legal, which is exactly
// what the wire protocol's mid-stream error frame reports. If the
// session was canceled first, the cancellation cause wins, matching a
// real czar's Wait contract. Finish is idempotent; only the first call
// takes effect.
func (f *QueryFeed) Finish(res *sqlengine.Result, err error) {
	f.once.Do(func() {
		q := f.q
		if cerr := q.ctx.Err(); cerr != nil {
			err = context.Cause(q.ctx)
		}
		var qr *QueryResult
		if err == nil {
			qr = &QueryResult{Result: res, ID: q.id, Class: q.class, Elapsed: time.Since(q.started)}
		}
		q.finish(qr, err)
	})
}
