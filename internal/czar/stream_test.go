package czar

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dump"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/qcache"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

// passSQL is the pass-through statement the stream tests run over a
// cannedCzar.
const passSQL = "SELECT objectId, ra_PS FROM Object"

// cannedRows answers every chunk query of a czar as if its chunk held rows
// rows: objectId chunk*rows + i, ra_PS i. It builds each result when it is
// read, so a result no reader asked for costs nothing.
type cannedRows struct {
	rows   int
	mu     sync.Mutex
	chunks map[string]int // result hash -> chunk
}

func (h *cannedRows) HandleWrite(path string, payload []byte) error {
	p, _ := xrd.SplitQID(path)
	if chunk, err := strconv.Atoi(strings.TrimPrefix(p, "/query2/")); err == nil {
		h.mu.Lock()
		h.chunks[xrd.ResultHash(payload)] = chunk
		h.mu.Unlock()
	}
	return nil
}

func (h *cannedRows) HandleRead(path string) ([]byte, error) {
	p, _ := xrd.SplitQID(path)
	h.mu.Lock()
	chunk := h.chunks[strings.TrimPrefix(p, "/result/")]
	h.mu.Unlock()
	return cannedResult(chunk, h.rows), nil
}

// cannedResult is chunk's result stream of passSQL, rows rows long.
func cannedResult(chunk, rows int) []byte {
	var w dump.Writer
	for i := 0; i < rows; i++ {
		w.BeginRow(2)
		w.Int(0, int64(chunk*rows+i))
		w.Float(1, float64(i))
	}
	return w.Frame("r", sqlengine.Schema{{Name: "objectId", Type: sqlparse.TypeInt}, {Name: "ra_PS", Type: sqlparse.TypeFloat}}, 0)
}

// cannedBatchSize is what one chunk's rows of a cannedCzar weigh in its
// row stream.
func cannedBatchSize(t *testing.T, rows int) int64 {
	t.Helper()
	st, err := dump.Open(cannedResult(0, rows))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := st.Encoded()
	if err != nil {
		t.Fatal(err)
	}
	return b.Size()
}

// cannedCzar is a czar over n chunks whose one worker answers every chunk
// query at once, with rows rows (cannedRows); Close runs at cleanup. It
// also returns passSQL restricted to the middle of its first chunk: a
// pass-through query of a chunk or few.
func cannedCzar(t *testing.T, cfg Config, n, rows int) (*Czar, string) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{NumStripes: 36, NumSubStripesPerStripe: 2, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	all := ch.AllChunks()
	if len(all) < n {
		t.Fatalf("the chunker has %d chunks, the test wants %d", len(all), n)
	}
	red := xrd.NewRedirector()
	placement := meta.NewPlacement()
	keys := []string{"/result"}
	for _, c := range all[:n] {
		placement.Assign(c, "canned")
		keys = append(keys, xrd.QueryPath(int(c)))
	}
	red.Register(xrd.NewLocalEndpoint("canned", &cannedRows{rows: rows, chunks: map[string]int{}}), keys...)
	cz := New(cfg, datagen.LSSTRegistry(ch), meta.NewObjectIndex(), placement, red)
	t.Cleanup(cz.Close)
	b, err := ch.ChunkBounds(all[0])
	if err != nil {
		t.Fatal(err)
	}
	ra, decl := (b.RAMin+b.RAMax)/2, (b.DeclMin+b.DeclMax)/2
	return cz, fmt.Sprintf("%s WHERE qserv_areaspec_box(%g, %g, %g, %g)", passSQL, ra-0.1, decl-0.1, ra+0.1, decl+0.1)
}

// stalledAt submits passSQL, takes its rows without reading one, and waits
// for dispatch to stop where a full stream stops it: every chunk whose rows
// fit in streamBytes is done, and maxParallelDispatch more hold their
// dispatch slots, waiting for room. It checks dispatch stays there.
func stalledAt(t *testing.T, cz *Czar, size int64) (*Query, *RowIter) {
	t.Helper()
	q, err := cz.Submit(context.Background(), passSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := q.Rows()
	bound := maxParallelDispatch + int(streamBytes/size)
	for deadline := time.Now().Add(10 * time.Second); q.Progress().ChunksDispatched < bound; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dispatch stopped at %d chunks, want %d", q.Progress().ChunksDispatched, bound)
		}
	}
	time.Sleep(50 * time.Millisecond)
	p := q.Progress()
	if p.ChunksDispatched != bound || p.Done || p.ChunksTotal <= bound {
		t.Fatalf("a reader that takes nothing: %+v; want dispatch stopped at %d of %d", p, bound, p.ChunksTotal)
	}
	if held := q.stream.held(); held > streamBytes {
		t.Fatalf("the stream holds %d bytes, over its bound of %d", held, streamBytes)
	}
	return q, it
}

// held is what the stream holds that its reader has not taken.
func (s *rowStream) held() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// TestStalledReaderStopsDispatch: a reader that takes nothing stops its
// query's dispatch once the stream is full, with the czar holding at most
// streamBytes plus maxParallelDispatch chunk results of it; reading on
// completes the query, every row arriving once.
func TestStalledReaderStopsDispatch(t *testing.T) {
	const rows = 2000
	size := cannedBatchSize(t, rows)
	chunks := maxParallelDispatch + int(streamBytes/size) + 32
	cz, _ := cannedCzar(t, DefaultConfig("czar-stall"), chunks, rows)
	q, it := stalledAt(t, cz, size)

	seen := make([]bool, chunks*rows)
	n := 0
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		id := row[0].(int64)
		if seen[id] {
			t.Fatalf("row %d arrived twice", id)
		}
		seen[id] = true
		n++
	}
	if it.Err() != nil || n != len(seen) {
		t.Fatalf("read %d rows of %d: %v", n, len(seen), it.Err())
	}
	res, err := q.Wait(context.Background())
	if err != nil || res.ChunksDispatched != chunks || res.Rows != nil {
		t.Fatalf("Wait after Rows: %d chunks, %d rows, %v", res.ChunksDispatched, len(res.Rows), err)
	}
}

// TestWaitDrainsAResultLargerThanTheStream: with no Rows reader, Wait reads
// the stream as the query runs, so a result larger than streamBytes
// completes, and the stream keeps none of what Wait took.
func TestWaitDrainsAResultLargerThanTheStream(t *testing.T) {
	const rows = 8000
	chunks := int(2*streamBytes/cannedBatchSize(t, rows)) + 1
	cz, _ := cannedCzar(t, DefaultConfig("czar-wait"), chunks, rows)
	q, err := cz.Submit(context.Background(), passSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := q.Wait(ctx)
	if err != nil || len(res.Rows) != chunks*rows {
		t.Fatalf("Wait: %d rows of %d, %v", len(res.Rows), chunks*rows, err)
	}
	if held := q.stream.held(); held != 0 {
		t.Errorf("after Wait the stream still holds %d bytes", held)
	}
}

// TestKillUnblocksAFullStream: a KILL of a query whose dispatch waits on a
// full stream ends it within a second, and Close leaves none of its
// goroutines behind.
func TestKillUnblocksAFullStream(t *testing.T) {
	const rows = 2000
	size := cannedBatchSize(t, rows)
	cz, _ := cannedCzar(t, DefaultConfig("czar-kill"), maxParallelDispatch+int(streamBytes/size)+32, rows)
	before := runtime.NumGoroutine()
	q, _ := stalledAt(t, cz, size)
	start := time.Now()
	if _, err := cz.Query(fmt.Sprintf("KILL %d", q.ID())); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := q.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after KILL: %v after %v", err, time.Since(start))
	}
	cz.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the query", runtime.NumGoroutine(), before)
		}
	}
}

// TestStalledReaderHoldsNoMergeGate: with one merge slot czar-wide, a
// second query completes while the first's dispatch waits on its stalled
// reader — the wait holds that query's dispatch slots, never the merge gate.
func TestStalledReaderHoldsNoMergeGate(t *testing.T) {
	const rows = 2000
	size := cannedBatchSize(t, rows)
	cfg := DefaultConfig("czar-gate")
	cfg.MergeParallelism = 1
	chunks := maxParallelDispatch + int(streamBytes/size) + 32
	cz, small := cannedCzar(t, cfg, chunks, rows)
	stalledAt(t, cz, size)
	done := make(chan error, 1)
	go func() {
		res, err := cz.Query(small)
		if err == nil && (res.ChunksDispatched == 0 || len(res.Rows) != res.ChunksDispatched*rows) {
			err = fmt.Errorf("%d rows from %d chunks", len(res.Rows), res.ChunksDispatched)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a second query waited behind a stalled reader")
	}
}

// TestResultCacheTakesNoEntryOverTheStream: the cache fill collects a
// result as it passes and lets go of it past streamBytes, so a repeat of a
// larger pass-through query dispatches again, and one of a smaller query is
// still a hit.
func TestResultCacheTakesNoEntryOverTheStream(t *testing.T) {
	const rows = 8000
	chunks := int(streamBytes/cannedBatchSize(t, rows)) + 2
	cz, small := cannedCzar(t, DefaultConfig("czar-cache"), chunks, rows)
	cz.SetResultCache(qcache.New(1 << 30))
	for _, tc := range []struct {
		sql    string
		cached bool
	}{
		{passSQL, false},
		{small, true},
	} {
		first, err := cz.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		again, err := cz.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if again.CacheHit != tc.cached || len(again.Rows) != len(first.Rows) || first.ChunksDispatched == 0 {
			t.Errorf("%s: %d rows over %d chunks, a repeat hit %v with %d rows; want a hit %v",
				tc.sql, len(first.Rows), first.ChunksDispatched, again.CacheHit, len(again.Rows), tc.cached)
		}
	}
}
