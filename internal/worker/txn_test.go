package worker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// countDispatch is a dispatch of a COUNT over the listed chunks, written
// for the first, its i-th listed entry addressed by a hash made of tag
// and i.
func countDispatch(tag string, cut float64, chunks ...partition.ChunkID) core.Dispatch {
	d := core.Dispatch{Class: core.FullScan, Statements: []string{fmt.Sprintf(
		"SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > %v", meta.ChunkTableName("Object", chunks[0]), cut)}}
	for i, c := range chunks {
		d.Chunks = append(d.Chunks, core.DispatchChunk{Chunk: c, Hash: xrd.ResultHash([]byte(fmt.Sprint(tag, i)))})
	}
	return d
}

// blockedWorker is a one-slot worker over n chunks of rows rows whose only
// scan slot a slow job holds until the returned release is called.
func blockedWorker(t *testing.T, cfg Config, n, rows int) (*Worker, []partition.ChunkID, func()) {
	t.Helper()
	cfg.Slots = 1
	w, chunks := loadBigChunks(t, cfg, n, rows)
	slow := make(chan struct{})
	w.Engine().RegisterFunc("test_block", func(args []sqlengine.Value) (sqlengine.Value, error) {
		<-slow
		return args[0], nil
	})
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(0))
	blocker := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_block(zFlux_PS) > 0 LIMIT 1;", meta.ChunkTableName("Object", chunks[0])))
	if err := w.HandleWrite(xrd.QueryPath(int(chunks[0])), blocker); err != nil {
		t.Fatal(err)
	}
	awaitActive(t, w, 1)
	released := false
	return w, chunks, func() {
		if !released {
			released = true
			close(slow)
			if _, err := w.HandleRead(xrd.ResultPath(blocker)); err != nil {
				t.Errorf("the blocker: %v", err)
			}
		}
	}
}

// outstanding counts d's jobs the worker has admitted and nobody has read.
func outstanding(w *Worker, d core.Dispatch) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range d.Chunks {
		if j := w.jobs[jobKey{c.Hash, ""}]; j != nil && j.state != jobPending {
			n++
		}
	}
	return n
}

// TestDispatchWindowBoundsWhatAWorkerHolds: a dispatch's jobs go on the lane
// txnWindow at a time — behind a busy slot the lane holds that many of a
// 3*txnWindow-chunk dispatch — and reading one admits the next in list
// order, until every listed chunk has answered and nothing is held.
func TestDispatchWindowBoundsWhatAWorkerHolds(t *testing.T) {
	w, chunks, release := blockedWorker(t, DefaultConfig("w-window"), 3, 300)
	var listed []partition.ChunkID
	for i := 0; i < 3*txnWindow; i++ {
		listed = append(listed, chunks[i%len(chunks)])
	}
	d := countDispatch("window", 0, listed...)
	if err := w.HandleWrite(xrd.QueryPath(int(listed[0])), d.Payload()); err != nil {
		t.Fatal(err)
	}
	if _, scan := w.QueueLens(); scan != txnWindow || w.HeldJobs() != 1+len(listed) {
		t.Fatalf("behind a busy slot: %d queued and %d held, want %d and %d", scan, w.HeldJobs(), txnWindow, 1+len(listed))
	}
	release()
	for i, c := range d.Chunks {
		data, err := w.HandleRead(xrd.ResultPathOf(c.Hash))
		if err != nil {
			t.Fatalf("listed chunk %d: %v", i, err)
		}
		if got := countResult(t, string(data)); got != 300 {
			t.Errorf("listed chunk %d counts %d rows, want 300", i, got)
		}
		if n := outstanding(w, d); n > txnWindow {
			t.Fatalf("after %d reads %d of the dispatch's jobs are outstanding, over %d", i+1, n, txnWindow)
		}
	}
	if held := w.HeldJobs(); held != 0 {
		t.Errorf("%d jobs held after every result was read", held)
	}
}

// TestDispatchRegistersAllOrNothing: a dispatch registers every listed key
// or none: its own re-delivery finds its jobs, a key another dispatch of
// the query holds or one listed twice refuses the whole write, and a lane
// that fills partway takes back what the write queued.
func TestDispatchRegistersAllOrNothing(t *testing.T) {
	cfg := DefaultConfig("w-all")
	cfg.QueueDepth = 4
	w, chunks, release := blockedWorker(t, cfg, 3, 100)
	defer release()
	write := func(d core.Dispatch) error {
		return w.HandleWrite(xrd.WithQID(xrd.QueryPath(int(d.Chunks[0].Chunk)), "czar-0-1"), d.Payload())
	}
	first := countDispatch("first", 0, chunks...)
	if err := write(first); err != nil {
		t.Fatal(err)
	}
	if err := write(first); err != nil || w.HeldJobs() != 1+len(chunks) {
		t.Fatalf("a re-delivery: %v, %d jobs held; want none and %d", err, w.HeldJobs(), 1+len(chunks))
	}
	clash := countDispatch("clash", 1, chunks[1], chunks[2])
	clash.Chunks[1].Hash = first.Chunks[2].Hash
	twice := countDispatch("twice", 1, chunks[1], chunks[2])
	twice.Chunks[1].Hash = twice.Chunks[0].Hash
	for name, d := range map[string]core.Dispatch{"a held key": clash, "a key listed twice": twice} {
		if err := write(d); err == nil || w.HeldJobs() != 1+len(chunks) {
			t.Errorf("%s: %v, %d jobs held; want a refusal and %d", name, err, w.HeldJobs(), 1+len(chunks))
		}
	}
	var many []partition.ChunkID
	for i := 0; i < 2*cfg.QueueDepth; i++ {
		many = append(many, chunks[i%len(chunks)])
	}
	full := countDispatch("full", 2, many...)
	if err := write(full); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Errorf("a dispatch past the queue: %v, want queue full", err)
	}
	if _, scan := w.QueueLens(); scan != len(chunks) || w.HeldJobs() != 1+len(chunks) {
		t.Errorf("after a refused dispatch %d jobs queued and %d held, want %d and %d", scan, w.HeldJobs(), len(chunks), 1+len(chunks))
	}
	release()
	for _, c := range first.Chunks {
		if _, err := w.HandleRead(xrd.WithQID(xrd.ResultPathOf(c.Hash), "czar-0-1")); err != nil {
			t.Error(err)
		}
	}
	if held := w.HeldJobs(); held != 0 {
		t.Errorf("%d jobs held after every result was read", held)
	}
}

// TestCancelBeforeWriteRegistersNothing: a kill that lands before the
// dispatch write it means — they ride separate connections — leaves the
// write nothing to register, so no job runs for a reader that never comes;
// the dispatch's other chunks are registered as usual.
func TestCancelBeforeWriteRegistersNothing(t *testing.T) {
	w, chunks := loadBigChunks(t, DefaultConfig("w-overtaken"), 2, 100)
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(0))
	const qid = "czar-0-3"
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s;", meta.ChunkTableName("Object", chunks[0])))
	if err := w.HandleWrite(xrd.WithQID(xrd.CancelPath(xrd.ResultHash(payload)), qid), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.WithQID(xrd.QueryPath(int(chunks[0])), qid), payload); err != nil {
		t.Fatal(err)
	}
	if held := w.HeldJobs(); held != 0 {
		t.Fatalf("%d jobs held for a write its kill overtook", held)
	}
	d := countDispatch("overtaken", 0, chunks...)
	if err := w.HandleWrite(xrd.WithQID(xrd.CancelPath(d.Chunks[0].Hash), qid), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.WithQID(xrd.QueryPath(int(chunks[0])), qid), d.Payload()); err != nil {
		t.Fatal(err)
	}
	if held := w.HeldJobs(); held != 1 {
		t.Fatalf("%d jobs held, want the one chunk no kill named", held)
	}
	if _, err := w.HandleRead(xrd.WithQID(xrd.ResultPathOf(d.Chunks[1].Hash), qid)); err != nil {
		t.Error(err)
	}
}

// TestDispatchCopiesRunAtOnce: two jobs of one dispatch that run at the same
// time each compile their statements from the one parse (under -race, the
// proof that preparing and running a statement leaves its syntax tree
// alone), and each answers its own chunk.
func TestDispatchCopiesRunAtOnce(t *testing.T) {
	cfg := DefaultConfig("w-copies")
	cfg.Slots = 2
	w, chunks := loadBigChunks(t, cfg, 2, 400)
	gate := make(chan struct{})
	w.Engine().RegisterFunc("test_slow", func(args []sqlengine.Value) (sqlengine.Value, error) {
		<-gate
		return args[0], nil
	})
	d := countDispatch("copies", 5e-29, chunks...)
	if err := w.HandleWrite(xrd.QueryPath(int(chunks[0])), d.Payload()); err != nil {
		t.Fatal(err)
	}
	awaitActive(t, w, 2)
	time.Sleep(10 * time.Millisecond)
	close(gate)
	for _, c := range d.Chunks {
		data, err := w.HandleRead(xrd.ResultPathOf(c.Hash))
		if err != nil {
			t.Fatal(err)
		}
		if got := countResult(t, string(data)); got != 200 {
			t.Errorf("chunk %d counts %d rows, want 200", c.Chunk, got)
		}
	}
}
