package qserv

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
)

// stalledHeap loads a catalog of copies patch copies of objects objects
// each on a 4-worker cluster, takes the rows of a full-table pass-through
// scan, reads one and stalls, and returns the answer's rows and how much
// the process heap grew from before the query to the stall, after a GC.
// The stall is where collection settles: no chunk completes and no worker
// runs or queues a job for a while.
func stalledHeap(t *testing.T, objects, copies int) (rows int64, perWorker int, grew int64) {
	t.Helper()
	t.Setenv("QSERV_DATADIR", "")
	t.Setenv("QSERV_MEMBUDGET", "")
	cat, err := datagen.Generate(
		datagen.Config{Seed: 11, ObjectsPerPatch: objects, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: copies},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows = int64(len(cat.Objects))
	cfg := DefaultClusterConfig(4)
	cfg.ResultCacheBytes = 0
	cfg.Partition.NumStripes, cfg.Partition.NumSubStripesPerStripe = 36, 2 // small chunks, many a worker
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	perWorker = len(cl.Placement.Chunks()) / len(cl.Workers)
	cat = nil
	var before, at runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, err := cl.Submit(ctx, "SELECT * FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Cancel()
	it := q.Rows()
	if _, ok := it.Next(); !ok {
		t.Fatalf("no first row: %v", it.Err())
	}
	busy := func() bool {
		for _, w := range cl.Workers {
			if w.ActiveJobs() > 0 || w.QueueLen() > 0 {
				return true
			}
		}
		return false
	}
	for last, quiet := int64(-1), 0; quiet < 10; time.Sleep(10 * time.Millisecond) {
		p := q.Progress()
		if p.Done {
			t.Fatalf("the query finished under a stalled reader: %+v", p)
		}
		if done := int64(p.ChunksCompleted); done == last && !busy() {
			quiet++
		} else {
			last, quiet = done, 0
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&at)
	return rows, perWorker, int64(at.HeapAlloc) - int64(before.HeapAlloc)
}

// TestStalledClientHeapIsBounded: a client that takes a pass-through
// answer's rows, reads one and stalls holds the czar's row stream
// (streamBytes) and, per worker, a dispatch's window of chunk results — not
// the answer. Four times the answer, over four times the chunks of the same
// size, must not grow the heap at the stall by as much as twice.
func TestStalledClientHeapIsBounded(t *testing.T) {
	smallRows, _, small := stalledHeap(t, 4000, 20)
	bigRows, perWorker, big := stalledHeap(t, 4000, 80)
	t.Logf("stalled on %d rows: heap +%.1f MB; on %d rows, %d chunks a worker: +%.1f MB", smallRows, float64(small)/1e6, bigRows, perWorker, float64(big)/1e6)
	if bigRows < 3*smallRows || perWorker <= 16 {
		t.Fatalf("answers of %d and %d rows, %d chunks a worker: the test needs more than a dispatch's window", smallRows, bigRows, perWorker)
	}
	if big > 2*small {
		t.Errorf("a stalled client holds %.1f MB of a %d-row answer and %.1f MB of a %d-row one: the heap follows the answer",
			float64(big)/1e6, bigRows, float64(small)/1e6, smallRows)
	}
}
