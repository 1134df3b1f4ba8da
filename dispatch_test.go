package qserv

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/xrd"
)

// fabricCount wraps a worker's fabric handler and counts its chunk-query
// transactions: dispatch writes, the chunks they list, and result reads.
// after, when set, runs once a result read has returned — the seam a test
// acts at between two reads.
type fabricCount struct {
	inner  xrd.ContextHandler
	mu     sync.Mutex
	writes int
	listed int
	reads  int
	after  func(reads, listed int)
}

func (f *fabricCount) HandleWrite(path string, data []byte) error {
	return f.HandleWriteContext(context.Background(), path, data)
}

func (f *fabricCount) HandleRead(path string) ([]byte, error) {
	return f.HandleReadContext(context.Background(), path)
}

func (f *fabricCount) HandleWriteContext(ctx context.Context, path string, data []byte) error {
	if strings.HasPrefix(path, "/query2/") {
		h, err := core.ParseHeader(data)
		f.mu.Lock()
		f.writes++
		if err == nil {
			f.listed += max(len(h.Chunks), 1)
		}
		f.mu.Unlock()
	}
	return f.inner.HandleWriteContext(ctx, path, data)
}

func (f *fabricCount) HandleReadContext(ctx context.Context, path string) ([]byte, error) {
	data, err := f.inner.HandleReadContext(ctx, path)
	if strings.HasPrefix(path, "/result/") && err == nil {
		f.mu.Lock()
		f.reads++
		reads, listed, after := f.reads, f.listed, f.after
		f.mu.Unlock()
		if after != nil {
			after(reads, listed)
		}
	}
	return data, err
}

// counts snapshots the counters and zeroes them.
func (f *fabricCount) counts() (writes, listed, reads int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	writes, listed, reads = f.writes, f.listed, f.reads
	f.writes, f.listed, f.reads = 0, 0, 0
	return writes, listed, reads
}

// checkOneDispatchPerWorker runs HV1 and holds every worker to one dispatch
// write listing the chunks it was sent and one read per chunk, the chunks
// listed across workers being the query's.
func checkOneDispatchPerWorker(t *testing.T, cl *Cluster, counters map[string]*fabricCount) {
	t.Helper()
	for _, f := range counters {
		f.counts()
	}
	res, err := cl.Query("SELECT COUNT(*) FROM Object")
	if err != nil {
		t.Fatal(err)
	}
	chunks, written := len(cl.Placement.Chunks()), 0
	if res.ChunksDispatched != chunks {
		t.Fatalf("HV1 dispatched %d chunks of %d", res.ChunksDispatched, chunks)
	}
	for name, f := range counters {
		writes, listed, reads := f.counts()
		if writes > 1 || reads != listed || (writes == 0) != (listed == 0) {
			t.Errorf("worker %s: %d dispatch writes listing %d chunks, %d result reads; want at most one write and a read per chunk", name, writes, listed, reads)
		}
		written += writes
		chunks -= listed
	}
	if chunks != 0 || written < 2 {
		t.Errorf("%d chunks listed by no dispatch, %d dispatch writes", chunks, written)
	}
}

// TestScanIsOneDispatchPerWorker: a full-sky scan is one dispatch write per
// worker, listing the chunks sent there, and one result read per chunk —
// in process and over TCP.
func TestScanIsOneDispatchPerWorker(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 200, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("in process", func(t *testing.T) {
		cfg := DefaultClusterConfig(4)
		cfg.ResultCacheBytes = 0
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
		counters := map[string]*fabricCount{}
		for _, w := range cl.Workers {
			counters[w.Name()] = &fabricCount{inner: w}
			cl.Endpoint(w.Name()).SetHandler(counters[w.Name()])
		}
		checkOneDispatchPerWorker(t, cl, counters)
	})
	t.Run("over TCP", func(t *testing.T) {
		cfg := tcpConfig(2)
		cfg.ResultCacheBytes = 0
		cl, workers, stop := tcpCluster(t, cfg, 3)
		defer stop()
		if err := cl.Load(cat); err != nil {
			t.Fatal(err)
		}
		counters := map[string]*fabricCount{}
		for _, tw := range workers {
			counters[tw.name] = tw.count
		}
		checkOneDispatchPerWorker(t, cl, counters)
	})
}

// TestWorkerDeathAfterKReads: a replicated worker dies after k of the n
// chunks its dispatch listed were read — the seam takes its endpoint down
// as the k-th read returns — and the query sends exactly the n-k unread
// chunks to their replicas: n-k retries, and the oracle's answer.
func TestWorkerDeathAfterKReads(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 7, ObjectsPerPatch: 200, MeanSourcesPerObject: 1},
		datagen.DuplicateConfig{DeclBands: 2, MaxCopies: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := lsstOracle(cat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cfg.Replication = 2
	cfg.ResultCacheBytes = 0
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	const k = 3
	victim := cl.Workers[0].Name()
	seam := &fabricCount{inner: cl.Workers[0]}
	var n int
	seam.after = func(reads, listed int) {
		if reads == k {
			n = listed
			cl.Endpoint(victim).SetDown(true)
		}
	}
	cl.Endpoint(victim).SetHandler(seam)
	const sql = "SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId"
	got, err := cl.Query(sql)
	if err != nil {
		t.Fatalf("a query whose worker died after %d reads: %v", k, err)
	}
	if n <= k {
		t.Fatalf("the victim's dispatch listed %d chunks; the test needs more than %d", n, k)
	}
	if got.Retries != n-k {
		t.Errorf("%d retries, want %d: the %d chunks the dead worker left unread", got.Retries, n-k, n-k)
	}
	want, err := oracle.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want, "after the worker died")
}
