package qcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
)

func row(vs ...any) sqlengine.Row { return sqlengine.Row(vs) }

func smallResult(n int) Result {
	res := Result{Cols: []string{"a"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, row(int64(i)))
	}
	return res
}

func TestHitMissAndCounters(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("k", 1, "t=1;"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", 1, "t=1;", smallResult(3))
	res, ok := c.Get("k", 1, "t=1;")
	if !ok || len(res.Rows) != 3 {
		t.Fatalf("hit = %v, rows = %d", ok, len(res.Rows))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStampMismatchInvalidates(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", 1, "t=1;", smallResult(1))

	// A moved placement epoch invalidates.
	if _, ok := c.Get("k", 2, "t=1;"); ok {
		t.Fatal("stale epoch served")
	}
	// The entry is gone, not just skipped: the old stamp misses too.
	if _, ok := c.Get("k", 1, "t=1;"); ok {
		t.Fatal("invalidated entry resurrected")
	}

	// A moved ingest generation invalidates likewise.
	c.Put("k", 2, "t=1;", smallResult(1))
	if _, ok := c.Get("k", 2, "t=2;"); ok {
		t.Fatal("stale ingest generation served")
	}

	st := c.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
	if st.Entries != 0 {
		t.Fatalf("entries = %d after invalidations", st.Entries)
	}
	if st.Epoch != 2 {
		t.Fatalf("epoch horizon = %d, want 2", st.Epoch)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	one := estimateBytes(smallResult(4))
	c := New(3 * one)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, "", smallResult(4))
	}
	// Touch k0 so k1 is the LRU victim when k3 arrives.
	if _, ok := c.Get("k0", 1, ""); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", 1, "", smallResult(4))

	if _, ok := c.Get("k1", 1, ""); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k, 1, ""); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestEncodedEntryChargedItsBytes: an entry given as encoded batches —
// the form the czar stores — comes back as those batches and costs what
// they hold, however many cells that is.
func TestEncodedEntryChargedItsBytes(t *testing.T) {
	boxed := smallResult(100)
	batch, err := rowcodec.EncodeBatch(boxed.Rows)
	if err != nil {
		t.Fatal(err)
	}
	c := New(1 << 20)
	c.Put("k", 1, "", Result{Cols: boxed.Cols, Batches: []rowcodec.Batch{batch}})
	res, ok := c.Get("k", 1, "")
	if !ok || res.Rows != nil || len(res.Batches) != 1 || res.Batches[0].Len() != 100 {
		t.Fatalf("hit = %v: %d boxed rows, %d batches", ok, len(res.Rows), len(res.Batches))
	}
	empty := estimateBytes(Result{Cols: boxed.Cols})
	if got, want := c.Stats().Bytes, empty+batch.Size(); got != want {
		t.Errorf("entry charged %d bytes, its batch holds %d beside %d of overhead", got, batch.Size(), empty)
	}
	if c.Stats().Bytes >= estimateBytes(boxed) {
		t.Errorf("100 encoded rows charged %d bytes, boxed they are estimated at %d", c.Stats().Bytes, estimateBytes(boxed))
	}
}

func TestOversizeResultNotCached(t *testing.T) {
	c := New(64) // smaller than any entry's fixed overhead
	c.Put("big", 1, "", smallResult(1000))
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize result cached: %+v", st)
	}
}

func TestReplaceSameKey(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", 1, "", smallResult(1))
	c.Put("k", 1, "", smallResult(5))
	res, ok := c.Get("k", 1, "")
	if !ok || len(res.Rows) != 5 {
		t.Fatalf("replacement lost: ok=%v rows=%d", ok, len(res.Rows))
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate entries for one key: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				c.Put(k, int64(i%3), "g", smallResult(2))
				c.Get(k, int64(i%3), "g")
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget violated under concurrency: %+v", st)
	}
}
