package worker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// partitionChunk converts a chunk unit's ID to the partition type.
func partitionChunk(u chunkstore.Unit) partition.ChunkID { return partition.ChunkID(u.Chunk) }

// These tests pin down the residency state machine's boundary behavior:
// pins block eviction, concurrent pins materialize once, a pin arriving
// mid-eviction waits the detach out and rebuilds, and the write paths
// (/load appends) materialize before inserting so no rows are lost.

// residentWorker builds a durable worker holding one loaded chunk and
// returns it with the chunk's Object unit.
func residentWorker(t *testing.T, budget int64, tweak func(*Config)) (*Worker, chunkstore.Unit) {
	t.Helper()
	cfg := DefaultConfig("w-res")
	cfg.DataDir = t.TempDir()
	cfg.MemoryBudgetBytes = budget
	if tweak != nil {
		tweak(&cfg)
	}
	w, chunk := testWorker(t, cfg)
	return w, chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
}

// mustPin pins a unit the worker stores, as a chunk query reading it would.
func mustPin(t *testing.T, w *Worker, id chunkstore.Unit) *unit {
	t.Helper()
	u, err := w.units.pin(id, false)
	if err != nil || u == nil {
		t.Fatalf("pin %s: unit=%v err=%v", id, u, err)
	}
	return u
}

// TestPinBlocksEviction: a pinned unit is never an eviction victim, no
// matter how far over budget the worker is; the release makes it one.
func TestPinBlocksEviction(t *testing.T) {
	w, u := residentWorker(t, 1, nil) // 1 byte: everything unpinned must go
	pinned := mustPin(t, w, u)

	w.units.evictLoop()
	if !w.units.isResident(u) {
		t.Fatal("evictor detached a pinned unit")
	}
	db := w.db
	if !db.HasTable(meta.ChunkTableName("Object", partitionChunk(u))) {
		t.Fatal("chunk table gone while its unit was pinned")
	}

	w.units.unpin(pinned)
	w.units.evictLoop()
	if w.units.isResident(u) {
		t.Fatal("unpinned unit survived an over-budget evict pass")
	}
	if db.HasTable(meta.ChunkTableName("Object", partitionChunk(u))) {
		t.Fatal("chunk table still attached after eviction")
	}
	if st := w.ResidencyStats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
}

// TestQueryAfterEvictionRematerializes: an end-to-end chunk query
// against an evicted unit blocks on materialization inside the
// scheduler (it does not error) and answers exactly as before.
func TestQueryAfterEvictionRematerializes(t *testing.T) {
	w, u := residentWorker(t, 1, nil)
	w.units.evictLoop()
	if w.units.isResident(u) {
		t.Fatal("setup: unit still resident")
	}

	stream := submit(t, w, partitionChunk(u), fmt.Sprintf(
		"SELECT objectId FROM LSST.Object_%d WHERE zFlux_PS > 1e-28;", u.Chunk))
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT COUNT(*) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("rows = %v, want 2 (same answer as before eviction)", res.Rows[0][0])
	}
	if st := w.ResidencyStats(); st.Materializations == 0 {
		t.Fatalf("stats = %+v, want a materialization", st)
	}
}

// TestConcurrentPinsMaterializeOnce: many pins racing for the same
// evicted unit produce exactly one materialization; the losers wait on
// the winner instead of building duplicate tables.
func TestConcurrentPinsMaterializeOnce(t *testing.T) {
	w, u := residentWorker(t, 1, nil)
	w.units.evictLoop()
	before := w.ResidencyStats().Materializations

	// The pins must overlap: each racer holds its pin until every racer
	// has one, so the background evictor cannot slip an eviction (and a
	// legitimate re-materialization) between a release and the next pin.
	const racers = 16
	var pinnedWG, doneWG sync.WaitGroup
	release := make(chan struct{})
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		pinnedWG.Add(1)
		doneWG.Add(1)
		go func() {
			defer doneWG.Done()
			pinned, err := w.units.pin(u, false)
			pinnedWG.Done()
			if err != nil || pinned == nil {
				errs <- fmt.Errorf("pin: unit=%v err=%v", pinned, err)
				return
			}
			<-release
			w.units.unpin(pinned)
		}()
	}
	pinnedWG.Wait()
	if got := w.ResidencyStats().Materializations - before; got != 1 {
		t.Errorf("materializations = %d, want exactly 1", got)
	}
	close(release)
	doneWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPinWaitsOutEviction: a pin arriving while the unit is mid-detach
// blocks until the eviction completes, then re-materializes.
func TestPinWaitsOutEviction(t *testing.T) {
	w, u := residentWorker(t, 0, nil) // lazy-only; eviction is simulated
	// Park the unit in the evicting state by hand — the narrow window a
	// real evictor holds while detaching outside the lock.
	w.units.mu.Lock()
	st := w.units.units[u]
	st.state = unitEvicting
	w.units.mu.Unlock()

	pinned := make(chan error, 1)
	go func() {
		got, err := w.units.pin(u, false)
		if err == nil && got == nil {
			err = fmt.Errorf("pin ignored a tracked unit")
		}
		pinned <- err
	}()
	select {
	case err := <-pinned:
		t.Fatalf("pin completed during eviction (err=%v); want blocked", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Complete the simulated eviction the way evictLoop does.
	w.units.detach(st)
	w.units.mu.Lock()
	st.state = unitOnDisk
	w.units.resident -= st.bytes
	st.bytes = 0
	w.units.cond.Broadcast()
	w.units.mu.Unlock()

	select {
	case err := <-pinned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pin still blocked after eviction completed")
	}
	if !w.units.isResident(u) {
		t.Fatal("unit not resident after pin")
	}
}

// TestAppendToEvictedUnitKeepsRows: a /load append landing on an
// evicted unit must materialize the stored rows first — otherwise the
// create-on-miss ingest path would fork the table and the resident view
// would silently lose everything loaded before the eviction.
func TestAppendToEvictedUnitKeepsRows(t *testing.T) {
	w, u := residentWorker(t, 1, nil)
	w.units.evictLoop()
	if w.units.isResident(u) {
		t.Fatal("setup: unit still resident")
	}

	batch, err := ingest.EncodeBatch(ingest.Batch{Rows: []sqlengine.Row{objectRow(99, partitionChunk(u))}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.LoadPath("Object", u.Chunk), batch); err != nil {
		t.Fatal(err)
	}

	defer w.units.unpin(mustPin(t, w, u))
	tbl, err := w.db.Table(meta.ChunkTableName("Object", partitionChunk(u)))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 {
		t.Fatalf("chunk table has %d rows after append-to-evicted, want 4 (3 loaded + 1 appended)", tbl.Len())
	}
}

// TestEvictionRetiresScannersAndSubchunks: evicting a chunk drops its
// convoy scanner (folding the counters into ScanStats) and its cached
// subchunk tables, so nothing keeps the detached rows reachable.
func TestEvictionRetiresScannersAndSubchunks(t *testing.T) {
	// Budget 0 during setup so the background evictor cannot retire the
	// scanner the moment the setup queries release their pins; the
	// budget is dropped just before the manual evict pass.
	w, u := residentWorker(t, 0, func(cfg *Config) {
		cfg.SharedScans = true
		cfg.CacheSubChunks = true
	})
	chunk := partitionChunk(u)

	// A filtered full scan creates the convoy scanner (a bare COUNT(*)
	// is answered without scanning); a subchunk query populates the
	// subchunk cache.
	submit(t, w, chunk, fmt.Sprintf(
		"SELECT COUNT(*) FROM LSST.Object_%d WHERE zFlux_PS > 0;", chunk))
	subs, err := w.registry.Chunker.AllSubChunks(chunk)
	if err != nil {
		t.Fatal(err)
	}
	sub := subs[0]
	submit(t, w, chunk, fmt.Sprintf("-- SUBCHUNKS: %d\nSELECT COUNT(*) FROM LSST.Object_%d_%d;", sub, chunk, sub))
	if w.ConvoyScanner(meta.ChunkTableName("Object", chunk)) == nil {
		t.Fatal("setup: no convoy scanner after full scan")
	}
	if w.CachedSubchunkCount() == 0 {
		t.Fatal("setup: no cached subchunks")
	}
	statsBefore := w.ScanStats()

	w.units.mu.Lock()
	w.units.budget = 1
	w.units.mu.Unlock()
	w.units.evictLoop()
	if w.units.isResident(u) {
		t.Fatal("unit still resident after evict pass")
	}
	if w.ConvoyScanner(meta.ChunkTableName("Object", chunk)) != nil {
		t.Fatal("convoy scanner survived eviction")
	}
	if w.CachedSubchunkCount() != 0 {
		t.Fatal("cached subchunk tables survived eviction")
	}
	statsAfter := w.ScanStats()
	if statsAfter.BytesRead < statsBefore.BytesRead || statsAfter.Convoys < statsBefore.Convoys {
		t.Fatalf("scan stats went backwards across eviction: %+v -> %+v", statsBefore, statsAfter)
	}
}
