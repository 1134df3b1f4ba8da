package worker

import (
	"fmt"
	"runtime"
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

// TestGangSharesOneMaterialization is the worker's shared scan: full scans of
// one chunk that queue together against an evicted unit start as one gang,
// the unit is read from its segments once for all of them and stays pinned
// while they run, and each ships what it ships alone.
func TestGangSharesOneMaterialization(t *testing.T) {
	cfg := DefaultConfig("w-gang")
	cfg.DataDir = t.TempDir()
	cfg.MemoryBudgetBytes = 1 // everything unpinned goes back to disk
	cfg.Slots = 1
	const rows, gang = 2000, 6
	w, chunks := loadBigChunks(t, cfg, 2, rows)
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(10*time.Microsecond))
	// The chunk gangResults' blocker scans stays resident throughout, so
	// what is counted below is the gang's alone.
	held := mustPin(t, w, chunkstore.Unit{Table: "Object", Chunk: int(chunks[0])})
	defer w.units.unpin(held)
	u := chunkstore.Unit{Table: "Object", Chunk: int(chunks[1])}
	w.units.evictLoop()
	if w.units.isResident(u) {
		t.Fatal("setup: unit still resident")
	}
	var payloads []string
	for k := 1; k <= gang; k++ {
		payloads = append(payloads, fmt.Sprintf("SELECT objectId, zFlux_PS FROM LSST.%s WHERE test_slow(zFlux_PS) > %d.5e-29;",
			meta.ChunkTableName("Object", chunks[1]), k))
	}
	mat0, read0 := w.ResidencyStats().Materializations, w.ScanStats().BytesRead
	together := gangResults(t, w, chunks[0], chunks[1], payloads)
	mats, read := w.ResidencyStats().Materializations-mat0, w.ScanStats().BytesRead-read0
	if mats != 1 {
		t.Errorf("materializations = %d, want 1 for the %d-member gang", mats, gang)
	}
	pinned := mustPin(t, w, u)
	if read != pinned.bytes || read == 0 {
		t.Errorf("bytes read = %d, want the unit's %d once", read, pinned.bytes)
	}
	w.units.unpin(pinned)
	for i, p := range payloads {
		if alone := submit(t, w, chunks[1], p); alone != together[i] {
			t.Errorf("%s:\n in a gang %q\n alone     %q", p, together[i], alone)
		}
	}
}

// TestFullScanStartsNoGoroutine: a full-scan job reads the chunk's columns
// in the goroutine that executes it — nothing is started, nothing is handed
// over — so an idle worker has as many goroutines after one as before.
func TestFullScanStartsNoGoroutine(t *testing.T) {
	w, chunks := loadBigChunks(t, DefaultConfig("w0"), 1, 2000)
	table := meta.ChunkTableName("Object", chunks[0])
	during := 0
	w.Engine().RegisterFunc("test_goroutines", func(args []sqlengine.Value) (sqlengine.Value, error) {
		during = max(during, runtime.NumGoroutine())
		return args[0], nil
	})
	// Warm up whatever starts lazily, then settle.
	submit(t, w, chunks[0], fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 1e-29;", table))
	before := runtime.NumGoroutine()
	submit(t, w, chunks[0], fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_goroutines(zFlux_PS) > 2e-29;", table))
	// The scan executor starts one goroutine per gang member; the scan adds
	// none to it.
	if during > before+1 {
		t.Errorf("%d goroutines mid-scan, %d on the idle worker: a full scan started %d beyond its gang member's", during, before, during-before-1)
	}
	// The read returns once the outcome is published, which can be just
	// before the member's goroutine exits: wait for it, not for a leak.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after a full-scan job, %d before", after, before)
	}
}

// TestGangHoldsPinsUntilLastMemberLeaves: what a gang's members pinned stays
// pinned — not evictable, whatever the budget — until the last member is
// done, so a member slow to start finds the unit its gang-mate built.
func TestGangHoldsPinsUntilLastMemberLeaves(t *testing.T) {
	w, u := residentWorker(t, 1, nil)
	g := &gang{running: 2}
	g.leave(w, []tableUse{{id: u, unit: mustPin(t, w, u)}})
	w.units.evictLoop()
	if !w.units.isResident(u) {
		t.Fatal("unit evicted while a member of the gang that pinned it had yet to run")
	}
	g.leave(w, nil) // a member canceled before it began
	w.units.evictLoop()
	if w.units.isResident(u) {
		t.Fatal("unit still pinned after the gang's last member left")
	}
}
