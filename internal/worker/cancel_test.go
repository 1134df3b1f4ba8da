package worker

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// TestCancelQueuedScanJobDequeued kills a job while it waits on the
// scan lane behind a slow scan: the job must leave the queue without
// ever executing, its result read must fail with context.Canceled, and
// the blocking job must be unaffected.
func TestCancelQueuedScanJobDequeued(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 1
	const rows = 4000
	w, chunks := loadBigChunks(t, cfg, 2, rows)
	table := meta.ChunkTableName("Object", chunks[0])

	// Occupy the only scan slot: a query on chunk 0 whose predicate pays
	// per row (~200ms over the table), so it reliably outlives the cancel
	// below.
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(50*time.Microsecond))
	blocker := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > 0;", table))
	if err := w.HandleWrite(xrd.QueryPath(int(chunks[0])), blocker); err != nil {
		t.Fatal(err)
	}
	awaitActive(t, w, 1)

	// The victim queues on the other chunk behind the blocker's gang.
	victim := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 5e-29;",
		meta.ChunkTableName("Object", chunks[1])))
	if err := w.HandleWrite(xrd.QueryPath(int(chunks[1])), victim); err != nil {
		t.Fatal(err)
	}
	if _, scan := w.QueueLens(); scan != 1 {
		t.Fatalf("scan queue len = %d, want 1", scan)
	}
	// A collector blocked on the result (the czar's read transaction)
	// must be released by the cancel with context.Canceled.
	readErr := make(chan error, 1)
	go func() {
		_, err := w.HandleRead(xrd.ResultPath(victim))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the read block on the entry
	hash := xrd.ResultHash(victim)
	if !w.Cancel(hash) {
		t.Fatal("Cancel found no job")
	}
	if _, scan := w.QueueLens(); scan != 0 {
		t.Errorf("canceled job still queued (len %d)", scan)
	}
	select {
	case err := <-readErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("blocked result read error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked result read never released by the cancel")
	}
	// A fresh read finds nothing: the cancel took the job out of the
	// table, so the payload written again re-executes instead of
	// inheriting the dead query's error.
	if _, err := w.HandleRead(xrd.ResultPath(victim)); err == nil {
		t.Error("canceled result still readable")
	}
	if _, err := w.HandleRead(xrd.ResultPath(blocker)); err != nil {
		t.Errorf("blocker failed: %v", err)
	}
	// The victim never consumed a slot: no report exists for it.
	for _, r := range w.Reports() {
		if r.Hash == hash {
			t.Errorf("dequeued job still executed (report %+v)", r)
		}
	}
}

// awaitActive waits until n chunk queries occupy executor slots.
func awaitActive(t *testing.T, w *Worker, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.ActiveJobs() < n {
		if time.Now().After(deadline) {
			t.Fatalf("jobs never started (active=%d, want %d)", w.ActiveJobs(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelRunningScanLeavesGangSibling kills one member of a two-member
// gang mid-scan: the victim's result fails with context.Canceled within
// the engine's interrupt-poll interval of rows, its slot is reclaimed, and
// the gang-mate scanning the same chunk answers exactly.
func TestCancelRunningScanLeavesGangSibling(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 1 // the two must share the one slot: a gang
	const rows, killAt = 4000, 1000
	w, chunks := loadBigChunks(t, cfg, 2, rows)
	table := meta.ChunkTableName("Object", chunks[1])
	survivor := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > 5e-29;", table))
	victim := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_victim(zFlux_PS) > 8e-29;", table))

	// Both pay per row (~200ms over the table). The victim's predicate
	// counts its rows and fires the kill at the killAt-th, so the rows it
	// sees after that are the rows the kill took to land.
	slow := sqlengine.SlowIdentity(50 * time.Microsecond)
	w.Engine().RegisterFunc("test_slow", slow)
	var victimRows atomic.Int64
	killed := make(chan time.Time, 1)
	w.Engine().RegisterFunc("test_victim", func(args []sqlengine.Value) (sqlengine.Value, error) {
		if victimRows.Add(1) == killAt {
			killed <- time.Now()
			if !w.Cancel(xrd.ResultHash(victim)) {
				t.Error("Cancel found no running job")
			}
		}
		return slow(args)
	})
	// A scan of the other chunk holds the slot while the two queue, so one
	// pop takes them together.
	blocker := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > 0;",
		meta.ChunkTableName("Object", chunks[0])))
	if err := w.HandleWrite(xrd.QueryPath(int(chunks[0])), blocker); err != nil {
		t.Fatal(err)
	}
	awaitActive(t, w, 1)
	for _, p := range [][]byte{survivor, victim} {
		if err := w.HandleWrite(xrd.QueryPath(int(chunks[1])), p); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := w.HandleRead(xrd.ResultPath(victim)); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim result error = %v, want context.Canceled", err)
	}
	t0 := <-killed
	// sqlengine's interruptCheckRows: the scan looks at its interrupt on
	// the first of every 512 rows.
	if after := victimRows.Load() - killAt; after > 512 {
		t.Errorf("victim evaluated %d rows after the kill, want <= 512", after)
	}
	// The slot frees long before the victim's scan would have finished.
	deadline := time.Now().Add(5 * time.Second)
	for w.ActiveJobs() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("victim slot never reclaimed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if reclaim := time.Since(t0); reclaim > 2*time.Second {
		t.Errorf("slot reclaim took %v", reclaim)
	}

	stream, err := w.HandleRead(xrd.ResultPath(survivor))
	if err != nil {
		t.Fatalf("survivor failed: %v", err)
	}
	if got := countResult(t, string(stream)); got != rows/2 {
		t.Errorf("survivor count = %d, want %d (the kill reached the gang-mate)", got, rows/2)
	}
	gangJoins := 0
	for _, r := range w.Reports() {
		switch r.Hash {
		case xrd.ResultHash(victim):
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("victim report err = %v, want context.Canceled", r.Err)
			}
		case xrd.ResultHash(survivor):
			if !r.StartedAt.Before(t0) || !r.FinishedAt.After(t0) {
				t.Errorf("survivor ran %v..%v, the kill landed at %v: not mid-scan", r.StartedAt, r.FinishedAt, t0)
			}
		}
		gangJoins += r.ConvoyJoins
	}
	if len(w.Reports()) != 3 || gangJoins != 1 {
		t.Errorf("%d reports, %d gang joins; want 3 and 1: survivor and victim were to start as one gang", len(w.Reports()), gangJoins)
	}
}

// TestCancelQueuedInteractiveSkipped kills an interactive job while it
// waits behind another interactive job: the lane's channel cannot be
// drained surgically, so the executor must skip it when popped.
func TestCancelQueuedInteractiveSkipped(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.InteractiveSlots = 1
	w, chunks := loadBigChunks(t, cfg, 1, 2000)
	chunk := chunks[0]
	table := meta.ChunkTableName("Object", chunk)

	// Two interactive jobs; with one slot they serialize. Cancel the
	// second before the first finishes — a race the state machine must
	// win regardless of which side gets there first.
	first := []byte(fmt.Sprintf("-- CLASS: INTERACTIVE\nSELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 1e-29;", table))
	second := []byte(fmt.Sprintf("-- CLASS: INTERACTIVE\nSELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 2e-29;", table))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), first); err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), second); err != nil {
		t.Fatal(err)
	}
	w.Cancel(xrd.ResultHash(second))
	if _, err := w.HandleRead(xrd.ResultPath(first)); err != nil {
		t.Errorf("first interactive job failed: %v", err)
	}
	if _, err := w.HandleRead(xrd.ResultPath(second)); err == nil {
		t.Error("canceled interactive job delivered a result")
	}
}

// TestCancelUnknownHash is the idempotence contract: canceling a
// finished or never-seen query reports false and breaks nothing.
func TestCancelUnknownHash(t *testing.T) {
	cfg := DefaultConfig("w0")
	w, chunks := loadBigChunks(t, cfg, 1, 100)
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s;",
		meta.ChunkTableName("Object", chunks[0])))
	if err := w.HandleWrite(xrd.QueryPath(int(chunks[0])), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HandleRead(xrd.ResultPath(payload)); err != nil {
		t.Fatal(err)
	}
	if w.Cancel(xrd.ResultHash(payload)) {
		t.Error("finished job reported cancelable")
	}
	if w.Cancel("0123456789abcdef0123456789abcdef") {
		t.Error("unknown hash reported cancelable")
	}
	// The cancel fabric transaction is a no-op for unknown hashes too.
	if err := w.HandleWrite("/cancel/0123456789abcdef0123456789abcdef", nil); err != nil {
		t.Errorf("cancel transaction errored: %v", err)
	}
}

// TestCancelUnregisteredQIDRefused: a qid-carrying cancel whose
// dispatch write never landed here must not end another query's job of
// the same payload — the broadcast-kill safety property.
func TestCancelUnregisteredQIDRefused(t *testing.T) {
	cfg := DefaultConfig("w0")
	w, chunks := loadBigChunks(t, cfg, 1, 4000)
	chunk := chunks[0]
	table := meta.ChunkTableName("Object", chunk)

	payload := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 5e-29;", table))
	// Query B writes the chunk query under its own qid.
	if err := w.HandleWrite(xrd.WithQID(xrd.QueryPath(int(chunk)), "czar-0-7"), payload); err != nil {
		t.Fatal(err)
	}
	hash := xrd.ResultHash(payload)
	// Query A's broadcast cancel arrives, but A never wrote here.
	if err := w.HandleWrite(xrd.WithQID("/cancel/"+hash, "czar-0-4"), nil); err != nil {
		t.Fatal(err)
	}
	// B's job is unharmed and serves the correct result.
	stream, err := w.HandleRead(xrd.WithQID(xrd.ResultPath(payload), "czar-0-7"))
	if err != nil {
		t.Fatalf("innocent query's job was aborted: %v", err)
	}
	if got := countResult(t, string(stream)); got != 2000 {
		t.Errorf("count = %d, want 2000", got)
	}

	// The registered qid's cancel does abort (fresh payload).
	fresh := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 6e-29;", table))
	if err := w.HandleWrite(xrd.WithQID(xrd.QueryPath(int(chunk)), "czar-0-9"), fresh); err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.WithQID("/cancel/"+xrd.ResultHash(fresh), "czar-0-9"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HandleRead(xrd.WithQID(xrd.ResultPath(fresh), "czar-0-9")); err == nil {
		t.Error("the writing query's cancel did not abort the job")
	}
}

// TestKilledQueryKeyIsFree: a kill frees its job's key at once, so the same
// payload written again while the killed job is still unwinding runs
// afresh instead of inheriting the cancellation.
func TestKilledQueryKeyIsFree(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 2
	const rows = 4000
	w, chunks := loadBigChunks(t, cfg, 1, rows)
	chunk := chunks[0]
	table := meta.ChunkTableName("Object", chunk)

	// The predicate pays per row so the victim runs long enough (~100ms).
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(25*time.Microsecond))
	payload := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > 5e-29;", table))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
		t.Fatal(err)
	}
	awaitActive(t, w, 1)
	hash := xrd.ResultHash(payload)
	if !w.Cancel(hash) {
		t.Fatal("Cancel found no job")
	}
	// While the killed job unwinds, the same payload is written again.
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), payload); err != nil {
		t.Fatal(err)
	}
	stream, err := w.HandleRead(xrd.ResultPath(payload))
	if err != nil {
		t.Fatalf("re-submitted query inherited the kill: %v", err)
	}
	if got := countResult(t, string(stream)); got != rows/2 {
		t.Errorf("count = %d, want %d", got, rows/2)
	}
	// Two jobs ran: the killed one and the fresh one.
	for deadline := time.Now().Add(5 * time.Second); w.ActiveJobs() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the killed job never finished")
		}
	}
	canceled, answered := 0, 0
	for _, r := range w.Reports() {
		switch {
		case r.Hash != hash:
		case errors.Is(r.Err, context.Canceled):
			canceled++
		case r.Err == nil:
			answered++
		}
	}
	if canceled != 1 || answered != 1 {
		t.Errorf("%d canceled and %d answered jobs under the key, want 1 and 1", canceled, answered)
	}
}
