package worker

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/ingest"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// This file is the worker side of the fabric's availability
// transactions. /ping answers the czar-side failure detector with a
// tiny status document, straight from the handler entry (deliberately
// independent of the scan lanes: a worker drowning in queued scans is
// busy, not dead). The /repl family moves chunk replicas between
// workers for self-healing: a read exports a chunk's tables as one
// encoded ingest batch, a write installs such a batch with replace
// semantics — drop-and-recreate, director-key index rebuilt by the
// same incremental path ingest uses — so a torn repair simply retries
// without duplicating rows.

// pingStatus renders the /ping response.
func (w *Worker) pingStatus() []byte {
	out, _ := json.Marshal(xrd.PingStatus{
		Worker: w.cfg.Name, Active: w.ActiveJobs(), Queued: w.QueueLen(),
		Chunks: len(w.Chunks()), Resident: w.ResidencyStats().Resident,
	}) // a struct of strings and ints cannot fail to marshal
	return out
}

// inventoryStatus renders the /inventory response: the chunks this
// worker actually holds, and those of them with a resident unit, both
// sorted (see xrd.Inventory).
func (w *Worker) inventoryStatus() []byte {
	sorted := func(chunks []partition.ChunkID) []int {
		out := make([]int, len(chunks))
		for i, c := range chunks {
			out[i] = int(c)
		}
		sort.Ints(out)
		return out
	}
	out, _ := json.Marshal(xrd.Inventory{
		Worker:   w.cfg.Name,
		Chunks:   sorted(w.Chunks()),
		Resident: sorted(w.units.chunks((*unit).resident)),
	})
	return out
}

// exportRepl serves a /repl read: the chunk table's rows plus its
// overlap companion's (or a replicated table's full row set), framed as
// a checksummed segment stream (ingest.EncodeSegments). A durable
// worker ships its stored frame payloads verbatim — verified bytes move,
// nothing is re-encoded from row structures — while an in-memory worker
// encodes its rows as a single segment. Exports are deterministic
// either way, so the replication manager verifies a copy by
// re-exporting from the target and comparing bytes (clusters are
// uniformly durable or uniformly in-memory, so source and target frame
// identically). Nothing here asks whether the table is mid-ingest: that
// gate is the czar's, which copies only tables whose ingest completed.
func (w *Worker) exportRepl(path string) ([]byte, error) {
	table, chunk, shared, err := xrd.ParseReplPath(path)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	id, err := w.unitOf(table, chunk, shared)
	if err != nil {
		return nil, fmt.Errorf("worker %s: repl export: %w", w.cfg.Name, err)
	}
	// loadMu excludes concurrent /load and /repl writes, so the row
	// slices (and stored segments) are stable while the export encodes.
	w.loadMu.Lock()
	defer w.loadMu.Unlock()

	if w.store != nil && w.store.Has(id) {
		segs, err := w.store.Segments(id)
		if err != nil {
			return nil, fmt.Errorf("worker %s: repl export %s: %w", w.cfg.Name, id, err)
		}
		return ingest.EncodeSegments(segs), nil
	}

	names := unitTableNames(id)
	t, err := w.db.Table(names[0])
	if err != nil {
		return nil, fmt.Errorf("worker %s: repl export %s: %w", w.cfg.Name, id, err)
	}
	b := ingest.Batch{Rows: boxedRows(t)}
	if !id.Shared {
		if ov, err := w.db.Table(names[1]); err == nil {
			b.Overlap = boxedRows(ov)
		}
	}
	data, err := ingest.EncodeBatch(b)
	if err != nil {
		return nil, fmt.Errorf("worker %s: repl export %s: %w", w.cfg.Name, id, err)
	}
	return ingest.EncodeSegments([][]byte{data}), nil
}

// boxedRows boxes a table's rows for the batch encoder: the export of an
// in-memory worker, which has no stored segments to ship.
func boxedRows(t *sqlengine.Table) []sqlengine.Row {
	rows := make([]sqlengine.Row, t.Len())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// installRepl serves a /repl write: it replaces the chunk table and its
// overlap companion (or a replicated table) with the batch's rows,
// rebuilding the director-key and declared hash indexes through the
// same build ingest and materialization use. Replacement makes the
// transaction idempotent: a repair retried after a torn copy converges
// instead of appending duplicates.
func (w *Worker) installRepl(path string, data []byte) error {
	table, chunk, shared, err := xrd.ParseReplPath(path)
	if err != nil {
		return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	id, err := w.unitOf(table, chunk, shared)
	if err != nil {
		return fmt.Errorf("worker %s: repl install: %w", w.cfg.Name, err)
	}
	// Segment-framed payloads (the current export format) carry one or
	// more checksummed batch payloads; a bare batch is still accepted so
	// hand-rolled installs keep working.
	segs := [][]byte{data}
	if ingest.IsSegments(data) {
		if segs, err = ingest.DecodeSegments(data); err != nil {
			return fmt.Errorf("worker %s: repl install %s: %w", w.cfg.Name, id, err)
		}
	}
	w.loadMu.Lock()
	defer w.loadMu.Unlock()
	// Latch against the evictor for the install; the settle charges the
	// fresh tables' bytes.
	u := w.units.lockReplace(id)
	if err = w.buildUnit(id, segs); err != nil {
		err = fmt.Errorf("worker %s: repl install %s: %w", w.cfg.Name, id, err)
	} else {
		err = w.persistReplace(id, segs)
	}
	w.units.finishReplace(u, err == nil)
	return err
}
