package worker

import (
	"fmt"

	"repro/internal/ingest"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// This file is the worker side of the fabric's /load transaction
// family: /load/spec installs catalog metadata (so a worker learns the
// declarative catalog the czar plans against), and
// /load/t/<table>/<chunk|shared> applies one row batch to a storage unit,
// whose tables — with the director-key hash index, maintained by every
// append, so no second indexing pass runs after ingest finishes — the
// first batch creates (buildUnit over no segments). A batch is decoded
// straight into the tables' columns (appendBatches) and published whole or
// not at all.

// handleLoad processes one /load write transaction.
func (w *Worker) handleLoad(path string, data []byte) error {
	if path == xrd.LoadSpecPath {
		spec, err := ingest.DecodeSpec(data)
		if err != nil {
			return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
		}
		if err := w.registry.ApplySpec(spec); err != nil {
			return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
		}
		// The stored spec is what lets a restarted worker rebuild its
		// chunk tables before any czar re-sends metadata.
		return w.persistSpec(data)
	}
	table, chunk, shared, err := xrd.ParseLoadPath(path)
	if err != nil {
		return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	id, err := w.unitOf(table, chunk, shared)
	if err != nil {
		return fmt.Errorf("worker %s: load: %w", w.cfg.Name, err)
	}
	// One batch applies at a time: lanes of concurrent ingests must not
	// interleave table creation and inserts on the same engine structures.
	w.loadMu.Lock()
	defer w.loadMu.Unlock()
	// Write-pin before touching the engine: appending to an evicted unit
	// must materialize the stored rows first, or the new batch would be
	// resident and the evicted rows only on disk.
	u, err := w.units.pin(id, true)
	if err != nil {
		return fmt.Errorf("worker %s: load %s: %w", w.cfg.Name, id, err)
	}
	defer w.units.unpin(u)
	var tables [2]*sqlengine.Table // a replicated table has no overlap companion: [1] stays nil
	for i, name := range unitTableNames(id) {
		if tables[i], err = w.db.Table(name); err != nil {
			return fmt.Errorf("worker %s: load %s: %w", w.cfg.Name, id, err)
		}
	}
	if err := appendBatches([][]byte{data}, tables[0], tables[1]); err != nil {
		return fmt.Errorf("worker %s: load %s: %w", w.cfg.Name, id, err)
	}
	// Memory first, then disk: the ack a successful return implies must
	// mean both applied and durable. The payload is persisted in wire form,
	// so recovery replays exactly what was loaded.
	if err := w.persistAppend(id, data); err != nil {
		return err
	}
	bytes, _ := w.unitBytes(id)
	w.units.noteWrite(u, bytes)
	return nil
}

// appendBatches decodes encoded batches, in order, into t (their own
// rows) and ov (their overlap rows; nil for a replicated table, which has
// no companion and drops any) without boxing a cell, and publishes both
// appends only once every batch has decoded and converted: a bad batch
// leaves both tables exactly as long as they were. The batch headers'
// row counts size each column once, for all the batches, before the first
// row is decoded.
func appendBatches(batches [][]byte, t, ov *sqlengine.Table) error {
	if ov == nil {
		ov = sqlengine.NewTable(t.Name, t.Schema)
	}
	rows, overlap := t.Appender(), ov.Appender()
	var nRows, nOverlap int
	for _, b := range batches {
		own, over, err := ingest.BatchRows(b)
		if err != nil {
			return err
		}
		nRows, nOverlap = nRows+own, nOverlap+over
	}
	rows.Reserve(nRows)
	overlap.Reserve(nOverlap)
	for _, b := range batches {
		if _, err := ingest.DecodeBatchInto(b, rows, overlap); err != nil {
			return err
		}
	}
	rows.Commit()
	overlap.Commit()
	return nil
}
