package worker

import (
	"encoding/json"
	"fmt"

	"repro/internal/chunkstore"
	"repro/internal/ingest"
	"repro/internal/meta"
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
	w.mu.Lock()
	active := w.active
	chunks := len(w.chunks)
	w.mu.Unlock()
	out, _ := json.Marshal(xrd.PingStatus{
		Worker: w.cfg.Name, Active: active, Queued: w.QueueLen(),
		Chunks: chunks, Resident: w.ResidencyStats().Resident,
	}) // a struct of strings and ints cannot fail to marshal
	return out
}

// exportRepl serves a /repl read: the chunk table's rows plus its
// overlap companion's (or a replicated table's full row set), framed as
// a checksummed segment stream (ingest.EncodeSegments). A durable
// worker ships its stored segment files verbatim — verified bytes move,
// nothing is re-encoded from row structures — while an in-memory worker
// encodes its rows as a single segment. Exports are deterministic
// either way, so the replication manager verifies a copy by
// re-exporting from the target and comparing bytes (clusters are
// uniformly durable or uniformly in-memory, so source and target frame
// identically).
func (w *Worker) exportRepl(path string) ([]byte, error) {
	table, chunk, shared, err := xrd.ParseReplPath(path)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	info, err := w.registry.Table(table)
	if err != nil {
		return nil, fmt.Errorf("worker %s: repl export: %w", w.cfg.Name, err)
	}
	if w.registry.Ingesting(info.Name) {
		return nil, fmt.Errorf("worker %s: repl export: table %s has an ingest in flight", w.cfg.Name, info.Name)
	}
	// loadMu excludes concurrent /load and /repl writes, so the row
	// slices (and stored segments) are stable while the export encodes.
	w.loadMu.Lock()
	defer w.loadMu.Unlock()

	unit := chunkstore.Unit{Table: info.Name, Shared: shared}
	if !shared {
		unit.Chunk = chunk
	}
	if w.store != nil && w.store.Has(unit) {
		segs, err := w.store.Segments(unit)
		if err != nil {
			return nil, fmt.Errorf("worker %s: repl export %s: %w", w.cfg.Name, unit, err)
		}
		return ingest.EncodeSegments(segs), nil
	}

	db, err := w.engine.Database(w.registry.DB)
	if err != nil {
		return nil, err
	}
	var b ingest.Batch
	if shared {
		t, err := db.Table(info.Name)
		if err != nil {
			return nil, fmt.Errorf("worker %s: repl export %s: %w", w.cfg.Name, info.Name, err)
		}
		b.Rows = boxedRows(t)
	} else {
		cid := partition.ChunkID(chunk)
		t, err := db.Table(meta.ChunkTableName(info.Name, cid))
		if err != nil {
			return nil, fmt.Errorf("worker %s: repl export %s chunk %d: %w", w.cfg.Name, info.Name, chunk, err)
		}
		b.Rows = boxedRows(t)
		if ov, err := db.Table(meta.OverlapTableName(info.Name, cid)); err == nil {
			b.Overlap = boxedRows(ov)
		}
	}
	data, err := ingest.EncodeBatch(b)
	if err != nil {
		return nil, fmt.Errorf("worker %s: repl export %s: %w", w.cfg.Name, info.Name, err)
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
// same incremental path ingest uses. Replacement makes the transaction
// idempotent: a repair retried after a torn copy converges instead of
// appending duplicates.
func (w *Worker) installRepl(path string, data []byte) error {
	table, chunk, shared, err := xrd.ParseReplPath(path)
	if err != nil {
		return fmt.Errorf("worker %s: %w", w.cfg.Name, err)
	}
	info, err := w.registry.Table(table)
	if err != nil {
		return fmt.Errorf("worker %s: repl install: %w", w.cfg.Name, err)
	}
	// Segment-framed payloads (the current export format) carry one or
	// more checksummed batch payloads; a bare batch is still accepted so
	// hand-rolled installs keep working.
	var segs [][]byte
	if ingest.IsSegments(data) {
		segs, err = ingest.DecodeSegments(data)
		if err != nil {
			return fmt.Errorf("worker %s: repl install %s: %w", w.cfg.Name, table, err)
		}
	} else {
		segs = [][]byte{data}
	}
	w.loadMu.Lock()
	defer w.loadMu.Unlock()
	db, err := w.engine.Database(w.registry.DB)
	if err != nil {
		return err
	}

	if shared {
		if info.Partitioned {
			return fmt.Errorf("worker %s: repl install: table %s is partitioned; install it by chunk", w.cfg.Name, info.Name)
		}
		u := chunkstore.Unit{Table: info.Name, Shared: true}
		if w.res != nil {
			// Latch against the evictor for the install; the deferred
			// settle charges the fresh tables' bytes.
			w.res.lockReplace(u)
			defer func() { w.res.finishReplace(u, w.unitResidentBytes(db, u)) }()
		}
		t, err := info.NewIngestTable(info.Name)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			if err := appendBatch(seg, t, nil); err != nil {
				return fmt.Errorf("worker %s: repl install %s: %w", w.cfg.Name, info.Name, err)
			}
		}
		db.Put(t)
		return w.persistReplace(u, segs)
	}

	if !info.Partitioned {
		return fmt.Errorf("worker %s: repl install: table %s is not partitioned; use the shared path", w.cfg.Name, info.Name)
	}
	cid := partition.ChunkID(chunk)
	u := chunkstore.Unit{Table: info.Name, Chunk: chunk}
	if w.res != nil {
		w.res.lockReplace(u)
		defer func() { w.res.finishReplace(u, w.unitResidentBytes(db, u)) }()
	}
	t, err := info.NewIngestTable(meta.ChunkTableName(info.Name, cid))
	if err != nil {
		return err
	}
	ov := sqlengine.NewTable(meta.OverlapTableName(info.Name, cid), info.Schema)
	for _, seg := range segs {
		if err := appendBatch(seg, t, ov); err != nil {
			return fmt.Errorf("worker %s: repl install %s chunk %d: %w", w.cfg.Name, info.Name, chunk, err)
		}
	}
	// Publish both tables only after every segment applied, so a bad
	// batch cannot leave a half-replaced chunk.
	db.Put(t)
	db.Put(ov)
	if err := w.persistReplace(u, segs); err != nil {
		return err
	}
	w.mu.Lock()
	w.chunks[cid] = true
	w.mu.Unlock()
	return nil
}
