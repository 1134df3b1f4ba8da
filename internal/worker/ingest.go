package worker

import (
	"fmt"

	"repro/internal/chunkstore"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// This file is the worker side of the fabric's /load transaction
// family: /load/spec installs catalog metadata (so an out-of-process
// worker learns the same declarative catalog the czar plans against),
// and /load/t/<table>/<chunk|shared> applies one row batch. Chunk
// tables, their overlap companions, and the director-key hash index
// are built incrementally: the index is created with the (empty) table
// and maintained by every append, so no second indexing pass runs after
// ingest finishes. A batch is decoded straight into the tables' columns
// (appendBatch) and published whole or not at all.

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
	info, err := w.registry.Table(table)
	if err != nil {
		return fmt.Errorf("worker %s: load: %w", w.cfg.Name, err)
	}
	// One batch applies at a time: lanes of concurrent ingests (and the
	// shared- vs chunk-table paths) must not interleave table creation
	// and inserts on the same engine structures.
	w.loadMu.Lock()
	defer w.loadMu.Unlock()
	db, err := w.engine.Database(w.registry.DB)
	if err != nil {
		return err
	}

	if shared {
		if info.Partitioned {
			return fmt.Errorf("worker %s: table %s is partitioned; load it by chunk", w.cfg.Name, info.Name)
		}
		u := chunkstore.Unit{Table: info.Name, Shared: true}
		// Write-pin before touching the engine: appending to an evicted
		// unit must materialize the stored rows first, or ingestTable's
		// create-on-miss would silently fork the table — the new batch
		// resident, the evicted rows only on disk.
		if w.res != nil {
			if _, err := w.res.pinWrite(u); err != nil {
				return fmt.Errorf("worker %s: load %s: %w", w.cfg.Name, info.Name, err)
			}
			defer w.res.unpin(u)
		}
		t, err := w.ingestTable(db, info.Name, info)
		if err != nil {
			return err
		}
		if err := appendBatch(data, t, nil); err != nil {
			return fmt.Errorf("worker %s: load %s: %w", w.cfg.Name, info.Name, err)
		}
		// Memory first, then disk: the ack a successful return implies
		// must mean both applied and durable. The payload is persisted in
		// wire form, so recovery replays exactly what was loaded.
		if err := w.persistAppend(u, data); err != nil {
			return err
		}
		if w.res != nil {
			w.res.noteBytes(u, w.unitResidentBytes(db, u))
		}
		return nil
	}

	if !info.Partitioned {
		return fmt.Errorf("worker %s: table %s is not partitioned; use the shared load path", w.cfg.Name, info.Name)
	}
	cid := partition.ChunkID(chunk)
	u := chunkstore.Unit{Table: info.Name, Chunk: chunk}
	if w.res != nil {
		if _, err := w.res.pinWrite(u); err != nil {
			return fmt.Errorf("worker %s: load %s chunk %d: %w", w.cfg.Name, info.Name, chunk, err)
		}
		defer w.res.unpin(u)
	}
	t, err := w.ingestTable(db, meta.ChunkTableName(info.Name, cid), info)
	if err != nil {
		return err
	}
	ov, err := w.ingestOverlapTable(db, meta.OverlapTableName(info.Name, cid), info)
	if err != nil {
		return err
	}
	if err := appendBatch(data, t, ov); err != nil {
		return fmt.Errorf("worker %s: load %s chunk %d: %w", w.cfg.Name, info.Name, chunk, err)
	}
	if err := w.persistAppend(u, data); err != nil {
		return err
	}
	if w.res != nil {
		w.res.noteBytes(u, w.unitResidentBytes(db, u))
	}
	w.mu.Lock()
	w.chunks[cid] = true
	w.mu.Unlock()
	return nil
}

// appendBatch decodes one encoded batch into t (its own rows) and ov (its
// overlap rows; nil for a replicated table, which has no companion and
// drops any) without boxing a cell, and publishes both appends only once
// the whole batch has decoded and converted: a bad batch leaves both
// tables exactly as long as they were.
func appendBatch(data []byte, t, ov *sqlengine.Table) error {
	if ov == nil {
		ov = sqlengine.NewTable(t.Name, t.Schema)
	}
	rows, overlap := t.Appender(), ov.Appender()
	if _, err := ingest.DecodeBatchInto(data, rows, overlap); err != nil {
		return err
	}
	rows.Commit()
	overlap.Commit()
	return nil
}

// ingestTable returns the named table, creating it (with the director
// key and any declared index columns hash-indexed) on first use.
func (w *Worker) ingestTable(db *sqlengine.Database, name string, info *meta.TableInfo) (*sqlengine.Table, error) {
	if t, err := db.Table(name); err == nil {
		return t, nil
	}
	t, err := info.NewIngestTable(name)
	if err != nil {
		return nil, err
	}
	db.Put(t)
	return t, nil
}

// ingestOverlapTable returns a chunk's overlap companion, creating it
// unindexed on first use (overlap tables are scanned, not dived into).
func (w *Worker) ingestOverlapTable(db *sqlengine.Database, name string, info *meta.TableInfo) (*sqlengine.Table, error) {
	if t, err := db.Table(name); err == nil {
		return t, nil
	}
	t := sqlengine.NewTable(name, info.Schema)
	db.Put(t)
	return t, nil
}
