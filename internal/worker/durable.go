package worker

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/chunkstore"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// This file is the worker side of durability: opening the chunk store,
// recovering its inventory at startup, mirroring every applied
// mutation into the store, and answering the repairer's /inventory
// audit. An in-memory worker (no DataDir) has a nil store and every
// persist call is a no-op.

// openStore opens the worker's durable chunk store (replaying its WAL)
// and recovers the inventory from what survived on disk. Called from
// New, before the executors start.
func (w *Worker) openStore() error {
	st, rec, err := chunkstore.Open(w.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("worker %s: open chunk store: %w", w.cfg.Name, err)
	}
	// The residency manager needs the store for first-touch
	// materialization, so it is wired before recovery registers units.
	w.store = st
	if err := w.recoverFromStore(st, rec); err != nil {
		w.store = nil
		st.Close()
		return fmt.Errorf("worker %s: recover chunk store: %w", w.cfg.Name, err)
	}
	return nil
}

// recoverFromStore recovers inventory only: the catalog spec is
// re-declared and every verified unit is registered with the residency
// manager as on-disk, but no engine tables are built — first touch
// (query, /load append, /repl export, repair heal) pays
// materialization. That keeps restart-to-serving independent of the
// data volume and never wastes table builds on units about to be
// quarantined or re-homed. Quarantined units (checksum failures) taint
// their chunk: the chunk is not reported in the worker's inventory, so
// the repairer re-ships it whole from a live replica — recovery serves
// what verified, repair replaces what did not.
func (w *Worker) recoverFromStore(st *chunkstore.Store, rec *chunkstore.Recovery) error {
	if data, ok := st.Spec(); ok {
		spec, err := ingest.DecodeSpec(data)
		if err != nil {
			return fmt.Errorf("stored catalog spec: %w", err)
		}
		// Re-declare only if the registry is missing any of the stored
		// tables: a standalone worker restarting alone needs the spec,
		// while an in-process restart shares a live registry whose
		// metadata must not be replaced under concurrent planners.
		missing := false
		for _, t := range spec.Tables {
			if _, err := w.registry.Table(t.Name); err != nil {
				missing = true
				break
			}
		}
		if missing {
			if err := w.registry.ApplySpec(spec); err != nil {
				return fmt.Errorf("stored catalog spec: %w", err)
			}
		}
	}
	tainted := map[partition.ChunkID]bool{}
	for _, u := range rec.Quarantined {
		if !u.Shared {
			tainted[partition.ChunkID(u.Chunk)] = true
		}
	}
	for _, ru := range rec.Units {
		// The registry lookup keeps recovery's failure surface: a unit
		// whose table the catalog no longer declares fails startup here,
		// not on some later query.
		if _, err := w.registry.Table(ru.Unit.Table); err != nil {
			return fmt.Errorf("recovered unit %s: %w", ru.Unit, err)
		}
		w.res.trackOnDisk(ru.Unit)
		if !ru.Unit.Shared && !tainted[partition.ChunkID(ru.Unit.Chunk)] {
			w.mu.Lock()
			w.chunks[partition.ChunkID(ru.Unit.Chunk)] = true
			w.mu.Unlock()
		}
	}
	return nil
}

// installUnit rebuilds one unit's tables by replaying its segments (in
// application order) through the same append path ingest uses — segment
// bytes to column slices, no row in between — so indexes come back
// identical.
func (w *Worker) installUnit(db *sqlengine.Database, info *meta.TableInfo, u chunkstore.Unit, segments [][]byte) error {
	if u.Shared {
		if info.Partitioned {
			return fmt.Errorf("table is partitioned but stored as shared")
		}
		t, err := info.NewIngestTable(info.Name)
		if err != nil {
			return err
		}
		for _, seg := range segments {
			if err := appendBatch(seg, t, nil); err != nil {
				return err
			}
		}
		db.Put(t)
		return nil
	}
	if !info.Partitioned {
		return fmt.Errorf("table is not partitioned but stored by chunk")
	}
	cid := partition.ChunkID(u.Chunk)
	t, err := info.NewIngestTable(meta.ChunkTableName(info.Name, cid))
	if err != nil {
		return err
	}
	ov := sqlengine.NewTable(meta.OverlapTableName(info.Name, cid), info.Schema)
	for _, seg := range segments {
		if err := appendBatch(seg, t, ov); err != nil {
			return err
		}
	}
	db.Put(t)
	db.Put(ov)
	return nil
}

// persistAppend mirrors one applied batch payload (already in wire
// form) into the store; no-op without one.
func (w *Worker) persistAppend(u chunkstore.Unit, payload []byte) error {
	if w.store == nil {
		return nil
	}
	if err := w.store.Append(u, payload); err != nil {
		return fmt.Errorf("worker %s: persist %s: %w", w.cfg.Name, u, err)
	}
	return nil
}

// persistReplace mirrors a replace-semantics install (/repl) into the
// store; no-op without one.
func (w *Worker) persistReplace(u chunkstore.Unit, payloads [][]byte) error {
	if w.store == nil {
		return nil
	}
	if err := w.store.Replace(u, payloads); err != nil {
		return fmt.Errorf("worker %s: persist %s: %w", w.cfg.Name, u, err)
	}
	return nil
}

// persistSpec stores the catalog spec document; no-op without a store.
func (w *Worker) persistSpec(data []byte) error {
	if w.store == nil {
		return nil
	}
	if err := w.store.PutSpec(data); err != nil {
		return fmt.Errorf("worker %s: persist spec: %w", w.cfg.Name, err)
	}
	return nil
}

// inventoryStatus renders the /inventory response: the chunks this
// worker actually holds, sorted (see xrd.Inventory).
func (w *Worker) inventoryStatus() []byte {
	w.mu.Lock()
	chunks := make([]int, 0, len(w.chunks))
	for c := range w.chunks {
		chunks = append(chunks, int(c))
	}
	w.mu.Unlock()
	sort.Ints(chunks)
	out, _ := json.Marshal(xrd.Inventory{Worker: w.cfg.Name, Chunks: chunks, Resident: w.residentChunks()})
	return out
}

// residentChunks lists the chunk IDs with at least one resident unit,
// sorted; nil for an in-memory worker (everything it holds is resident
// by construction, and the inventory document stays byte-compatible
// with pre-residency readers).
func (w *Worker) residentChunks() []int {
	if w.res == nil {
		return nil
	}
	w.res.mu.Lock()
	set := map[int]bool{}
	for _, st := range w.res.units {
		if !st.unit.Shared && (st.state == unitResident || st.state == unitMaterializing) {
			set[st.unit.Chunk] = true
		}
	}
	w.res.mu.Unlock()
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
