package worker

import (
	"fmt"

	"repro/internal/chunkstore"
	"repro/internal/ingest"
)

// This file is the worker side of durability: opening the chunk store,
// recovering its inventory at startup and mirroring every applied
// mutation into the store. An in-memory worker (no DataDir) has a nil
// store and every persist call is a no-op.

// openStore opens the worker's durable chunk store (cutting torn appends
// off its unit files) and recovers the inventory from what survived on
// disk. Called from New, before the executors start.
func (w *Worker) openStore() error {
	st, rec, err := chunkstore.Open(w.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("worker %s: open chunk store: %w", w.cfg.Name, err)
	}
	if err := w.recoverFromStore(st, rec); err != nil {
		st.Close()
		return fmt.Errorf("worker %s: recover chunk store: %w", w.cfg.Name, err)
	}
	w.store = st
	return nil
}

// recoverFromStore recovers inventory only: the stored catalog spec is
// re-declared and every verified unit enters the unit table as on-disk,
// but no engine tables are built — first touch (query, /load append,
// repair heal) pays materialization. That keeps restart-to-serving
// independent of the data volume and never wastes table builds on units
// about to be quarantined or re-homed. Quarantined units (checksum
// failures) taint their chunk: the chunk is not reported in the worker's
// inventory, so the repairer re-ships it whole from a live replica —
// recovery serves what verified, repair replaces what did not.
func (w *Worker) recoverFromStore(st *chunkstore.Store, rec *chunkstore.Recovery) error {
	if data, ok := st.Spec(); ok {
		spec, err := ingest.DecodeSpec(data)
		if err == nil {
			err = w.registry.ApplySpec(spec)
		}
		if err != nil {
			return fmt.Errorf("stored catalog spec: %w", err)
		}
	}
	tainted := map[int]bool{}
	for _, u := range rec.Quarantined {
		if !u.Shared {
			tainted[u.Chunk] = true
		}
	}
	for _, u := range rec.Units {
		// The registry lookup keeps recovery's failure surface: a unit
		// whose table the catalog no longer declares fails startup here,
		// not on some later query.
		if _, err := w.registry.Table(u.Table); err != nil {
			return fmt.Errorf("recovered unit %s: %w", u, err)
		}
		w.units.trackOnDisk(u, !tainted[u.Chunk])
	}
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
