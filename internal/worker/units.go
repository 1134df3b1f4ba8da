package worker

import (
	"fmt"
	"sync"

	"repro/internal/chunkstore"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
)

// This file is the worker's unit table: one record per stored (table,
// chunk) or replicated table. The table is the worker's inventory (what
// /inventory and /ping report) and its residency manager. A chunk unit's
// record also keeps its subchunk index (subchunk.go), which the first
// near-neighbour job over the unit builds and every later one gathers its
// subchunk tables from; the tables themselves are the job's. The index is
// charged to the unit's bytes and dropped whenever the unit's tables change:
// a /load append, a /repl replace-install, an eviction.
//
// With a store, recovery stops at the chunkstore inventory (spec + unit
// index) and a unit's tables are built from its unit file on first
// touch — a query, a /load append, or a repair heal. Under a memory
// budget, cold units are evicted back to their (already durable) unit
// files by detaching their engine tables, in LRU order over per-unit
// resident-byte accounting. Without a store a unit is born resident, by
// /load or /repl, and stays so: there is nowhere to evict to, and the
// budget is ignored.
//
// The state machine per unit:
//
//	on-disk --pin--> materializing --built--> resident
//	resident --evictor, pins==0--> evicting --detached--> on-disk
//
// Pins make eviction safe against the live read path: every executing
// chunk query pins the units its statements reference before touching
// the engine (covering the subchunk build, which scans the pinned base
// tables), and the evictor only picks fully unpinned resident units. A job
// popped while its unit is on disk blocks in pin — materialize-on-miss
// inside the scheduler — rather than erroring. The pin is also how a gang
// shares one read of its chunk: its members pin together, one of them builds
// the tables, and the unit stays resident until the last of them unpins.
// Writers (/load appends) pin too; replace-installs (/repl) latch the
// unit in the materializing state so the evictor cannot detach tables
// mid-install.
//
// A table put into the engine by anything else is not a unit: nothing
// pins it and the engine finds it, or not, on its own terms.

// Unit residency states.
const (
	unitOnDisk        = iota // no engine tables; the zero state of a new record
	unitMaterializing        // being built from segments, or latched by a replace-install
	unitResident
	unitEvicting
)

// unit is one record of the table, guarded by unitTable.mu.
type unit struct {
	id        chunkstore.Unit
	state     int
	pins      int
	bytes     int64  // engine bytes, and the subchunk index's, charged while resident
	lastTouch uint64 // logical clock of the last pin (LRU victim order)
	// held counts the unit into the inventory: set by a /load or /repl
	// write that landed, and at recovery unless a sibling unit of its chunk
	// was quarantined — such a chunk stays out of the inventory, so the
	// repairer re-ships it whole, until a write to it lands.
	held bool
	// index is the unit's subchunk index, nil for none; its bytes are in
	// bytes. gen counts the changes to the unit's tables (see changed).
	index *subchunkIndex
	gen   uint64
}

// changed marks the start of a change to the unit's tables: the index no
// longer stands for them, and one built from them before the change is not
// kept (keepIndex). Its bytes leave u.bytes with the caller's settling of
// them.
func (u *unit) changed() {
	u.index = nil
	u.gen++
}

// unitTable is a worker's unit table.
type unitTable struct {
	w      *Worker
	budget int64 // resident-byte target; 0 = never evict

	mu       sync.Mutex
	cond     *sync.Cond
	units    map[chunkstore.Unit]*unit
	resident int64 // total bytes charged by resident units
	clock    uint64

	materializations int64
	evictions        int64
	// materializedBytes sums the engine bytes materializations built.
	materializedBytes int64

	// kick wakes the evictor; buffered so producers never block.
	kick chan struct{}
}

func newUnitTable(w *Worker) *unitTable {
	t := &unitTable{w: w, units: map[chunkstore.Unit]*unit{}, kick: make(chan struct{}, 1)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// trackOnDisk registers a recovered unit as present but not resident.
func (t *unitTable) trackOnDisk(id chunkstore.Unit, held bool) {
	t.mu.Lock()
	if t.units[id] == nil {
		t.units[id] = &unit{id: id, held: held}
	}
	t.mu.Unlock()
}

// pin marks a unit in use and returns its record, building its tables
// first if it is not resident. It blocks while another goroutine is
// materializing or evicting the same unit (a query arriving during an
// eviction waits out the detach, then exactly one waiter rebuilds the
// tables). A unit the table does not track is nil to a reader — the engine
// lookup fails or succeeds on its own terms — and is created, empty, for a
// writer (create: the first /load batch of a fresh unit).
func (t *unitTable) pin(id chunkstore.Unit, create bool) (*unit, error) {
	t.mu.Lock()
	for {
		u := t.units[id]
		if u == nil {
			if !create {
				t.mu.Unlock()
				return nil, nil
			}
			u = &unit{id: id}
			t.units[id] = u
		}
		switch u.state {
		case unitResident:
			u.pins++
			t.touchLocked(u)
			t.mu.Unlock()
			return u, nil
		case unitMaterializing, unitEvicting:
			t.cond.Wait()
		case unitOnDisk:
			u.state = unitMaterializing
			t.mu.Unlock()
			stored, err := t.w.materializeUnit(id)
			bytes, present := t.w.unitBytes(id)
			t.mu.Lock()
			t.settleLocked(u, bytes, present && err == nil)
			if err != nil {
				t.mu.Unlock()
				return nil, err
			}
			if stored {
				t.materializations++
				t.materializedBytes += u.bytes
			}
			u.pins++
			t.kickLocked()
			t.mu.Unlock()
			return u, nil
		}
	}
}

// settleLocked ends a build of u — a materialization or a replace-install,
// whichever way it went — by what exists now: resident at the bytes of its
// engine tables; back on disk when only the store has it; and no unit at
// all when nothing does, because an install that failed on a worker holding
// nothing of the unit must leave queries a missing table, not an empty one.
func (t *unitTable) settleLocked(u *unit, bytes int64, present bool) {
	u.changed()
	switch {
	case present:
		u.state = unitResident
		u.bytes = bytes
		t.resident += bytes
		t.touchLocked(u)
	case t.w.store != nil && t.w.store.Has(u.id):
		u.state = unitOnDisk
	default:
		delete(t.units, u.id)
	}
	t.cond.Broadcast()
}

// unpin releases one pin; a fully released unit becomes evictable.
func (t *unitTable) unpin(u *unit) {
	t.mu.Lock()
	if u.pins > 0 {
		u.pins--
	}
	t.kickLocked()
	t.mu.Unlock()
}

// noteWrite settles a unit after a write landed under a write pin: the
// append grew its tables, which drops their subchunk index, and the unit now
// counts into the inventory.
func (t *unitTable) noteWrite(u *unit, bytes int64) {
	t.mu.Lock()
	u.held = true
	u.changed()
	if u.state == unitResident {
		t.resident += bytes - u.bytes
		u.bytes = bytes
	}
	t.kickLocked()
	t.mu.Unlock()
}

// lockReplace latches a unit for a replace-install: any in-flight
// materialization or eviction is waited out, the unit's resident bytes
// are uncharged, and the state is parked at materializing so the evictor
// cannot detach the tables the caller is about to publish. The caller must
// follow with finishReplace.
func (t *unitTable) lockReplace(id chunkstore.Unit) *unit {
	t.mu.Lock()
	u := t.units[id]
	for u != nil && (u.state == unitMaterializing || u.state == unitEvicting) {
		t.cond.Wait()
		u = t.units[id]
	}
	if u == nil {
		u = &unit{id: id}
		t.units[id] = u
	}
	if u.state == unitResident {
		t.resident -= u.bytes
		u.bytes = 0
	}
	u.changed()
	u.state = unitMaterializing
	t.mu.Unlock()
	return u
}

// finishReplace completes a replace-install; installed says whether it
// landed, which counts the unit into the inventory.
func (t *unitTable) finishReplace(u *unit, installed bool) {
	bytes, present := t.w.unitBytes(u.id)
	t.mu.Lock()
	u.held = u.held || installed
	t.settleLocked(u, bytes, present)
	t.kickLocked()
	t.mu.Unlock()
}

// subchunkIndex returns the unit's subchunk index, nil for none, and the
// generation of its tables an index built from them now would be kept at.
func (t *unitTable) subchunkIndex(u *unit) (*subchunkIndex, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return u.index, u.gen
}

// keepIndex keeps x as the unit's subchunk index, charged to its bytes, if
// the unit is resident and its tables have not changed since generation gen,
// which x was built in; else x stays the building job's alone.
func (t *unitTable) keepIndex(u *unit, x *subchunkIndex, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if u.gen != gen || u.state != unitResident {
		return
	}
	delta := x.bytes()
	if u.index != nil {
		delta -= u.index.bytes()
	}
	u.index = x
	u.bytes += delta
	t.resident += delta
	t.kickLocked()
}

// isResident reports a unit's state (tests).
func (t *unitTable) isResident(id chunkstore.Unit) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.units[id]
	return u != nil && u.resident()
}

// resident reports whether the unit has, or is getting, engine tables.
func (u *unit) resident() bool { return u.state == unitResident || u.state == unitMaterializing }

func (t *unitTable) touchLocked(u *unit) {
	t.clock++
	u.lastTouch = t.clock
}

func (t *unitTable) overBudgetLocked() bool {
	return t.budget > 0 && t.resident > t.budget
}

// kickLocked wakes the evictor if the worker is over budget.
func (t *unitTable) kickLocked() {
	if !t.overBudgetLocked() {
		return
	}
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// evictLoop detaches cold units until the worker is back under budget
// or nothing evictable remains (everything resident is pinned — the
// next unpin re-kicks). Victims leave in LRU order of their last pin.
func (t *unitTable) evictLoop() {
	logged := false
	for {
		t.mu.Lock()
		if !t.overBudgetLocked() {
			t.mu.Unlock()
			return
		}
		if !logged {
			logged = true
			logger.Info("residency.pressure", "worker", t.w.cfg.Name,
				"resident", t.resident, "budget", t.budget)
		}
		var victim *unit
		for _, u := range t.units {
			if u.state != unitResident || u.pins != 0 {
				continue
			}
			if victim == nil || u.lastTouch < victim.lastTouch {
				victim = u
			}
		}
		if victim == nil {
			t.mu.Unlock()
			return
		}
		victim.state = unitEvicting
		victim.changed() // its bytes leave with the unit's
		bytes := victim.bytes
		t.mu.Unlock()

		// The detach runs outside t.mu: it takes the engine database lock,
		// and waiters for this unit block on the evicting state, not on the
		// mutex.
		t.detach(victim)

		t.mu.Lock()
		victim.state = unitOnDisk
		victim.bytes = 0
		t.resident -= bytes
		t.evictions++
		resident, budget := t.resident, t.budget
		t.cond.Broadcast()
		t.mu.Unlock()
		logger.Debug("residency.evict", "worker", t.w.cfg.Name, "unit", victim.id.String(),
			"bytes", bytes, "resident", resident, "budget", budget)
	}
}

// evictor is the worker goroutine draining eviction kicks.
func (w *Worker) evictor() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.units.kick:
			w.units.evictLoop()
		}
	}
}

// detach ends a unit's residency: its tables leave the engine (the table
// objects stay valid for any in-flight reader holding a pointer; new
// lookups miss until a re-materialization).
func (t *unitTable) detach(u *unit) {
	for _, n := range unitTableNames(u.id) {
		t.w.db.Detach(n)
	}
}

// ---------- shared reads ----------

// ScanStats counts what the worker read on behalf of its scan gangs.
type ScanStats struct {
	// BytesRead is the engine bytes built by materializations since start:
	// the reads a gang's members share. A worker with no store reads
	// nothing, and reports 0.
	BytesRead int64
}

// ScanStats returns the worker's shared-read counters.
func (w *Worker) ScanStats() ScanStats {
	t := w.units
	t.mu.Lock()
	defer t.mu.Unlock()
	return ScanStats{BytesRead: t.materializedBytes}
}

// ---------- inventory and accounting ----------

// unitOfRef names the storage unit behind a worker-side table: its own
// for a replicated, a chunk or an overlap table, the chunk unit they are
// built from for the subchunk kinds.
func unitOfRef(ref meta.TableRef) chunkstore.Unit {
	if ref.Kind == meta.SharedTable {
		return chunkstore.Unit{Table: ref.Info.Name, Shared: true}
	}
	return chunkstore.Unit{Table: ref.Info.Name, Chunk: int(ref.Chunk)}
}

// unitOf names the storage unit a /load or /repl path addresses, refusing
// a partitioned table addressed whole and a replicated one by chunk.
func (w *Worker) unitOf(table string, chunk int, shared bool) (chunkstore.Unit, error) {
	info, err := w.registry.Table(table)
	switch {
	case err != nil:
		return chunkstore.Unit{}, err
	case shared && info.Partitioned:
		return chunkstore.Unit{}, fmt.Errorf("table %s is partitioned; address it by chunk", info.Name)
	case !shared && !info.Partitioned:
		return chunkstore.Unit{}, fmt.Errorf("table %s is not partitioned; use the shared path", info.Name)
	case shared:
		return chunkstore.Unit{Table: info.Name, Shared: true}, nil
	}
	return chunkstore.Unit{Table: info.Name, Chunk: chunk}, nil
}

// unitTableNames lists the engine tables backing a unit: the table
// itself for a shared unit, the chunk table and its overlap companion
// for a chunk unit.
func unitTableNames(id chunkstore.Unit) []string {
	if id.Shared {
		return []string{id.Table}
	}
	cid := partition.ChunkID(id.Chunk)
	return []string{meta.ChunkTableName(id.Table, cid), meta.OverlapTableName(id.Table, cid)}
}

// unitBytes sums the resident footprint of a unit's tables; present says
// whether the engine has them.
func (w *Worker) unitBytes(id chunkstore.Unit) (bytes int64, present bool) {
	for i, n := range unitTableNames(id) {
		t, err := w.db.Table(n)
		if err == nil {
			bytes += t.ResidentBytes()
		}
		if i == 0 {
			present = err == nil
		}
	}
	return bytes, present
}

// Chunks returns the chunk IDs this worker stores, on disk or in memory.
func (w *Worker) Chunks() []partition.ChunkID {
	return w.units.chunks(func(u *unit) bool { return u.held })
}

// chunks lists, unordered, the chunk IDs with a chunk unit that counts.
func (t *unitTable) chunks(counts func(*unit) bool) []partition.ChunkID {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[int]bool{}
	out := []partition.ChunkID{}
	for id, u := range t.units {
		if !id.Shared && !seen[id.Chunk] && counts(u) {
			seen[id.Chunk] = true
			out = append(out, partition.ChunkID(id.Chunk))
		}
	}
	return out
}

// ResidencyStats reports a worker's unit accounting.
type ResidencyStats struct {
	// Units is the number of storage units in inventory (resident or
	// on disk); Resident of them currently have engine tables.
	Units    int
	Resident int
	// ResidentBytes is the accounted engine footprint of the resident
	// units; Budget is the configured target (0 = unbounded).
	ResidentBytes int64
	Budget        int64
	// Materializations and Evictions count residency transitions since
	// startup.
	Materializations int64
	Evictions        int64
}

// ResidencyStats returns the worker's residency accounting.
func (w *Worker) ResidencyStats() ResidencyStats {
	t := w.units
	t.mu.Lock()
	defer t.mu.Unlock()
	st := ResidencyStats{
		Units:            len(t.units),
		ResidentBytes:    t.resident,
		Budget:           t.budget,
		Materializations: t.materializations,
		Evictions:        t.evictions,
	}
	for _, u := range t.units {
		if u.resident() {
			st.Resident++
		}
	}
	return st
}

// ---------- building a unit's tables ----------

// buildUnit is the one way a unit's tables come to exist. It decodes segs
// (encoded ingest batches, in application order) straight into the columns
// of a fresh table carrying the director-key and declared hash indexes —
// maintained by every append, so a rebuilt index is identical — and, for a
// chunk unit, of its overlap companion, then publishes them: every segment
// applied, or nothing changed. First-touch materialization passes the
// stored segments, a /repl install the shipped ones, and the first /load
// append to a unit nothing is stored of passes none.
func (w *Worker) buildUnit(id chunkstore.Unit, segs [][]byte) error {
	info, err := w.registry.Table(id.Table)
	if err != nil {
		return err
	}
	if info.Partitioned == id.Shared {
		return fmt.Errorf("table %s: declared partitioning does not fit unit %s", info.Name, id)
	}
	names := unitTableNames(id)
	t, err := info.NewIngestTable(names[0])
	if err != nil {
		return err
	}
	var ov *sqlengine.Table // overlap tables are scanned, not dived into: no index
	if !id.Shared {
		ov = sqlengine.NewTable(names[1], info.Schema)
	}
	if err := appendBatches(segs, t, ov); err != nil {
		return err
	}
	w.db.Put(t)
	if ov != nil {
		w.db.Put(ov)
	}
	return nil
}

// materializeUnit builds one unit's engine tables from what the store
// holds of it — nothing, for a unit a /load is creating, which stored
// reports. Called with the unit latched in the materializing state, never
// under unitTable.mu.
func (w *Worker) materializeUnit(id chunkstore.Unit) (stored bool, err error) {
	var segs [][]byte
	if stored = w.store != nil && w.store.Has(id); stored {
		segs, err = w.store.Segments(id)
	}
	if err == nil {
		err = w.buildUnit(id, segs)
	}
	if err != nil {
		return stored, fmt.Errorf("worker %s: materialize %s: %w", w.cfg.Name, id, err)
	}
	return stored, nil
}
