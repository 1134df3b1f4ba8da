package worker

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chunkstore"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// TestDurableRestartRecovery: a worker with a DataDir that is closed
// and reopened recovers its inventory immediately but materializes
// lazily — a /repl export streams stored segments without building
// tables, and the first pin rebuilds chunk tables, overlap companions,
// director indexes, and shared tables from disk — no re-load, no /repl
// copy.
func TestDurableRestartRecovery(t *testing.T) {
	reg := replRegistry(t)
	dir := t.TempDir()
	cfg := DefaultConfig("w-dur")
	cfg.DataDir = dir

	w := mustNew(t, cfg, reg)
	const chunk = partition.ChunkID(7)
	rows := []sqlengine.Row{objectRow(1, chunk), objectRow(2, chunk)}
	overlap := []sqlengine.Row{objectRow(9, 8)}
	load(t, w, xrd.LoadPath("Object", int(chunk)), rows, overlap)
	// A second batch: recovery must replay
	// segments in order and accumulate them.
	load(t, w, xrd.LoadPath("Object", int(chunk)), []sqlengine.Row{objectRow(3, chunk)}, nil)
	load(t, w, xrd.LoadSharedPath("Filter"), []sqlengine.Row{{int64(0), "u"}, {int64(1), "g"}}, nil)
	w.Close()

	// Restart: same DataDir (these fixtures load no catalog spec, so the
	// registry is handed over declared).
	w2 := mustNew(t, cfg, reg)
	defer w2.Close()
	chunks := w2.Chunks()
	if len(chunks) != 1 || chunks[0] != chunk {
		t.Fatalf("recovered chunks = %v, want [%d]", chunks, chunk)
	}
	db, err := w2.Engine().Database(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery stops at the inventory: nothing is resident yet, and a
	// /repl export (the bytes the repairer would byte-compare) streams
	// straight from the stored segments without materializing.
	objUnit := chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
	if w2.units.isResident(objUnit) {
		t.Fatal("chunk unit resident right after recovery; want lazy")
	}
	if db.HasTable(meta.ChunkTableName("Object", chunk)) {
		t.Fatal("chunk table materialized at startup; want first-touch")
	}
	if _, err := w2.HandleRead(xrd.ReplPath("Object", int(chunk))); err != nil {
		t.Fatalf("repl export before materialization: %v", err)
	}
	if w2.units.isResident(objUnit) {
		t.Fatal("repl export materialized the unit; want a disk-only stream")
	}
	if st := w2.ResidencyStats(); st.Units != 2 || st.Resident != 0 {
		t.Fatalf("residency after recovery = %+v, want 2 units, 0 resident", st)
	}

	// First touch: pin the units and check every recovered structure.
	for _, id := range []chunkstore.Unit{objUnit, {Table: "Filter", Shared: true}} {
		defer w2.units.unpin(mustPin(t, w2, id))
	}
	tbl, err := db.Table(meta.ChunkTableName("Object", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("chunk table has %d rows, want 3", tbl.Len())
	}
	if !tbl.HasIndex("objectId") {
		t.Fatal("director-key index not rebuilt on recovery")
	}
	ov, err := db.Table(meta.OverlapTableName("Object", chunk))
	if err != nil {
		t.Fatal(err)
	}
	if ov.Len() != 1 {
		t.Fatalf("overlap table has %d rows, want 1", ov.Len())
	}
	flt, err := db.Table("Filter")
	if err != nil {
		t.Fatal(err)
	}
	if flt.Len() != 2 {
		t.Fatalf("shared table has %d rows, want 2", flt.Len())
	}
	if st := w2.ResidencyStats(); st.Resident != 2 || st.Materializations != 2 || st.ResidentBytes <= 0 {
		t.Fatalf("residency after first touch = %+v, want 2 resident units with bytes charged", st)
	}
}

// TestDurableRecoveryQuarantine: a chunk whose on-disk bytes fail their
// checksum is excluded from the recovered inventory (so the repairer
// re-ships it) while intact chunks keep serving.
func TestDurableRecoveryQuarantine(t *testing.T) {
	reg := replRegistry(t)
	dir := t.TempDir()
	cfg := DefaultConfig("w-rot")
	cfg.DataDir = dir

	w := mustNew(t, cfg, reg)
	load(t, w, xrd.LoadPath("Object", 7), []sqlengine.Row{objectRow(1, 7)}, nil)
	load(t, w, xrd.LoadPath("Object", 9), []sqlengine.Row{objectRow(2, 9)}, nil)

	// Rot one payload byte of the first of chunk 7's two frames, under
	// its checksum: a complete frame that fails it is corruption, not a
	// torn append.
	load(t, w, xrd.LoadPath("Object", 7), []sqlengine.Row{objectRow(3, 7)}, nil)
	w.Close()
	unitFile := filepath.Join(dir, "tables", "Object@7.qseg")
	data, err := os.ReadFile(unitFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0xff // a quarter of the way in: the first frame's payload
	if err := os.WriteFile(unitFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustNew(t, cfg, reg)
	defer w2.Close()
	chunks := w2.Chunks()
	if len(chunks) != 1 || chunks[0] != 9 {
		t.Fatalf("recovered chunks = %v, want [9] (7 quarantined)", chunks)
	}
	// The inventory the repairer audits against must agree.
	inv, err := w2.HandleRead(xrd.InventoryPath)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(inv); !strings.Contains(s, "[9]") {
		t.Fatalf("inventory = %s, want chunks [9]", s)
	}
}

// TestInventoryEndpoint: /inventory reports the worker's chunk set.
func TestInventoryEndpoint(t *testing.T) {
	reg := replRegistry(t)
	w := mustNew(t, DefaultConfig("w-inv"), reg)
	defer w.Close()
	for _, c := range []partition.ChunkID{12, 3} {
		load(t, w, xrd.LoadPath("Object", int(c)), []sqlengine.Row{objectRow(int64(c), c)}, nil)
	}
	inv, err := w.HandleRead(xrd.InventoryPath)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(inv); !strings.Contains(s, `"worker":"w-inv"`) || !strings.Contains(s, `"chunks":[3,12]`) {
		t.Fatalf("inventory = %s", s)
	}
	// An in-memory worker keeps the same unit table a durable one does:
	// what it holds is resident, charged, and never evicted.
	if s := string(inv); !strings.Contains(s, `"resident":[3,12]`) {
		t.Errorf("inventory = %s, want both chunks resident", s)
	}
	if st := w.ResidencyStats(); st.Units != 2 || st.Resident != 2 || st.ResidentBytes <= 0 || st.Budget != 0 || st.Materializations != 0 {
		t.Errorf("residency of an in-memory worker = %+v, want 2 resident units with bytes charged and no budget", st)
	}

	// A /repl install that fails on a worker holding nothing of the unit
	// leaves no unit behind: a query must find a missing table there (and
	// fail over), not an empty one.
	if err := w.HandleWrite(xrd.ReplPath("Object", 5), []byte("garbage")); err == nil {
		t.Fatal("garbage /repl install accepted")
	}
	if st := w.ResidencyStats(); st.Units != 2 || w.db.HasTable(meta.ChunkTableName("Object", 5)) {
		t.Errorf("failed install left a unit: %+v", st)
	}
	if _, err := w.units.pin(chunkstore.Unit{Table: "Object", Chunk: 5}, false); err != nil {
		t.Errorf("pin of a unit never installed: %v", err)
	}
	if got := len(w.Chunks()); got != 2 {
		t.Errorf("worker reports %d chunks after a failed install, want 2", got)
	}
}
