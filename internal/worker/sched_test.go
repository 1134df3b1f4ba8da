package worker

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

// loadBigChunks builds a worker holding n chunks of rowsPerChunk Object
// rows each, spread across the sky so every chunk is distinct. Row ids
// are globally unique; zFlux_PS cycles so predicates have selectivity.
func loadBigChunks(t testing.TB, cfg Config, n, rowsPerChunk int) (*Worker, []partition.ChunkID) {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	w := mustNew(t, cfg, reg)
	t.Cleanup(w.Close)

	var chunks []partition.ChunkID
	id := int64(0)
	for k := 0; k < n; k++ {
		anchor := sphgeom.NewPoint(40+float64(k)*60, 5+10*float64(k/6)) // six a stripe
		chunk, _ := ch.Locate(anchor)
		bounds, err := ch.ChunkBounds(chunk)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]sqlengine.Row, 0, rowsPerChunk)
		for i := 0; i < rowsPerChunk; i++ {
			frac := float64(i) / float64(rowsPerChunk)
			ra := bounds.RAMin + 0.1 + frac*(bounds.RAExtent()-0.2)
			decl := (bounds.DeclMin + bounds.DeclMax) / 2
			c, s := ch.Locate(sphgeom.NewPoint(ra, decl))
			zf := 1e-29 * float64(1+i%10)
			rows = append(rows, sqlengine.Row{id, ra, decl,
				1e-28, 1e-28, 1e-28, 1e-28, zf, 1e-28, 2e-28, 0.05,
				int64(c), int64(s)})
			id++
		}
		load(t, w, xrd.LoadPath("Object", int(chunk)), rows, nil)
		chunks = append(chunks, chunk)
	}
	return w, chunks
}

// countResult loads a dump stream and sums its single count column.
func countResult(t testing.TB, stream string) int64 {
	t.Helper()
	e, name := loadResult(t, stream)
	res, err := e.Query("SELECT SUM(n) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sqlengine.AsInt(res.Rows[0][0])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestInteractiveWaitBoundedUnderScans reproduces the paper's Figure 14
// complaint — and its fix: with >= 4 scans queued on the scan lane,
// interactive queries ride dedicated slots, so their p95 queue wait
// stays below the scan-class p50.
func TestInteractiveWaitBoundedUnderScans(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.Slots = 1 // serialize scan gangs so scan queue waits are real
	cfg.InteractiveSlots = 2
	w, chunks := loadBigChunks(t, cfg, 3, 6000)

	// Two scan queries per chunk: 6 concurrent scans, 3 gangs, draining
	// one at a time. How long a gang holds the slot — what the scan
	// lane's queue waits are made of — is set here, per row, not left to
	// the engine's speed.
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(2*time.Microsecond))
	var scanPayloads [][]byte
	for _, c := range chunks {
		for v := 1; v <= 2; v++ {
			p := []byte(fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM LSST.%s WHERE fluxToAbMag(test_slow(zFlux_PS)) - fluxToAbMag(iFlux_PS) > %d.5;",
				meta.ChunkTableName("Object", c), -v))
			scanPayloads = append(scanPayloads, p)
			if err := w.HandleWrite(xrd.QueryPath(int(c)), p); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Interleave interactive index dives while the scan lane is busy.
	var intPayloads [][]byte
	var intChunks []partition.ChunkID
	for i := 0; i < 8; i++ {
		c := chunks[i%len(chunks)]
		p := []byte(fmt.Sprintf("-- CLASS: INTERACTIVE\nSELECT objectId AS n FROM LSST.%s WHERE objectId = %d;",
			meta.ChunkTableName("Object", c), int64(i%len(chunks))*6000+int64(i)))
		intPayloads = append(intPayloads, p)
		intChunks = append(intChunks, c)
		if err := w.HandleWrite(xrd.QueryPath(int(c)), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range intPayloads {
		if _, err := w.HandleRead(xrd.ResultPath(p)); err != nil {
			t.Fatalf("interactive %d on chunk %d: %v", i, intChunks[i], err)
		}
	}
	for _, p := range scanPayloads {
		if _, err := w.HandleRead(xrd.ResultPath(p)); err != nil {
			t.Fatal(err)
		}
	}

	var intWaits, scanWaits []time.Duration
	for _, r := range w.Reports() {
		switch r.Class {
		case core.Interactive:
			intWaits = append(intWaits, r.QueueWait())
		case core.FullScan:
			scanWaits = append(scanWaits, r.QueueWait())
		}
	}
	if len(intWaits) != 8 || len(scanWaits) != 6 {
		t.Fatalf("report split = %d interactive / %d scan", len(intWaits), len(scanWaits))
	}
	p95Int := percentileDuration(intWaits, 95)
	p50Scan := percentileDuration(scanWaits, 50)
	if p50Scan == 0 {
		t.Fatal("scan lane never queued; the comparison is vacuous")
	}
	if p95Int >= p50Scan {
		t.Errorf("interactive p95 wait %v >= scan p50 wait %v", p95Int, p50Scan)
	}
}

// percentileDuration returns the pth percentile (nearest-rank).
func percentileDuration(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestSharedScansPreserveResults: full scans of one chunk that start as a
// gang, over one read of it, ship what each ships run alone — byte for byte
// — and count what the loaded rows say they must.
func TestSharedScansPreserveResults(t *testing.T) {
	cfg := DefaultConfig("w-eq")
	cfg.Slots = 1
	const rows, gang = 2000, 6
	w, chunks := loadBigChunks(t, cfg, 2, rows)
	w.Engine().RegisterFunc("test_slow", sqlengine.SlowIdentity(10*time.Microsecond))
	// zFlux_PS cycles 1..10 x 1e-29, so > k.5e-29 keeps (10-k)/10 of the rows.
	var payloads []string
	for k := 1; k <= gang; k++ {
		payloads = append(payloads, fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > %d.5e-29;",
			meta.ChunkTableName("Object", chunks[1]), k))
	}
	together := gangResults(t, w, chunks[0], chunks[1], payloads)
	for i, p := range payloads {
		if got, want := countResult(t, together[i]), int64(rows*(10-(i+1))/10); got != want {
			t.Errorf("%s: in a gang counted %d, want %d", p, got, want)
		}
		if alone := submit(t, w, chunks[1], p); alone != together[i] {
			t.Errorf("%s:\n in a gang %q\n alone     %q", p, together[i], alone)
		}
	}
}

// gangResults runs payloads, full scans of chunk, as one gang on a worker
// with one scan slot and test_slow registered: a slow scan of the chunk
// other holds the slot while they queue, so one pop starts them together.
// It returns their result streams in order and fails the test unless all
// but one of them report having joined a gang.
func gangResults(t *testing.T, w *Worker, other, chunk partition.ChunkID, payloads []string) []string {
	t.Helper()
	reported := len(w.Reports())
	blocker := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE test_slow(zFlux_PS) > 0;",
		meta.ChunkTableName("Object", other)))
	if err := w.HandleWrite(xrd.QueryPath(int(other)), blocker); err != nil {
		t.Fatal(err)
	}
	awaitActive(t, w, 1)
	for _, p := range payloads {
		if err := w.HandleWrite(xrd.QueryPath(int(chunk)), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.HandleRead(xrd.ResultPath(blocker)); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(payloads))
	for i, p := range payloads {
		data, err := w.HandleRead(xrd.ResultPath([]byte(p)))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[i] = string(data)
	}
	joins := 0
	for _, r := range w.Reports()[reported:] {
		joins += r.ConvoyJoins
	}
	if joins != len(payloads)-1 {
		t.Fatalf("gang joins = %d, want %d: the %d scans were to start as one gang", joins, len(payloads)-1, len(payloads))
	}
	return out
}

// resolveOne runs a chunk query's table pass over a statement reading
// one table, on a worker whose catalog also declares names that end in
// digit groups, and returns the unit the job pinned for it; nil means the
// name is no piece of a catalog table. The worker stores nothing, so the
// table itself is not found: that error is not what is asked.
func resolveOne(t *testing.T, w *Worker, table string) *tableUse {
	t.Helper()
	sel, err := sqlparse.ParseSelect("SELECT * FROM LSST." + table)
	if err != nil {
		t.Fatal(err)
	}
	run := &jobRun{w: w, j: &job{}}
	ref, ok := w.registry.ResolveTable(table)
	_ = run.useTables(&jobStmt{sel: sel, ents: []fromEntry{{name: table, ref: ref, resolved: ok}}})
	if len(run.j.tables) == 0 {
		return nil
	}
	return &run.j.tables[0]
}

// digitSuffixWorker is an empty worker over the LSST catalog plus three
// child tables: one with an underscore in its name, two that end in digit
// groups.
func digitSuffixWorker(t *testing.T) *Worker {
	t.Helper()
	spec := datagen.LSSTSpec()
	for _, name := range []string{"Forced_Source", "Station_7", "Reading_2_1"} {
		spec.Tables = append(spec.Tables, meta.TableSpec{Name: name, Kind: meta.KindChild, DirectorKey: "objectId",
			Columns: sqlengine.Schema{{Name: "objectId", Type: sqlparse.TypeInt}}})
	}
	ch, err := partition.NewChunker(partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := meta.NewRegistryFromSpec(spec, ch)
	if err != nil {
		t.Fatal(err)
	}
	w := mustNew(t, DefaultConfig("w0"), reg)
	t.Cleanup(w.Close)
	return w
}

func TestGangSizeCapBoundsConcurrency(t *testing.T) {
	q := newGangQueue(100, 4)
	mk := func(i int) *job {
		return &job{chunk: 7, hash: fmt.Sprintf("%032d", i), queuedAt: time.Now()}
	}
	for i := 0; i < 10; i++ {
		if !q.push(mk(i)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	// A same-chunk burst drains in capped gangs, preserving order.
	sizes := []int{len(q.popGang()), len(q.popGang()), len(q.popGang())}
	if sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Errorf("gang sizes = %v, want [4 4 2]", sizes)
	}
	if q.len() != 0 {
		t.Errorf("queue len = %d after draining", q.len())
	}
}
