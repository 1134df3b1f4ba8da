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
		anchor := sphgeom.NewPoint(40+float64(k)*60, 5)
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

// TestLiveConvoyMidScanJoinExactlyOnce drives the full worker path:
// while a throttled convoy is mid-table, two scan-class chunk queries
// join it; each must still see every piece exactly once, which the
// exact filter counts verify.
func TestLiveConvoyMidScanJoinExactlyOnce(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.SharedScans = true
	cfg.ScanPieceRows = 8
	cfg.Slots = 2
	const rows = 4000
	w, chunks := loadBigChunks(t, cfg, 1, rows)
	chunk := chunks[0]
	table := meta.ChunkTableName("Object", chunk)

	// Pre-warm: one scan job creates the convoy scanner.
	warm := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 0;", table))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), warm); err != nil {
		t.Fatal(err)
	}
	if _, err := w.HandleRead(xrd.ResultPath(warm)); err != nil {
		t.Fatal(err)
	}
	sc := w.ConvoyScanner(table)
	if sc == nil {
		t.Fatal("scan job created no convoy scanner")
	}
	if got := w.ScanStats().BytesRead; got == 0 {
		t.Fatal("convoy scanner read nothing")
	}

	// Throttle the convoy so it is reliably mid-scan when jobs join:
	// 500 pieces x 200us keeps the scan in flight for ~100ms.
	throttle := sc.Attach(func(lo, hi int) { time.Sleep(200 * time.Microsecond) })

	// zFlux_PS cycles 1..10 x 1e-29, so > 5e-29 keeps half the rows.
	qa := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 5e-29;", table))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), qa); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sc.ScansSaved() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job A never joined the in-flight convoy")
		}
		time.Sleep(time.Millisecond)
	}
	qb := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 8e-29;", table))
	if err := w.HandleWrite(xrd.QueryPath(int(chunk)), qb); err != nil {
		t.Fatal(err)
	}

	streamA, err := w.HandleRead(xrd.ResultPath(qa))
	if err != nil {
		t.Fatal(err)
	}
	streamB, err := w.HandleRead(xrd.ResultPath(qb))
	if err != nil {
		t.Fatal(err)
	}
	throttle.Wait()

	// Exactly-once delivery means exact counts: 5 of 10 flux steps pass
	// > 5e-29, 2 pass > 8e-29.
	if got := countResult(t, string(streamA)); got != rows/2 {
		t.Errorf("mid-scan join A count = %d, want %d", got, rows/2)
	}
	if got := countResult(t, string(streamB)); got != rows/5 {
		t.Errorf("mid-scan join B count = %d, want %d", got, rows/5)
	}

	shared := 0
	for _, r := range w.Reports() {
		if r.Class != core.FullScan {
			t.Errorf("scan job reported class %v", r.Class)
		}
		shared += r.ScansShared
	}
	if shared < 2 {
		t.Errorf("ScansShared total = %d, want >= 2 (both joins mid-scan)", shared)
	}
}

// TestInteractiveWaitBoundedUnderScans reproduces the paper's Figure 14
// complaint — and its fix: with >= 4 scans queued on the scan lane,
// interactive queries ride dedicated slots, so their p95 queue wait
// stays below the scan-class p50.
func TestInteractiveWaitBoundedUnderScans(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.SharedScans = true
	cfg.ScanPieceRows = 32
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

func TestSharedScansPreserveResults(t *testing.T) {
	// The same chunk query must produce identical counts with and
	// without shared scanning.
	run := func(shared bool) int64 {
		cfg := DefaultConfig("w-eq")
		cfg.SharedScans = shared
		cfg.ScanPieceRows = 16
		w, chunks := loadBigChunks(t, cfg, 1, 500)
		p := []byte(fmt.Sprintf("SELECT COUNT(*) AS n FROM LSST.%s WHERE zFlux_PS > 3e-29;",
			meta.ChunkTableName("Object", chunks[0])))
		return countResult(t, submit(t, w, chunks[0], string(p)))
	}
	on, off := run(true), run(false)
	if on != off || on == 0 {
		t.Errorf("shared=%d unshared=%d; want equal and nonzero", on, off)
	}
}

// resolveOne runs a chunk query's table pass over a statement reading
// one table, on a worker whose catalog also declares names that end in
// digit groups; nil means the name is no piece of a catalog table.
func resolveOne(t *testing.T, w *Worker, table string) *tableUse {
	t.Helper()
	stmts, err := sqlparse.ParseScript("SELECT * FROM LSST." + table + ";")
	if err != nil {
		t.Fatal(err)
	}
	run := &jobRun{w: w, j: &job{}}
	if err := run.useTables(stmts[0].(*sqlparse.Select).From, nil); err != nil {
		t.Fatal(err)
	}
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

// TestConvoyTableChunk: which of a job's tables may convoy, and as which
// chunk's — the stored chunk and overlap tables, found through the naming
// codec (meta.ResolveTable has the full table of names).
func TestConvoyTableChunk(t *testing.T) {
	w := digitSuffixWorker(t)
	cases := []struct {
		in    string
		chunk partition.ChunkID
		ok    bool
	}{
		{"Object_123", 123, true},
		{"ObjectFullOverlap_123", 123, true},
		{"Source_9", 9, true},
		{"Object_123_4", 0, false}, // subchunk tables never convoy
		{"Object", 0, false},
		{"Filter", 0, false},
		// A table whose own name ends in digits convoys like any other.
		{"Station_7_58", 58, true},
		{"Station_7FullOverlap_58", 58, true},
		{"Station_7_58_3", 0, false},
		{"Reading_2_1_58", 58, true},
		{"Reading_2_1", 0, false},
	}
	for _, c := range cases {
		var chunk partition.ChunkID
		ok := false
		if use := resolveOne(t, w, c.in); use != nil && use.scan != [2]bool{} {
			chunk, ok = partition.ChunkID(use.id.Chunk), true
			// The unit's table in that slot is the table the statement named.
			for slot, name := range unitTableNames(use.id) {
				if use.scan[slot] != (name == c.in) {
					t.Errorf("%q: scan slots %v over tables %q", c.in, use.scan, unitTableNames(use.id))
				}
			}
		}
		if ok != c.ok || chunk != c.chunk {
			t.Errorf("convoy chunk of %q = %d, %v; want %d, %v", c.in, chunk, ok, c.chunk, c.ok)
		}
	}
}

// TestInteractiveDoesNotConvoy checks index dives bypass the convoy:
// an interactive job must not attach a scanner (its read is a seek).
func TestInteractiveDoesNotConvoy(t *testing.T) {
	cfg := DefaultConfig("w0")
	cfg.SharedScans = true
	w, chunks := loadBigChunks(t, cfg, 1, 200)
	p := fmt.Sprintf("-- CLASS: INTERACTIVE\nSELECT objectId AS n FROM LSST.%s WHERE objectId = 7;",
		meta.ChunkTableName("Object", chunks[0]))
	submit(t, w, chunks[0], p)
	r := w.Reports()[0]
	if r.Class != core.Interactive {
		t.Fatalf("class = %v", r.Class)
	}
	if r.ConvoyJoins != 0 {
		t.Errorf("interactive job joined %d convoys", r.ConvoyJoins)
	}
	if r.Stats.RandReads == 0 {
		t.Errorf("index dive did not use the index: %+v", r.Stats)
	}
	if st := w.ScanStats(); st.Convoys != 0 {
		t.Errorf("interactive-only worker created %d convoys", st.Convoys)
	}
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
