package worker

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/chunkstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dump"
	"repro/internal/ingest"
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
	"repro/internal/xrd"
)

// TestSubchunkTablesAreTheExhaustiveOnes holds the linear subchunk build to
// the test it no longer runs against every target: for chunks at the
// equator, across RA 0/360 and at a pole, whose rows include NULL, NaN,
// infinite and off-the-sphere coordinates and subChunkIds the chunk has not,
// every subchunk table holds the rows whose stored subChunkId names it and
// every overlap table the other rows its dilated bounds contain — the rows
// the exhaustive pass assigned, found here by that pass — and each table is
// in declination order behind its hostile rows. A table holds the columns
// its statement reads, in catalog order, with the position columns: every
// column for a *, else the ones named, in any case and in any clause.
func TestSubchunkTablesAreTheExhaustiveOnes(t *testing.T) {
	statements := []struct {
		sql  string
		kept []string
	}{
		{"SELECT * FROM t", nil},
		{"SELECT objectID, COUNT(*) FROM t WHERE iflux_ps > 0 GROUP BY OBJECTID ORDER BY t.ZFlux_PS",
			[]string{"objectId", "ra_PS", "decl_PS", "iFlux_PS", "zFlux_PS"}},
		{"SELECT o1.objectId FROM t o1", []string{"objectId", "ra_PS", "decl_PS"}},
	}
	for c, tc := range []struct {
		cfg  partition.Config
		at   sphgeom.Point
		rows int
	}{
		{partition.Config{NumStripes: 12, NumSubStripesPerStripe: 12, Overlap: 0.5}, sphgeom.NewPoint(100, 7.5), 1500},
		{partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5}, sphgeom.NewPoint(0.5, -3), 600},
		{partition.Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5}, sphgeom.NewPoint(359.5, 33), 600},
		{partition.Config{NumStripes: 12, NumSubStripesPerStripe: 6, Overlap: 1}, sphgeom.NewPoint(200, 89), 800},
		{partition.Config{NumStripes: 12, NumSubStripesPerStripe: 6, Overlap: 0.1}, sphgeom.NewPoint(10, -89), 400},
		{partition.Config{NumStripes: 6, NumSubStripesPerStripe: 20, Overlap: 0}, sphgeom.NewPoint(45, 45), 400},
	} {
		ch, err := partition.NewChunker(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := datagen.LSSTRegistry(ch)
		w := mustNew(t, DefaultConfig("w-sub"), reg)
		chunk, _ := ch.Locate(tc.at)
		r := rand.New(rand.NewSource(int64(chunk)))
		rows, overlap := hostileRows(r, ch, chunk, 0, tc.rows)
		load(t, w, xrd.LoadPath("Object", int(chunk)), rows, overlap)

		stmt := statements[c%len(statements)]
		sel, err := sqlparse.ParseSelect(stmt.sql)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := reg.Table("Object")
		proj := columnsRead([]*sqlparse.Select{sel}).project(info)
		kept := info.Schema.Names()
		if stmt.kept != nil {
			kept = stmt.kept
		}
		if got := proj.schema.Names(); !slices.Equal(got, kept) {
			t.Errorf("%s keeps columns %v, want %v", stmt.sql, got, kept)
		}
		all, _ := ch.AllSubChunks(chunk)
		subs := all
		if len(all) > 8 { // a job asks for some of a chunk's subchunks
			subs = nil
			for _, s := range all {
				if r.Intn(3) > 0 {
					subs = append(subs, s)
				}
			}
		}
		u, err := w.units.pin(chunkstore.Unit{Table: "Object", Chunk: int(chunk)}, false)
		if err != nil {
			t.Fatal(err)
		}
		built, _, err := w.generateSubchunks(u, subs, proj)
		w.units.unpin(u)
		if err != nil {
			t.Fatal(err)
		}
		checkExhaustive(t, fmt.Sprintf("%v chunk %d", tc.cfg, chunk), ch, chunk, rows, overlap, subs, proj, built)
		w.Close()
	}
}

// TestSubchunkIndexFollowsTheUnitsTables: the first near-neighbour job over
// a chunk unit builds its subchunk index, charged to the unit, and the next
// gathers from the same one; a /load append and a /repl replace-install
// each drop it, and the job after each builds one over the tables as they
// are then, whose tables are the exhaustive pass's. An index a job read
// before an append landed still gathers the tables as they were, not a mix
// of the two: positions past the chunk table's recorded length are the
// overlap table's, however long the chunk table has grown.
func TestSubchunkIndexFollowsTheUnitsTables(t *testing.T) {
	ch, err := partition.NewChunker(partition.Config{NumStripes: 12, NumSubStripesPerStripe: 12, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := datagen.LSSTRegistry(ch)
	w := mustNew(t, DefaultConfig("w-index"), reg)
	defer w.Close()
	chunk, _ := ch.Locate(sphgeom.NewPoint(100, 7.5))
	r := rand.New(rand.NewSource(3))
	rows, overlap := hostileRows(r, ch, chunk, 0, 1000)
	load(t, w, xrd.LoadPath("Object", int(chunk)), rows, overlap)

	info, _ := reg.Table("Object")
	proj := columnSet{names: map[string]bool{"objectid": true, "zflux_ps": true}}.project(info)
	subs, _ := ch.AllSubChunks(chunk)
	subs = subs[:len(subs)/2]
	id := chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
	u := mustPin(t, w, id)
	defer w.units.unpin(u)
	job := func(label string, rows, overlap []sqlengine.Row) (map[subchunkKey]*sqlengine.Table, *subchunkIndex) {
		t.Helper()
		built, st, err := w.generateSubchunks(u, subs, proj)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := int64(len(rows) + len(overlap)); st.RowsScanned != want {
			t.Errorf("%s: the job's tables stand for %d rows scanned, want the unit's %d", label, st.RowsScanned, want)
		}
		checkExhaustive(t, label, ch, chunk, rows, overlap, subs, proj, built)
		x, _ := w.units.subchunkIndex(u)
		if x == nil {
			t.Fatalf("%s: the unit keeps no subchunk index", label)
		}
		tables, _ := w.unitBytes(id)
		if st := w.ResidencyStats(); st.ResidentBytes != tables+x.bytes() {
			t.Errorf("%s: %d resident bytes, want the tables' %d and the index's %d", label, st.ResidentBytes, tables, x.bytes())
		}
		return built, x
	}
	dropped := func(label string) {
		t.Helper()
		if x, _ := w.units.subchunkIndex(u); x != nil {
			t.Errorf("%s: the unit still keeps its subchunk index", label)
		}
		tables, _ := w.unitBytes(id)
		if st := w.ResidencyStats(); st.ResidentBytes != tables {
			t.Errorf("%s: %d resident bytes, want the tables' %d", label, st.ResidentBytes, tables)
		}
	}

	first, x1 := job("first job", rows, overlap)
	if _, x := job("second job", rows, overlap); x != x1 {
		t.Error("the second job built an index of its own")
	}

	more, moreOverlap := hostileRows(r, ch, chunk, 1000, 500)
	if len(more) == 0 || len(moreOverlap) == 0 {
		t.Fatal("the append brings no chunk row or no overlap row")
	}
	load(t, w, xrd.LoadPath("Object", int(chunk)), more, moreOverlap)
	dropped("after an append")
	stale, err := x1.gather(info, subs, proj)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tablesText(stale), tablesText(first); got != want {
		t.Errorf("the index built before the append gathers\n%s\nnot the tables it gathered then\n%s", got, want)
	}
	rows, overlap = append(rows, more...), append(overlap, moreOverlap...)
	if _, x := job("after an append", rows, overlap); x == x1 {
		t.Error("the job after an append kept the index from before it")
	}

	rows, overlap = hostileRows(r, ch, chunk, 2000, 800)
	batch, err := ingest.EncodeBatch(ingest.Batch{Rows: rows, Overlap: overlap})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HandleWrite(xrd.ReplPath("Object", int(chunk)), batch); err != nil {
		t.Fatal(err)
	}
	dropped("after a replace-install")
	job("after a replace-install", rows, overlap)
}

// tablesText prints built tables, in key order, for comparison.
func tablesText(built map[subchunkKey]*sqlengine.Table) string {
	var out []string
	for key, tbl := range built {
		var rows []sqlengine.Row
		for i := 0; i < tbl.Len(); i++ {
			rows = append(rows, tbl.Row(i))
		}
		out = append(out, fmt.Sprintf("%v %s %v %v", key, tbl.Name, tbl.Schema.Names(), rows))
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// TestEvictionDropsTheSubchunkIndex: under a memory budget, evicting a
// chunk unit drops its subchunk index with its tables, and neither the
// index nor the tables it was built from outlive the eviction; the next
// near-neighbour job rematerializes the unit and indexes it afresh.
func TestEvictionDropsTheSubchunkIndex(t *testing.T) {
	cfg := DefaultConfig("w-evict-index")
	cfg.DataDir = t.TempDir()
	cfg.MemoryBudgetBytes = 1 // everything unpinned must go
	w, chunk, payload := nearNeighbourFixtureOf(t, cfg, 500, 0.3)
	h, err := core.ParseHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := w.registry.Table("Object")
	proj := columnSet{all: true}.project(info)
	id := chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
	var kept []weak.Pointer[sqlengine.Table]
	var index weak.Pointer[subchunkIndex]
	func() {
		u := mustPin(t, w, id)
		defer w.units.unpin(u)
		if _, _, err := w.generateSubchunks(u, h.SubChunks, proj); err != nil {
			t.Fatal(err)
		}
		x, _ := w.units.subchunkIndex(u)
		if x == nil {
			t.Fatal("the job kept no subchunk index")
		}
		index, kept = weak.Make(x), []weak.Pointer[sqlengine.Table]{weak.Make(x.chunk), weak.Make(x.overlap)}
	}()
	w.units.evictLoop()
	// The worker's own evictor may be the one detaching: wait it out.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.units.mu.Lock()
		u := w.units.units[id]
		state, left := u.state, u.index
		w.units.mu.Unlock()
		if state == unitOnDisk && left != nil {
			t.Fatal("the evicted unit keeps its subchunk index")
		}
		if state == unitOnDisk {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the unpinned unit survived an over-budget evict pass")
		}
	}
	live := func() int {
		n := 0
		for _, p := range kept {
			if p.Value() != nil {
				n++
			}
		}
		if index.Value() != nil {
			n++
		}
		return n
	}
	for i := 0; i < 5 && live() > 0; i++ {
		runtime.GC()
	}
	if n := live(); n > 0 {
		t.Errorf("%d of the evicted index and the two tables it was built from live on", n)
	}

	u := mustPin(t, w, id)
	defer w.units.unpin(u)
	built, _, err := w.generateSubchunks(u, h.SubChunks, proj)
	if err != nil || len(built) != 2*len(slices.Compact(slices.Sorted(slices.Values(h.SubChunks)))) {
		t.Fatalf("the job after the eviction built %d tables (%v)", len(built), err)
	}
	if x, _ := w.units.subchunkIndex(u); x == nil || index.Value() == x {
		t.Error("the job after the eviction kept no fresh subchunk index")
	}
}

// hostileRows scatters n rows, with objectIds from first on, over a chunk
// and its margin and a little beyond, split into the chunk's own rows and
// its overlap rows as ingest splits them; one in forty has a NULL, NaN,
// infinite or off-the-sphere coordinate or a subChunkId the chunk has not.
func hostileRows(r *rand.Rand, ch *partition.Chunker, chunk partition.ChunkID, first, n int) (rows, overlap []sqlengine.Row) {
	bounds, _ := ch.ChunkBounds(chunk)
	dil := bounds.Dilated(ch.Config().Overlap + 0.2)
	for i := first; i < first+n; i++ {
		p := sphgeom.NewPoint(dil.RAMin+r.Float64()*dil.RAExtent(), dil.DeclMin+r.Float64()*(dil.DeclMax-dil.DeclMin))
		c, s := ch.Locate(p)
		var ra, decl sqlengine.Value = p.RA, p.Decl
		switch r.Intn(40) {
		case 0:
			decl = []sqlengine.Value{nil, math.NaN(), math.Inf(1), 90.0000001, -91.0}[r.Intn(5)]
		case 1:
			ra = []sqlengine.Value{nil, math.NaN(), math.Inf(-1), p.RA + 360, p.RA - 720}[r.Intn(5)]
		case 2:
			s = partition.SubChunkID([]int{-1, 1 << 20, int(s) + 1}[r.Intn(3)]) // a stored id is what it is
		}
		row := sqlengine.Row{int64(i), ra, decl, 1e-28, 1e-28, 1e-28, 1e-28, float64(i) * 1e-30, 1e-28, 2e-28, 0.05, int64(c), int64(s)}
		if c == chunk {
			rows = append(rows, row)
		} else {
			overlap = append(overlap, row)
		}
	}
	return rows, overlap
}

// checkExhaustive holds the subchunk tables built of a chunk whose unit
// holds rows and overlap to the exhaustive pass — every row against every
// requested subchunk — and to proj: each table has proj's columns, each row
// the kept cells of the row loaded under its objectId, and each table is in
// declination order behind its hostile rows.
func checkExhaustive(t *testing.T, label string, ch *partition.Chunker, chunk partition.ChunkID, rows, overlap []sqlengine.Row, subs []partition.SubChunkID, proj projection, built map[subchunkKey]*sqlengine.Table) {
	t.Helper()
	if len(built) != 2*len(subs) {
		t.Errorf("%s: %d tables built for %d subchunks", label, len(built), len(subs))
	}
	source := map[int64]sqlengine.Row{} // objectId -> the row as loaded, cut to the kept columns
	for _, row := range append(slices.Clone(rows), overlap...) {
		var cut sqlengine.Row
		for _, ci := range proj.cols {
			cut = append(cut, row[ci])
		}
		source[row[0].(int64)] = cut
	}
	coord := func(v sqlengine.Value) float64 {
		f, _ := v.(float64) // a NULL reads as 0, as Table.Float reads it
		return f
	}
	for _, sub := range subs {
		b, _ := ch.SubChunkBounds(chunk, sub)
		box := b.Dilated(ch.Config().Overlap)
		var own, ov []int64
		for _, row := range rows {
			if partition.SubChunkID(row[12].(int64)) == sub {
				own = append(own, row[0].(int64))
			} else if box.Contains(sphgeom.NewPoint(coord(row[1]), coord(row[2]))) {
				ov = append(ov, row[0].(int64))
			}
		}
		for _, row := range overlap {
			if box.Contains(sphgeom.NewPoint(coord(row[1]), coord(row[2]))) {
				ov = append(ov, row[0].(int64))
			}
		}
		for kind, want := range map[meta.NameKind][]int64{meta.SubChunkTable: own, meta.SubChunkOverlapTable: ov} {
			tbl := built[subchunkKey{"Object", kind, sub}]
			if tbl == nil {
				t.Fatalf("%s: no %v table built for subchunk %d", label, kind, sub)
			}
			name := tbl.Name
			if got, kept := tbl.Schema.Names(), proj.schema.Names(); !slices.Equal(got, kept) {
				t.Errorf("%s: %s has columns %v, want %v", label, name, got, kept)
			}
			var got []int64
			sorted, last := false, math.Inf(-1)
			declCol := tbl.Schema.ColIndex("decl_PS")
			for i := 0; i < tbl.Len(); i++ {
				row := tbl.Row(i)
				got = append(got, row[0].(int64))
				if want := source[row[0].(int64)]; fmt.Sprint(row) != fmt.Sprint(want) {
					t.Errorf("%s: %s row %d is %v, the loaded row's kept cells are %v", label, name, i, row, want)
				}
				decl, ok := row[declCol].(float64)
				switch inRange := ok && decl >= -90 && decl <= 90; {
				case !inRange && sorted:
					t.Errorf("%s: %s row %d has declination %v behind the sorted rows", label, name, i, row[declCol])
				case inRange && decl < last:
					t.Errorf("%s: %s row %d: declination %v after %v", label, name, i, decl, last)
				case inRange:
					sorted, last = true, decl
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s holds objects %v, the exhaustive pass assigns %v", label, name, got, want)
			}
		}
	}
}

// BenchmarkSubchunkBuild prices the subchunk and overlap tables of the
// near-neighbour fixture's job, with the columns its statements read, from
// the chunk's two stored tables: "warm" gathers them through the unit's
// subchunk index, as every job after the unit's first does, and "cold"
// builds the index first, as the first does (an empty append drops it
// before each build). ns per build and per row the index stands for.
// `make bench-layers` runs it.
func BenchmarkSubchunkBuild(b *testing.B) {
	w, chunk, payload := nearNeighbourFixture(b, DefaultConfig("w-build"))
	h, err := core.ParseHeader(payload)
	subs := h.SubChunks
	if err != nil || len(subs) == 0 {
		b.Fatalf("the payload has no SUBCHUNKS header (%v)", err)
	}
	stmts, err := sqlparse.ParseScript(string(payload))
	if err != nil {
		b.Fatal(err)
	}
	var sels []*sqlparse.Select
	for _, st := range stmts {
		sels = append(sels, st.(*sqlparse.Select))
	}
	info, _ := w.registry.Table("Object")
	proj := columnsRead(sels).project(info)
	id := chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
	u, err := w.units.pin(id, false)
	if err != nil {
		b.Fatal(err)
	}
	defer w.units.unpin(u)
	for _, cold := range []bool{false, true} {
		b.Run(map[bool]string{false: "warm", true: "cold"}[cold], func(b *testing.B) {
			var routed int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					bytes, _ := w.unitBytes(id)
					w.units.noteWrite(u, bytes)
				}
				_, st, err := w.generateSubchunks(u, subs, proj)
				if err != nil {
					b.Fatal(err)
				}
				routed = st.RowsScanned
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*routed), "ns/row")
			b.ReportMetric(float64(len(subs)), "subchunks")
		})
	}
}

// jobStats is the ExecStats of the last job the worker ran for payload.
func jobStats(t *testing.T, w *Worker, payload string) sqlengine.ExecStats {
	t.Helper()
	hash := xrd.ResultHash([]byte(payload))
	reps := w.Reports()
	for i := len(reps) - 1; i >= 0; i-- {
		if reps[i].Hash == hash {
			return reps[i].Stats
		}
	}
	t.Errorf("no report of a job for\n%s", payload)
	return sqlengine.ExecStats{}
}

// TestConcurrentNearNeighbourJobsShareNothing: near-neighbour jobs over one
// chunk at the same time, with SUBCHUNKS lists that overlap, each build
// their own tables and answer — rows and ExecStats — as each does alone,
// and the catalog never holds a subchunk table, during the jobs or after.
func TestConcurrentNearNeighbourJobsShareNothing(t *testing.T) {
	f := newReuseFixture(t)
	n := len(f.subs)
	if n < 8 {
		t.Fatalf("the fixture's payload lists %d subchunks", n)
	}
	// Job k lists a window of the subchunks overlapping the windows beside
	// it, and its pair is written for the window's first subchunk.
	s0 := fmt.Sprintf("_%d_%d ", f.chunk, f.subs[0])
	var payloads []string
	for k := 0; k < 8; k++ {
		window := f.subs[k*n/8 : min(n, k*n/8+n/4+2)]
		pair := strings.ReplaceAll(f.pair, s0, fmt.Sprintf("_%d_%d ", f.chunk, window[0]))
		payloads = append(payloads, f.header(window)+pair)
	}
	type outcome struct {
		answer string
		stats  sqlengine.ExecStats
	}
	alone := make([]outcome, len(payloads))
	pairs := int64(0)
	for k, p := range payloads {
		alone[k] = outcome{f.answer(p), jobStats(t, f.w, p)}
		if alone[k].answer == "failed" {
			t.Fatalf("job %d alone failed", k)
		}
		pairs += alone[k].stats.PairsConsidered
	}
	if pairs == 0 {
		t.Fatal("no job alone visits a pair")
	}

	done := make(chan struct{})
	sampled := make(chan int)
	go func() {
		samples := 0
		defer func() { sampled <- samples }()
		for {
			if names := catalogSubchunkTables(f.w); len(names) > 0 {
				t.Errorf("the catalog holds subchunk tables %v", names)
			}
			samples++
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (g + i) % len(payloads)
				// A comment of its own makes each payload a job of its own.
				p := payloads[k] + fmt.Sprintf("-- %d/%d\n", g, i)
				if got := (outcome{f.answer(p), jobStats(t, f.w, p)}); got != alone[k] {
					t.Errorf("goroutine %d job %d (window %d) answers\n%+v\nalone\n%+v", g, i, k, got, alone[k])
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if samples := <-sampled; samples < 2 {
		t.Errorf("the catalog was sampled %d times", samples)
	}
	if names := catalogSubchunkTables(f.w); len(names) > 0 {
		t.Errorf("after the jobs the catalog holds subchunk tables %v", names)
	}
}

// TestFinishedJobsSubchunkTablesAreCollected: the subchunk tables a job
// built are garbage once it ends, while the statements it ran sit in its
// dispatch for the next listed chunk — which takes them without a parse
// and answers as its one-chunk payload does.
func TestFinishedJobsSubchunkTablesAreCollected(t *testing.T) {
	f := newReuseFixture(t)
	tx := &txn{text: f.pair, first: core.DispatchChunk{Chunk: f.chunk, SubChunks: f.subs}}
	j := &job{chunk: f.chunk, class: core.FullScan, subs: f.subs, txn: tx, cancel: make(chan struct{})}
	run := &jobRun{w: f.w, j: j}
	if err := run.script(); err != nil {
		t.Fatal(err)
	}
	j.gang.leave(f.w, j.tables)
	if len(run.subchunks) != 2*len(f.subs) {
		t.Fatalf("the job built %d tables for %d subchunks", len(run.subchunks), len(f.subs))
	}
	var built []weak.Pointer[sqlengine.Table]
	for _, tbl := range run.subchunks {
		built = append(built, weak.Make(tbl))
	}
	run = nil
	live := func() int {
		n := 0
		for _, p := range built {
			if p.Value() != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < 5 && live() > 0; i++ {
		runtime.GC()
	}
	if tx.spare == nil || len(tx.free) != 0 {
		t.Fatalf("%d statement sets filed after the job beside the spare (%v), want the job's one as the spare", len(tx.free), tx.spare != nil)
	}
	if n := live(); n > 0 {
		t.Errorf("%d of the job's %d subchunk tables live on after it ended", n, len(built))
	}
	next := &job{chunk: f.chunk, class: core.FullScan, subs: f.other(f.subs), txn: tx, cancel: make(chan struct{})}
	run = &jobRun{w: f.w, j: next}
	run.opts.Sink = &run.out
	if err := run.script(); err != nil {
		t.Fatal(err)
	}
	next.gang.leave(f.w, next.tables)
	if run.parsed != 0 || run.reused != 2 {
		t.Errorf("the next job parsed %d statements and reused %d, want 0 and 2", run.parsed, run.reused)
	}
	got := run.out.Frame("r", run.schema, 0)
	want := f.answer(f.header(next.subs) + f.rebind(f.pair, f.subs[0], next.subs[0]))
	dec, err := dump.Decode(string(got))
	if err != nil || fmt.Sprintf("%v %v", dec.Schema, dec.Rows) != want {
		t.Errorf("the next job answers\n%v %v\nits one-chunk payload\n%s", dec.Schema, dec.Rows, want)
	}
}
