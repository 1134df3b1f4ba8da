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
	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sphgeom"
	"repro/internal/sqlengine"
	"repro/internal/xrd"
)

// TestSubchunkTablesAreTheExhaustiveOnes holds the linear subchunk build to
// the test it no longer runs against every target: for chunks at the
// equator, across RA 0/360 and at a pole, whose rows include NULL, NaN,
// infinite and off-the-sphere coordinates and subChunkIds the chunk has not,
// every subchunk table holds the rows whose stored subChunkId names it and
// every overlap table the other rows its dilated bounds contain — the rows
// the exhaustive pass assigned, found here by that pass — and each table is
// in declination order behind its hostile rows.
func TestSubchunkTablesAreTheExhaustiveOnes(t *testing.T) {
	for _, tc := range []struct {
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
		bounds, _ := ch.ChunkBounds(chunk)
		dil := bounds.Dilated(tc.cfg.Overlap + 0.2)
		r := rand.New(rand.NewSource(int64(chunk)))
		var rows, overlap []sqlengine.Row
		for i := 0; i < tc.rows; i++ {
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
			row := sqlengine.Row{int64(i), ra, decl, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 1e-28, 2e-28, 0.05, int64(c), int64(s)}
			if c == chunk {
				rows = append(rows, row)
			} else {
				overlap = append(overlap, row)
			}
		}
		load(t, w, xrd.LoadPath("Object", int(chunk)), rows, overlap)

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
		built, _, err := w.generateSubchunks(chunkstore.Unit{Table: "Object", Chunk: int(chunk)}, subs)
		if err != nil {
			t.Fatal(err)
		}
		if len(built) != 2*len(subs) {
			t.Errorf("%v chunk %d: %d tables built for %d subchunks", tc.cfg, chunk, len(built), len(subs))
		}
		// The exhaustive pass: every row against every target.
		coord := func(v sqlengine.Value) float64 {
			f, _ := v.(float64) // a NULL reads as 0, as Table.Float reads it
			return f
		}
		for _, sub := range subs {
			b, _ := ch.SubChunkBounds(chunk, sub)
			box := b.Dilated(tc.cfg.Overlap)
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
					t.Fatalf("%v chunk %d: no %v table built for subchunk %d", tc.cfg, chunk, kind, sub)
				}
				name := tbl.Name
				var got []int64
				sorted, last := false, math.Inf(-1)
				for i := 0; i < tbl.Len(); i++ {
					row := tbl.Row(i)
					got = append(got, row[0].(int64))
					decl, ok := row[2].(float64)
					switch inRange := ok && decl >= -90 && decl <= 90; {
					case !inRange && sorted:
						t.Errorf("%v chunk %d: %s row %d has declination %v behind the sorted rows", tc.cfg, chunk, name, i, row[2])
					case inRange && decl < last:
						t.Errorf("%v chunk %d: %s row %d: declination %v after %v", tc.cfg, chunk, name, i, decl, last)
					case inRange:
						sorted, last = true, decl
					}
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("%v chunk %d: %s holds objects %v, the exhaustive pass assigns %v", tc.cfg, chunk, name, got, want)
				}
			}
		}
		w.Close()
	}
}

// BenchmarkSubchunkBuild prices the build alone — the subchunk and overlap
// tables of the near-neighbour fixture's job, from the chunk's two stored
// tables — in ns per build and per row routed. `make bench-layers` runs it.
func BenchmarkSubchunkBuild(b *testing.B) {
	w, chunk, payload := nearNeighbourFixture(b, DefaultConfig("w-build"))
	h, err := core.ParseHeader(payload)
	subs := h.SubChunks
	if err != nil || len(subs) == 0 {
		b.Fatalf("the payload has no SUBCHUNKS header (%v)", err)
	}
	id := chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
	var routed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := w.generateSubchunks(id, subs)
		if err != nil {
			b.Fatal(err)
		}
		routed = st.RowsScanned
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*routed), "ns/row")
	b.ReportMetric(float64(len(subs)), "subchunks")
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
