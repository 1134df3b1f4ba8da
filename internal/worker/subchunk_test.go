package worker

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chunkstore"
	"repro/internal/core"
	"repro/internal/datagen"
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
		if _, err := w.generateSubchunks(chunkstore.Unit{Table: "Object", Chunk: int(chunk)}, subs); err != nil {
			t.Fatal(err)
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
			for name, want := range map[string][]int64{
				meta.SubChunkTableName("Object", chunk, sub):        own,
				meta.SubChunkOverlapTableName("Object", chunk, sub): ov,
			} {
				tbl, err := w.db.Table(name)
				if err != nil {
					t.Fatal(err)
				}
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
	_, subs, _, err := core.ParseHeader(payload)
	if err != nil || len(subs) == 0 {
		b.Fatalf("the payload has no SUBCHUNKS header (%v)", err)
	}
	id := chunkstore.Unit{Table: "Object", Chunk: int(chunk)}
	var routed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := w.generateSubchunks(id, subs)
		if err != nil {
			b.Fatal(err)
		}
		routed = st.RowsScanned
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*routed), "ns/row")
	b.ReportMetric(float64(len(subs)), "subchunks")
}
