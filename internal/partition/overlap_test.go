package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sphgeom"
)

// bruteOverlapChunks is the ground truth for OverlapChunks: test every
// chunk on the sphere with InOverlap.
func bruteOverlapChunks(ch *Chunker, p sphgeom.Point) map[ChunkID]bool {
	own, _ := ch.Locate(p)
	out := map[ChunkID]bool{}
	for _, c := range ch.AllChunks() {
		if c == own {
			continue
		}
		if in, err := ch.InOverlap(c, p); err == nil && in {
			out[c] = true
		}
	}
	return out
}

// legacyProbeOverlapChunks reproduces the pre-derivation heuristic: a
// fixed ±3*margin probe box filtered through InOverlap. Kept here only
// to prove the regression test below would have caught it.
func legacyProbeOverlapChunks(ch *Chunker, p sphgeom.Point) map[ChunkID]bool {
	margin := ch.Config().Overlap
	own, _ := ch.Locate(p)
	probe := sphgeom.NewBox(p.RA-margin*3, p.RA+margin*3, p.Decl-margin*3, p.Decl+margin*3)
	out := map[ChunkID]bool{}
	for _, c := range ch.ChunksIn(probe) {
		if c == own {
			continue
		}
		if in, err := ch.InOverlap(c, p); err == nil && in {
			out[c] = true
		}
	}
	return out
}

func overlapChunker(t *testing.T) *Chunker {
	t.Helper()
	ch, err := NewChunker(Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestOverlapChunksMatchesBruteForce checks the derived probe against
// the exhaustive InOverlap sweep at every declination regime,
// including the poles where the dilated bounds go full-circle.
func TestOverlapChunksMatchesBruteForce(t *testing.T) {
	ch := overlapChunker(t)
	rng := rand.New(rand.NewSource(11))
	points := []sphgeom.Point{
		sphgeom.NewPoint(0.01, 0.01),     // chunk corner near the equator
		sphgeom.NewPoint(359.99, -0.3),   // wrap meridian
		sphgeom.NewPoint(12, 89.7),       // polar cap
		sphgeom.NewPoint(200, -89.9),     // south polar cap
		sphgeom.NewPoint(45.0, 79.999),   // high-decl stripe boundary
		sphgeom.NewPoint(180.0001, 70.0), // high-decl chunk boundary
	}
	for i := 0; i < 300; i++ {
		points = append(points, sphgeom.NewPoint(rng.Float64()*360, -90+rng.Float64()*180))
	}
	for _, p := range points {
		want := bruteOverlapChunks(ch, p)
		got := ch.OverlapChunks(p)
		if len(got) != len(want) {
			t.Fatalf("point %v: got %d overlap chunks %v, want %d %v", p, len(got), got, len(want), keys(want))
		}
		for _, c := range got {
			if !want[c] {
				t.Fatalf("point %v: chunk %d reported but not in overlap", p, c)
			}
		}
	}
}

func keys(m map[ChunkID]bool) []ChunkID {
	out := make([]ChunkID, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	return out
}

// TestOverlapChunksMarginBoundary places a point just inside and just
// outside the overlap margin of the chunk below it: the margin is an
// exact declination distance, so the boundary is sharp.
func TestOverlapChunksMarginBoundary(t *testing.T) {
	ch := overlapChunker(t)
	margin := ch.Config().Overlap
	// Stripe bands are [-90+10k, -90+10k+10); decl 10 is a boundary.
	const boundary = 10.0
	below, _ := ch.Locate(sphgeom.NewPoint(33, boundary-0.01))

	contains := func(cs []ChunkID, c ChunkID) bool {
		for _, x := range cs {
			if x == c {
				return true
			}
		}
		return false
	}
	inside := sphgeom.NewPoint(33, boundary+margin-0.01)
	if !contains(ch.OverlapChunks(inside), below) {
		t.Errorf("point %g inside the margin of chunk %d not reported", inside.Decl, below)
	}
	outside := sphgeom.NewPoint(33, boundary+margin+0.01)
	if contains(ch.OverlapChunks(outside), below) {
		t.Errorf("point %g outside the margin of chunk %d reported", outside.Decl, below)
	}
}

// TestOverlapProbeHighDeclinationRegression pins the bug the derived
// probe fixes: near the poles the overlap margin in RA widens by
// 1/cos(decl), which exceeds the old fixed 3x dilation beyond ~70.5
// degrees — the old probe provably missed chunks whose overlap the
// point is inside.
func TestOverlapProbeHighDeclinationRegression(t *testing.T) {
	ch := overlapChunker(t)
	missed := 0
	// Sweep points at high declination sitting 2-3 margins away (in
	// RA) from a chunk boundary: inside the neighbor's dilated bounds
	// (raMargin there is ~3+ margins), outside the old probe.
	for ra := 0.25; ra < 360; ra += 7.3 {
		p := sphgeom.NewPoint(ra, 78.5)
		want := bruteOverlapChunks(ch, p)
		old := legacyProbeOverlapChunks(ch, p)
		got := ch.OverlapChunks(p)
		if len(got) != len(want) {
			t.Fatalf("point %v: derived probe found %v, brute force %v", p, got, keys(want))
		}
		missed += len(want) - len(old)
	}
	if missed <= 0 {
		t.Fatalf("expected the legacy 3x-margin probe to miss high-declination overlap chunks; it missed %d", missed)
	}
}

// TestSubChunkNeighboursFindsEveryDilatedBox holds Candidates to the test
// it replaces: over geometries from coarse to fine, chunks at the equator,
// across RA 0/360 and at both poles, and points spread over each chunk's
// dilated bounds (its rows and its overlap rows) plus hostile ones, every
// subchunk whose dilated bounds contain the point is a candidate, and the
// candidates are few.
func TestSubChunkNeighboursFindsEveryDilatedBox(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, cfg := range []Config{
		{NumStripes: 12, NumSubStripesPerStripe: 12, Overlap: 0.5},
		{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5},
		{NumStripes: 18, NumSubStripesPerStripe: 20, Overlap: 1},
		{NumStripes: 6, NumSubStripesPerStripe: 6, Overlap: 0.1},
		{NumStripes: 3, NumSubStripesPerStripe: 2, Overlap: 2},
		{NumStripes: 85, NumSubStripesPerStripe: 12, Overlap: 0.01667},
		{NumStripes: 12, NumSubStripesPerStripe: 12, Overlap: 0},
	} {
		ch, err := NewChunker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chunks := []ChunkID{0, ChunkID(ch.TotalChunks() - 1)}
		for _, p := range []sphgeom.Point{{RA: 0.01, Decl: 0.01}, {RA: 359.99, Decl: -0.01}, {RA: 123, Decl: 41}, {RA: 200, Decl: -77}, {RA: 10, Decl: 88.5}} {
			c, _ := ch.Locate(p)
			chunks = append(chunks, c)
		}
		for _, chunk := range chunks {
			nb, err := ch.SubChunkNeighbours(chunk)
			if err != nil {
				t.Fatal(err)
			}
			subs, _ := ch.AllSubChunks(chunk)
			dil := make([]sphgeom.Box, len(subs))
			for i, s := range subs {
				b, err := ch.SubChunkBounds(chunk, s)
				if err != nil {
					t.Fatal(err)
				}
				dil[i] = b.Dilated(cfg.Overlap)
			}
			bounds, _ := ch.ChunkBounds(chunk)
			reach := bounds.Dilated(2*cfg.Overlap + 0.1)
			points := []sphgeom.Point{
				{RA: math.NaN(), Decl: 0}, {RA: 0, Decl: math.NaN()}, {RA: math.Inf(1), Decl: 10}, {RA: 10, Decl: math.Inf(-1)},
				{RA: -0.0001, Decl: bounds.DeclMin}, {RA: 720.5, Decl: bounds.DeclMax}, {RA: 1e300, Decl: -1e300},
				{RA: bounds.RAMin, Decl: bounds.DeclMin}, {RA: bounds.RAMax, Decl: bounds.DeclMax},
			}
			for i := 0; i < 4000; i++ {
				ra := reach.RAMin + r.Float64()*reach.RAExtent()
				points = append(points, sphgeom.Point{RA: ra, Decl: reach.DeclMin + r.Float64()*(reach.DeclMax-reach.DeclMin)})
			}
			// Points on subchunk edges and exactly a margin beyond them.
			for _, d := range dil[:min(len(dil), 40)] {
				points = append(points, sphgeom.Point{RA: d.RAMin, Decl: d.DeclMin}, sphgeom.Point{RA: d.RAMax, Decl: d.DeclMax})
			}
			var cands []SubChunkID
			total := 0
			for _, p := range points {
				cands = nb.Candidates(p, cands[:0])
				total += len(cands)
				is := map[SubChunkID]bool{}
				for i, s := range cands {
					if is[s] || (i > 0 && s <= cands[i-1]) {
						t.Fatalf("%+v chunk %d point %+v: candidates %v are not ascending and distinct", cfg, chunk, p, cands)
					}
					is[s] = true
				}
				for i, s := range subs {
					if dil[i].Contains(p) && !is[s] {
						t.Fatalf("%+v chunk %d: subchunk %d's dilated bounds %v contain %+v, but it is no candidate (%v)",
							cfg, chunk, s, dil[i], p, cands)
					}
				}
			}
			// A point has a handful of candidates, not the chunk's subchunks,
			// unless the chunk is so small that a margin spans it.
			if finite := len(points) - 4; len(subs) >= 100 && cfg.Overlap <= 0.5 && total > 16*finite {
				t.Errorf("%+v chunk %d: %d candidates for %d points of %d subchunks", cfg, chunk, total, finite, len(subs))
			}
		}
	}
}
