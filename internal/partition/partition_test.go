package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sphgeom"
)

func paperChunker(t testing.TB) *Chunker {
	t.Helper()
	ch, err := NewChunker(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumStripes: 0, NumSubStripesPerStripe: 1},
		{NumStripes: 1, NumSubStripesPerStripe: 0},
		{NumStripes: 1, NumSubStripesPerStripe: 1, Overlap: -1},
		{NumStripes: 1, NumSubStripesPerStripe: 1, Overlap: 20},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
}

func TestPaperGeometry(t *testing.T) {
	ch := paperChunker(t)
	cfg := ch.Config()
	// Paper: stripe height ~2.11 deg, sub-stripe ~0.176 deg.
	if math.Abs(cfg.StripeHeight()-2.1176) > 0.01 {
		t.Errorf("stripe height = %g, want ~2.11", cfg.StripeHeight())
	}
	if math.Abs(cfg.SubStripeHeight()-0.1765) > 0.001 {
		t.Errorf("sub-stripe height = %g, want ~0.176", cfg.SubStripeHeight())
	}
	// Paper: 8983 chunks. Our equal-area assignment differs slightly in
	// rounding; demand the same order (within 5%).
	total := ch.TotalChunks()
	if total < 8500 || total > 9500 {
		t.Errorf("total chunks = %d, want ~8983", total)
	}
	// Equatorial chunk area ~4.5 deg^2.
	equatorStripe := cfg.NumStripes / 2
	id := ch.chunkIDFor(equatorStripe, 0)
	b, err := ch.ChunkBounds(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Area()-4.5) > 0.5 {
		t.Errorf("equatorial chunk area = %g, want ~4.5", b.Area())
	}
	// Subchunk area ~0.031 deg^2.
	sb, err := ch.SubChunkBounds(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sb.Area()-0.031) > 0.005 {
		t.Errorf("subchunk area = %g, want ~0.031", sb.Area())
	}
}

func TestLocateInBounds(t *testing.T) {
	ch := paperChunker(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := sphgeom.NewPoint(rng.Float64()*360, rng.Float64()*180-90)
		id, sub := ch.Locate(p)
		b, err := ch.ChunkBounds(id)
		if err != nil {
			t.Fatalf("Locate(%v) gave invalid chunk %d: %v", p, id, err)
		}
		if !b.Contains(p) {
			t.Fatalf("chunk %d bounds %v do not contain %v", id, b, p)
		}
		sb, err := ch.SubChunkBounds(id, sub)
		if err != nil {
			t.Fatalf("invalid subchunk %d of chunk %d: %v", sub, id, err)
		}
		if !sb.Contains(p) {
			t.Fatalf("subchunk %d_%d bounds %v do not contain %v", id, sub, sb, p)
		}
	}
}

func TestLocatePoles(t *testing.T) {
	ch := paperChunker(t)
	for _, p := range []sphgeom.Point{
		{RA: 0, Decl: 90}, {RA: 123, Decl: -90}, {RA: 359.999, Decl: 89.999},
	} {
		id, sub := ch.Locate(p)
		b, err := ch.ChunkBounds(id)
		if err != nil || !b.Contains(p) {
			t.Errorf("polar point %v misplaced in chunk %d (%v, err %v)", p, id, b, err)
		}
		if _, err := ch.SubChunkBounds(id, sub); err != nil {
			t.Errorf("polar subchunk invalid: %v", err)
		}
	}
}

func TestChunkIDsDenseAndUnique(t *testing.T) {
	ch := paperChunker(t)
	seen := make(map[ChunkID]bool)
	for s := 0; s < ch.NumStripes(); s++ {
		for c := 0; c < ch.ChunksInStripe(s); c++ {
			id := ch.chunkIDFor(s, c)
			if seen[id] {
				t.Fatalf("duplicate chunk id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != ch.TotalChunks() {
		t.Fatalf("id count %d != total %d", len(seen), ch.TotalChunks())
	}
	// Dense: 0..total-1.
	for i := 0; i < ch.TotalChunks(); i++ {
		if !seen[ChunkID(i)] {
			t.Fatalf("missing chunk id %d", i)
		}
	}
}

func TestDecomposeRoundTrip(t *testing.T) {
	ch := paperChunker(t)
	for i := 0; i < ch.TotalChunks(); i += 97 {
		s, c, err := ch.decompose(ChunkID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := ch.chunkIDFor(s, c); got != ChunkID(i) {
			t.Fatalf("round trip %d -> (%d,%d) -> %d", i, s, c, got)
		}
	}
	if _, _, err := ch.decompose(ChunkID(ch.TotalChunks())); err == nil {
		t.Error("out-of-range decompose should fail")
	}
	if _, _, err := ch.decompose(ChunkID(-1)); err == nil {
		t.Error("negative decompose should fail")
	}
}

func TestChunkBoundsTileSphere(t *testing.T) {
	// Bounds of all chunks in a stripe must tile [0,360) without gaps.
	ch := paperChunker(t)
	for _, s := range []int{0, 10, 42, 84} {
		total := 0.0
		for c := 0; c < ch.ChunksInStripe(s); c++ {
			b, err := ch.ChunkBounds(ch.chunkIDFor(s, c))
			if err != nil {
				t.Fatal(err)
			}
			total += b.RAExtent()
		}
		if math.Abs(total-360) > 1e-6 {
			t.Errorf("stripe %d chunks cover %g deg RA, want 360", s, total)
		}
	}
}

func TestChunksInSmallBox(t *testing.T) {
	ch := paperChunker(t)
	// A 1-deg^2 box near the equator should touch only a handful of
	// ~4.5 deg^2 chunks (at most 4 with aligned edges).
	box := sphgeom.NewBox(1, 2, 3, 4)
	ids := ch.ChunksIn(box)
	if len(ids) == 0 || len(ids) > 6 {
		t.Errorf("1 deg^2 box hit %d chunks, want 1..6", len(ids))
	}
	// Every chunk containing a point of the box must be present.
	id, _ := ch.Locate(sphgeom.NewPoint(1.5, 3.5))
	found := false
	for _, x := range ids {
		if x == id {
			found = true
		}
	}
	if !found {
		t.Errorf("ChunksIn missing chunk %d containing box center", id)
	}
}

func TestChunksInFullSky(t *testing.T) {
	ch := paperChunker(t)
	ids := ch.ChunksIn(sphgeom.FullSky())
	if len(ids) != ch.TotalChunks() {
		t.Errorf("full sky hit %d chunks, want %d", len(ids), ch.TotalChunks())
	}
}

func TestChunksInWrappingBox(t *testing.T) {
	ch := paperChunker(t)
	// PT1.1 patch wraps RA through 0.
	box := sphgeom.NewBox(358, 365, -7, 7)
	ids := ch.ChunksIn(box)
	if len(ids) == 0 {
		t.Fatal("wrapping box hit no chunks")
	}
	want := map[ChunkID]bool{}
	for _, ra := range []float64{358.5, 0.5, 4.5} {
		id, _ := ch.Locate(sphgeom.NewPoint(ra, 0))
		want[id] = true
	}
	got := map[ChunkID]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for id := range want {
		if !got[id] {
			t.Errorf("wrapping cover missing chunk %d", id)
		}
	}
}

func TestChunksInCoverProperty(t *testing.T) {
	// Any point inside a region must be in a chunk listed by ChunksIn.
	ch := paperChunker(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		ra := rng.Float64() * 360
		decl := rng.Float64()*160 - 80
		box := sphgeom.NewBox(ra, ra+rng.Float64()*10, decl, decl+rng.Float64()*10)
		ids := ch.ChunksIn(box)
		inCover := make(map[ChunkID]bool, len(ids))
		for _, id := range ids {
			inCover[id] = true
		}
		for k := 0; k < 10; k++ {
			p := sphgeom.NewPoint(
				box.RAMin+rng.Float64()*box.RAExtent(),
				box.DeclMin+rng.Float64()*(box.DeclMax-box.DeclMin),
			)
			if !box.Contains(p) {
				continue
			}
			id, _ := ch.Locate(p)
			if !inCover[id] {
				t.Fatalf("point %v in box %v is in chunk %d, not in cover (%d chunks)", p, box, id, len(ids))
			}
		}
	}
}

func TestSubChunksIn(t *testing.T) {
	ch := paperChunker(t)
	id, sub := ch.Locate(sphgeom.NewPoint(10, 0))
	sb, err := ch.SubChunkBounds(id, sub)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := ch.SubChunksIn(id, sb)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range subs {
		if s == sub {
			found = true
		}
	}
	if !found {
		t.Errorf("SubChunksIn missing subchunk %d", sub)
	}
	all, err := ch.AllSubChunks(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) >= len(all) {
		t.Errorf("restricted subchunk cover (%d) not smaller than all (%d)", len(subs), len(all))
	}
}

func TestOverlapMembership(t *testing.T) {
	ch := paperChunker(t)
	id, _ := ch.Locate(sphgeom.NewPoint(10, 0))
	b, err := ch.ChunkBounds(id)
	if err != nil {
		t.Fatal(err)
	}
	// A point just outside the RA max edge, within overlap.
	p := sphgeom.NewPoint(b.RAMax+ch.Config().Overlap/2, 0)
	in, err := ch.InOverlap(id, p)
	if err != nil || !in {
		t.Errorf("point just outside edge should be in overlap (got %v, err %v)", in, err)
	}
	// A point inside the chunk is NOT in the overlap.
	inside := sphgeom.NewPoint((b.RAMin+b.RAMax)/2, 0)
	in, err = ch.InOverlap(id, inside)
	if err != nil || in {
		t.Errorf("interior point should not be in overlap (got %v, err %v)", in, err)
	}
	// A point far away is not in the overlap.
	far := sphgeom.NewPoint(b.RAMax+5, 0)
	in, err = ch.InOverlap(id, far)
	if err != nil || in {
		t.Errorf("distant point should not be in overlap (got %v, err %v)", in, err)
	}
}

func TestOverlapCompleteness(t *testing.T) {
	// Fundamental overlap invariant (paper section 4.4): for any two points
	// p, q with AngSep(p, q) < Overlap, the chunk owning p must see q
	// either as a member or as overlap.
	ch := paperChunker(t)
	rng := rand.New(rand.NewSource(5))
	overlap := ch.Config().Overlap
	for i := 0; i < 3000; i++ {
		p := sphgeom.NewPoint(rng.Float64()*360, rng.Float64()*160-80)
		theta := rng.Float64() * 2 * math.Pi
		r := rng.Float64() * overlap * 0.98
		q := sphgeom.NewPoint(
			p.RA+r*math.Cos(theta)/math.Cos(sphgeom.RadOf(p.Decl)),
			p.Decl+r*math.Sin(theta),
		)
		if sphgeom.AngSep(p, q) >= overlap {
			continue
		}
		idP, _ := ch.Locate(p)
		idQ, _ := ch.Locate(q)
		if idP == idQ {
			continue
		}
		in, err := ch.InOverlap(idP, q)
		if err != nil {
			t.Fatal(err)
		}
		if !in {
			t.Fatalf("q=%v at %.5f deg from p=%v not visible from chunk %d (q in %d)",
				q, sphgeom.AngSep(p, q), p, idP, idQ)
		}
	}
}

func TestSubChunkOverlapCompleteness(t *testing.T) {
	ch := paperChunker(t)
	rng := rand.New(rand.NewSource(17))
	overlap := ch.Config().Overlap
	for i := 0; i < 2000; i++ {
		p := sphgeom.NewPoint(rng.Float64()*360, rng.Float64()*160-80)
		theta := rng.Float64() * 2 * math.Pi
		r := rng.Float64() * overlap * 0.98
		q := sphgeom.NewPoint(
			p.RA+r*math.Cos(theta)/math.Cos(sphgeom.RadOf(p.Decl)),
			p.Decl+r*math.Sin(theta),
		)
		if sphgeom.AngSep(p, q) >= overlap {
			continue
		}
		idP, subP := ch.Locate(p)
		idQ, subQ := ch.Locate(q)
		if idP == idQ && subP == subQ {
			continue
		}
		in, err := ch.InSubChunkOverlap(idP, subP, q)
		if err != nil {
			t.Fatal(err)
		}
		if !in {
			t.Fatalf("q=%v at %.5f deg from p=%v not in overlap of subchunk %d_%d",
				q, sphgeom.AngSep(p, q), p, idP, subP)
		}
	}
}

func TestLocateQuickProperty(t *testing.T) {
	ch := paperChunker(t)
	f := func(ra, decl float64) bool {
		if math.IsNaN(ra) || math.IsInf(ra, 0) || math.IsNaN(decl) || math.IsInf(decl, 0) {
			return true
		}
		p := sphgeom.NewPoint(sphgeom.WrapRA(ra), sphgeom.ClampDecl(decl))
		id, sub := ch.Locate(p)
		b, err := ch.ChunkBounds(id)
		if err != nil || !b.Contains(p) {
			return false
		}
		sb, err := ch.SubChunkBounds(id, sub)
		return err == nil && sb.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSmallConfig(t *testing.T) {
	// A tiny config used throughout the repo's integration tests.
	ch, err := NewChunker(Config{NumStripes: 12, NumSubStripesPerStripe: 4, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ch.TotalChunks() < 12 {
		t.Errorf("small config only %d chunks", ch.TotalChunks())
	}
	p := sphgeom.NewPoint(45, 22)
	id, sub := ch.Locate(p)
	sb, err := ch.SubChunkBounds(id, sub)
	if err != nil || !sb.Contains(p) {
		t.Errorf("small config misplaced %v (err %v)", p, err)
	}
}

func BenchmarkLocate(b *testing.B) {
	ch := paperChunker(b)
	rng := rand.New(rand.NewSource(1))
	pts := make([]sphgeom.Point, 1024)
	for i := range pts {
		pts[i] = sphgeom.NewPoint(rng.Float64()*360, rng.Float64()*180-90)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Locate(pts[i%len(pts)])
	}
}

// BenchmarkChunksInBox routes a 10° box at PaperConfig() and a half-degree
// box inside one chunk at 18 stripes and at PaperConfig().
func BenchmarkChunksInBox(b *testing.B) {
	small := sphgeom.NewBox(100.1, 100.6, 1.1, 1.6)
	for _, bc := range []struct {
		name string
		cfg  Config
		box  sphgeom.Box
	}{
		{"paper/10deg", PaperConfig(), sphgeom.NewBox(0, 10, 0, 10)},
		{"paper/halfdeg", PaperConfig(), small},
		{"stripes=18/halfdeg", Config{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5}, small},
	} {
		ch, err := NewChunker(bc.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if len(ch.ChunksIn(bc.box)) == 0 {
					b.Fatal("no chunk")
				}
			}
		})
	}
}

// exhaustiveChunksIn is ChunksIn as it was: every chunk of every stripe the
// bound touches, tested against the bound.
func exhaustiveChunksIn(ch *Chunker, r sphgeom.Region) []ChunkID {
	bound := r.Bound()
	var ids []ChunkID
	h := ch.cfg.StripeHeight()
	for s := ch.stripeOf(bound.DeclMin); s <= ch.stripeOf(bound.DeclMax); s++ {
		n := ch.numChunksPerStripe[s]
		width := 360.0 / float64(n)
		declMin := -90 + float64(s)*h
		stripeBox := sphgeom.Box{RAMin: 0, RAMax: 360, DeclMin: declMin, DeclMax: declMin + h}
		if !stripeBox.Intersects(bound) {
			continue
		}
		for c := 0; c < n; c++ {
			raMin := float64(c) * width
			if sphgeom.NewBox(raMin, raMin+width, declMin, declMin+h).Intersects(bound) {
				ids = append(ids, ch.chunkIDFor(s, c))
			}
		}
	}
	return ids
}

// TestChunksInIsTheExhaustiveCover: the cover ChunksIn computes from a
// region's RA is the one testing every chunk of each stripe gives, for
// seeded boxes and circles at several geometries — boxes that straddle RA 0,
// boxes that touch a pole, boxes whose edges sit on chunk edges, full-circle
// and tiny ones.
func TestChunksInIsTheExhaustiveCover(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, cfg := range []Config{
		{NumStripes: 18, NumSubStripesPerStripe: 4, Overlap: 0.5},
		{NumStripes: 7, NumSubStripesPerStripe: 2, Overlap: 1},
		{NumStripes: 1, NumSubStripesPerStripe: 1, Overlap: 0},
		PaperConfig(),
	} {
		ch, err := NewChunker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		regions := []sphgeom.Region{
			sphgeom.FullSky(),
			sphgeom.NewBox(350, 10, -5, 5),
			sphgeom.NewBox(359.9, 0.1, 80, 90),
			sphgeom.NewBox(0, 0.001, -90, -89.9),
			sphgeom.NewBox(0, 360, 10, 11),
			sphgeom.NewCircle(sphgeom.NewPoint(0, 89.5), 1),
			sphgeom.NewCircle(sphgeom.NewPoint(359.99, 0), 0.5),
		}
		for s := range cfg.NumStripes {
			w := 360 / float64(ch.ChunksInStripe(s))
			decl := -90 + (float64(s)+0.5)*cfg.StripeHeight()
			regions = append(regions, sphgeom.NewBox(w, 2*w, decl, decl), sphgeom.NewBox(360-w, 360, decl-0.1, decl+0.1))
		}
		for range 3000 {
			ra, decl := rng.Float64()*360, rng.Float64()*180-90
			switch rng.Intn(4) {
			case 0:
				regions = append(regions, sphgeom.NewCircle(sphgeom.NewPoint(ra, decl), rng.Float64()*rng.Float64()*20))
			case 1: // straddles RA 0
				regions = append(regions, sphgeom.NewBox(360-rng.Float64()*30, rng.Float64()*30, decl, decl+rng.Float64()*10))
			case 2: // touches a pole
				pole := 90.0
				if rng.Intn(2) == 0 {
					pole = -90
				}
				regions = append(regions, sphgeom.NewBox(ra, ra+rng.Float64()*100, pole, pole-math.Copysign(rng.Float64()*15, pole)))
			default:
				regions = append(regions, sphgeom.NewBox(ra, ra+rng.Float64()*rng.Float64()*200, decl, decl+rng.Float64()*rng.Float64()*60))
			}
		}
		for _, r := range regions {
			if got, want := ch.ChunksIn(r), exhaustiveChunksIn(ch, r); !slices.Equal(got, want) {
				t.Fatalf("%d stripes, %v: ChunksIn %v, the exhaustive cover %v", cfg.NumStripes, r, got, want)
			}
		}
	}
}
