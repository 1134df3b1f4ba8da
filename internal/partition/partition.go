// Package partition implements Qserv's two-level spherical partitioning
// (paper sections 4.4 and 5.2).
//
// The sphere is divided into NumStripes equal-height declination stripes.
// Each stripe is divided into chunks whose RA width is chosen so chunk
// area is roughly constant across stripes (fewer chunks per stripe near
// the poles). Each stripe is further divided into NumSubStripesPerStripe
// sub-stripes, and each chunk into subchunks, again with roughly equal
// area. A row is assigned a chunkId and a subChunkId from its (ra, decl).
//
// The paper's test configuration — 85 stripes of 12 sub-stripes, giving a
// stripe height of ~2.11 degrees, chunk area ~4.5 deg^2, subchunk area
// ~0.031 deg^2, and 8983 chunks with Source clipped to |decl| <= 54 — is
// available as PaperConfig.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sphgeom"
)

// Config describes a two-level partitioning of the sphere.
type Config struct {
	// NumStripes is the number of equal-height declination stripes.
	NumStripes int
	// NumSubStripesPerStripe is the number of sub-stripes per stripe.
	NumSubStripesPerStripe int
	// Overlap is the margin, in degrees, stored with each partition so
	// spatial joins within Overlap of a border need no remote data.
	Overlap float64
}

// PaperConfig returns the configuration used in the paper's 150-node test:
// 85 stripes, 12 sub-stripes per stripe, 1 arc-minute overlap.
func PaperConfig() Config {
	return Config{NumStripes: 85, NumSubStripesPerStripe: 12, Overlap: 0.01667}
}

// Validate checks the configuration for usability.
func (c Config) Validate() error {
	if c.NumStripes < 1 {
		return fmt.Errorf("partition: NumStripes must be >= 1, got %d", c.NumStripes)
	}
	if c.NumSubStripesPerStripe < 1 {
		return fmt.Errorf("partition: NumSubStripesPerStripe must be >= 1, got %d", c.NumSubStripesPerStripe)
	}
	if c.Overlap < 0 {
		return fmt.Errorf("partition: Overlap must be >= 0, got %g", c.Overlap)
	}
	if c.Overlap > 10 {
		return fmt.Errorf("partition: Overlap %g deg is unreasonably large", c.Overlap)
	}
	return nil
}

// StripeHeight returns the declination height of one stripe in degrees.
func (c Config) StripeHeight() float64 { return 180.0 / float64(c.NumStripes) }

// SubStripeHeight returns the declination height of one sub-stripe.
func (c Config) SubStripeHeight() float64 {
	return c.StripeHeight() / float64(c.NumSubStripesPerStripe)
}

// Chunker assigns chunk and subchunk IDs and enumerates partitions.
// It is immutable after construction and safe for concurrent use.
type Chunker struct {
	cfg Config
	// numChunksPerStripe[s] is the number of chunks in stripe s.
	numChunksPerStripe []int
	// numSubChunksPerChunk[s] is the number of subchunks along RA within
	// one chunk of stripe s (per sub-stripe row).
	numSubChunksPerChunk []int
}

// NewChunker builds a Chunker for the configuration.
func NewChunker(cfg Config) (*Chunker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Chunker{
		cfg:                  cfg,
		numChunksPerStripe:   make([]int, cfg.NumStripes),
		numSubChunksPerChunk: make([]int, cfg.NumStripes),
	}
	h := cfg.StripeHeight()
	for s := 0; s < cfg.NumStripes; s++ {
		// Declination of the stripe edge closest to the equator decides
		// the RA compression factor, so chunks are at least as wide as
		// they would be at the equator.
		declMin := -90 + float64(s)*h
		declMax := declMin + h
		cosMax := minAbsCos(declMin, declMax)
		// Number of chunks so that chunk RA width * cos(decl) ~ stripe
		// height: roughly square, roughly equal-area chunks.
		n := int(math.Floor(2 * math.Pi * cosMax / sphgeom.RadOf(h)))
		if n < 1 {
			n = 1
		}
		ch.numChunksPerStripe[s] = n
		// Subchunks along RA inside one chunk, so subchunks are roughly
		// square relative to the sub-stripe height.
		chunkWidth := 360.0 / float64(n)
		subH := cfg.SubStripeHeight()
		m := int(math.Floor(chunkWidth * cosMax / subH))
		if m < 1 {
			m = 1
		}
		ch.numSubChunksPerChunk[s] = m
	}
	return ch, nil
}

// minAbsCos returns cos at the declination of smallest |decl| in the band,
// i.e. the widest point of the stripe.
func minAbsCos(declMin, declMax float64) float64 {
	if declMin <= 0 && declMax >= 0 {
		return 1
	}
	a := math.Min(math.Abs(declMin), math.Abs(declMax))
	return math.Cos(sphgeom.RadOf(a))
}

// Config returns the chunker's configuration.
func (ch *Chunker) Config() Config { return ch.cfg }

// NumStripes returns the number of declination stripes.
func (ch *Chunker) NumStripes() int { return ch.cfg.NumStripes }

// ChunksInStripe returns the number of chunks in the given stripe.
func (ch *Chunker) ChunksInStripe(stripe int) int {
	return ch.numChunksPerStripe[stripe]
}

// TotalChunks returns the number of chunks covering the whole sphere.
func (ch *Chunker) TotalChunks() int {
	total := 0
	for _, n := range ch.numChunksPerStripe {
		total += n
	}
	return total
}

// SubChunksPerChunk returns how many subchunks one chunk of the given
// stripe contains (sub-stripe rows x subchunks per row).
func (ch *Chunker) SubChunksPerChunk(stripe int) int {
	return ch.cfg.NumSubStripesPerStripe * ch.numSubChunksPerChunk[stripe]
}

// stripeOf returns the stripe index of a declination.
func (ch *Chunker) stripeOf(decl float64) int {
	s := int(math.Floor((decl + 90) / ch.cfg.StripeHeight()))
	if s < 0 {
		s = 0
	}
	if s >= ch.cfg.NumStripes {
		s = ch.cfg.NumStripes - 1
	}
	return s
}

// chunkIDFor composes the external chunkId from (stripe, chunk-in-stripe).
// IDs are dense per stripe: stripe s starts at offset(s).
func (ch *Chunker) chunkIDFor(stripe, chunkInStripe int) ChunkID {
	return ChunkID(ch.stripeOffset(stripe) + chunkInStripe)
}

func (ch *Chunker) stripeOffset(stripe int) int {
	off := 0
	for s := 0; s < stripe; s++ {
		off += ch.numChunksPerStripe[s]
	}
	return off
}

// ChunkID identifies a first-level partition (the CC in Object_CC).
type ChunkID int

// SubChunkID identifies a second-level partition within a chunk
// (the SS in Object_CC_SS).
type SubChunkID int

// Locate returns the chunk and subchunk containing a point.
func (ch *Chunker) Locate(p sphgeom.Point) (ChunkID, SubChunkID) {
	stripe := ch.stripeOf(p.Decl)
	nChunks := ch.numChunksPerStripe[stripe]
	c := int(math.Floor(sphgeom.WrapRA(p.RA) / 360.0 * float64(nChunks)))
	if c >= nChunks {
		c = nChunks - 1
	}
	chunkID := ch.chunkIDFor(stripe, c)

	// Sub-stripe row within the stripe.
	h := ch.cfg.StripeHeight()
	subH := ch.cfg.SubStripeHeight()
	declInStripe := p.Decl - (-90 + float64(stripe)*h)
	row := int(math.Floor(declInStripe / subH))
	if row < 0 {
		row = 0
	}
	if row >= ch.cfg.NumSubStripesPerStripe {
		row = ch.cfg.NumSubStripesPerStripe - 1
	}
	// Subchunk column within the chunk.
	m := ch.numSubChunksPerChunk[stripe]
	chunkWidth := 360.0 / float64(nChunks)
	raInChunk := sphgeom.WrapRA(p.RA) - float64(c)*chunkWidth
	col := int(math.Floor(raInChunk / chunkWidth * float64(m)))
	if col < 0 {
		col = 0
	}
	if col >= m {
		col = m - 1
	}
	return chunkID, SubChunkID(row*m + col)
}

// decompose splits a ChunkID back into (stripe, chunk-in-stripe).
func (ch *Chunker) decompose(id ChunkID) (stripe, chunkInStripe int, err error) {
	n := int(id)
	if n < 0 {
		return 0, 0, fmt.Errorf("partition: negative chunk id %d", id)
	}
	for s := 0; s < ch.cfg.NumStripes; s++ {
		if n < ch.numChunksPerStripe[s] {
			return s, n, nil
		}
		n -= ch.numChunksPerStripe[s]
	}
	return 0, 0, fmt.Errorf("partition: chunk id %d out of range (%d chunks)", id, ch.TotalChunks())
}

// ChunkBounds returns the RA/decl box of a chunk.
func (ch *Chunker) ChunkBounds(id ChunkID) (sphgeom.Box, error) {
	stripe, c, err := ch.decompose(id)
	if err != nil {
		return sphgeom.Box{}, err
	}
	h := ch.cfg.StripeHeight()
	declMin := -90 + float64(stripe)*h
	declMax := declMin + h
	if stripe == ch.cfg.NumStripes-1 {
		declMax = 90 // snap: avoid float rounding below the pole
	}
	width := 360.0 / float64(ch.numChunksPerStripe[stripe])
	raMin := float64(c) * width
	return sphgeom.NewBox(raMin, raMin+width, declMin, declMax), nil
}

// SubChunkBounds returns the RA/decl box of a subchunk within a chunk.
func (ch *Chunker) SubChunkBounds(id ChunkID, sub SubChunkID) (sphgeom.Box, error) {
	stripe, c, err := ch.decompose(id)
	if err != nil {
		return sphgeom.Box{}, err
	}
	m := ch.numSubChunksPerChunk[stripe]
	if int(sub) < 0 || int(sub) >= ch.SubChunksPerChunk(stripe) {
		return sphgeom.Box{}, fmt.Errorf("partition: subchunk id %d out of range for chunk %d", sub, id)
	}
	row := int(sub) / m
	col := int(sub) % m
	h := ch.cfg.StripeHeight()
	subH := ch.cfg.SubStripeHeight()
	declMin := -90 + float64(stripe)*h + float64(row)*subH
	declMax := declMin + subH
	if stripe == ch.cfg.NumStripes-1 && row == ch.cfg.NumSubStripesPerStripe-1 {
		declMax = 90 // snap: avoid float rounding below the pole
	}
	width := 360.0 / float64(ch.numChunksPerStripe[stripe])
	subW := width / float64(m)
	raMin := float64(c)*width + float64(col)*subW
	return sphgeom.NewBox(raMin, raMin+subW, declMin, declMax), nil
}

// AllChunks returns every chunk ID on the sphere, in increasing order.
func (ch *Chunker) AllChunks() []ChunkID {
	ids := make([]ChunkID, 0, ch.TotalChunks())
	for i := 0; i < ch.TotalChunks(); i++ {
		ids = append(ids, ChunkID(i))
	}
	return ids
}

// ChunksIn returns the IDs of all chunks whose bounds intersect the
// region's bounding box. It never returns an empty slice for a valid
// region; a full-sky region returns every chunk. This is the coarse
// spatial index used to restrict query dispatch (paper section 5.5).
//
// Each stripe's chunks are found from the bound's RA interval — or its two,
// when the bound wraps at RA 0 — not by testing every chunk of the stripe:
// a box costs what its cover costs. The candidates are the chunks the
// interval's ends fall in, widened by one on either side, and chunks 0 and
// n-1 of the stripe, the neighbours across the meridian; each is held to
// the same intersection test as its box, so float rounding at a chunk's
// edge decides as it always did.
func (ch *Chunker) ChunksIn(r sphgeom.Region) []ChunkID {
	bound := r.Bound()
	var ids []ChunkID
	var spans [4][2]int
	h := ch.cfg.StripeHeight()
	sMin := ch.stripeOf(bound.DeclMin)
	sMax := ch.stripeOf(bound.DeclMax)
	for s := sMin; s <= sMax; s++ {
		n := ch.numChunksPerStripe[s]
		width := 360.0 / float64(n)
		declMin := -90 + float64(s)*h
		stripeBox := sphgeom.Box{RAMin: 0, RAMax: 360, DeclMin: declMin, DeclMax: declMin + h}
		if !stripeBox.Intersects(bound) {
			continue
		}
		off := ch.stripeOffset(s)
		for _, span := range raSpans(spans[:0], bound, width, n) {
			for c := span[0]; c <= span[1]; c++ {
				raMin := float64(c) * width
				cb := sphgeom.NewBox(raMin, raMin+width, declMin, declMin+h)
				if cb.Intersects(bound) {
					ids = append(ids, ChunkID(off+c))
				}
			}
		}
	}
	return ids
}

// raSpans appends to spans the candidate chunk indices of a stripe of n
// chunks of the given width for a bound, as ascending, disjoint ranges
// [lo, hi], and returns it.
func raSpans(spans [][2]int, bound sphgeom.Box, width float64, n int) [][2]int {
	if bound.IsFullCircle() || n <= 4 || !(bound.RAMin >= 0 && bound.RAMax <= 360) {
		return append(spans, [2]int{0, n - 1})
	}
	at := func(ra float64) int { return int(math.Floor(ra / width)) }
	spans = append(spans, [2]int{0, 0}, [2]int{n - 1, n - 1})
	if bound.Wraps() {
		spans = append(spans, [2]int{at(bound.RAMin) - 1, n - 1}, [2]int{0, at(bound.RAMax) + 1})
	} else {
		spans = append(spans, [2]int{at(bound.RAMin) - 1, at(bound.RAMax) + 1})
	}
	for i := range spans {
		spans[i][0] = max(spans[i][0], 0)
		spans[i][1] = min(spans[i][1], n-1)
	}
	slices.SortFunc(spans, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	out := spans[:1]
	for _, sp := range spans[1:] {
		if last := &out[len(out)-1]; sp[0] <= last[1]+1 {
			last[1] = max(last[1], sp[1])
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// SubChunksIn returns the subchunks of the given chunk whose bounds
// intersect the region's bounding box.
func (ch *Chunker) SubChunksIn(id ChunkID, r sphgeom.Region) ([]SubChunkID, error) {
	stripe, _, err := ch.decompose(id)
	if err != nil {
		return nil, err
	}
	bound := r.Bound()
	var subs []SubChunkID
	for i := 0; i < ch.SubChunksPerChunk(stripe); i++ {
		sb, err := ch.SubChunkBounds(id, SubChunkID(i))
		if err != nil {
			return nil, err
		}
		if sb.Intersects(bound) {
			subs = append(subs, SubChunkID(i))
		}
	}
	return subs, nil
}

// AllSubChunks returns every subchunk ID of a chunk.
func (ch *Chunker) AllSubChunks(id ChunkID) ([]SubChunkID, error) {
	stripe, _, err := ch.decompose(id)
	if err != nil {
		return nil, err
	}
	subs := make([]SubChunkID, ch.SubChunksPerChunk(stripe))
	for i := range subs {
		subs[i] = SubChunkID(i)
	}
	return subs, nil
}

// OverlapChunks returns every chunk (other than the one containing p)
// whose overlap region contains p — the chunks that must store a copy
// of p's row in their overlap companion tables (section 4.4).
//
// Candidates are preselected with a probe box derived from the chunker
// geometry, then confirmed with InOverlap. The probe must contain the
// bounds of every chunk C with p ∈ Dilated(C.bounds, margin):
//
//   - Declination: Dilated grows a chunk's band by exactly margin, so
//     C.declMin-margin <= p.Decl <= C.declMax+margin — C's band
//     intersects [p.Decl-margin, p.Decl+margin].
//   - Right ascension: Dilated widens the RA margin to
//     margin/cos(maxAbsDecl) at the extreme declination of the dilated
//     band. By the declination constraint C's stripe lies within
//     stripeHeight+margin of p.Decl, so that extreme declination is at
//     most |p.Decl| + 2*margin + stripeHeight, bounding the RA margin
//     of any qualifying chunk by margin/cos(that). When that bound
//     reaches the pole a qualifying chunk's dilation can be
//     full-circle in RA, so the probe must be too.
//
// The previous implementation probed a fixed ±3*margin box, which both
// over-scanned in declination and — because it ignored the 1/cos(decl)
// widening — missed qualifying chunks at high declination (a point up
// to margin/cos(decl) away in RA is still inside a neighbor's dilated
// bounds, and 1/cos exceeds 3 beyond ~70.5°).
func (ch *Chunker) OverlapChunks(p sphgeom.Point) []ChunkID {
	margin := ch.cfg.Overlap
	if margin <= 0 {
		return nil
	}
	limit := math.Abs(p.Decl) + 2*margin + ch.cfg.StripeHeight()
	fullCircle := limit >= 90
	var raMargin float64
	if !fullCircle {
		raMargin = margin / math.Cos(sphgeom.RadOf(limit))
	}
	own, _ := ch.Locate(p)
	// Candidate stripes are the ones whose band intersects the
	// declination probe; candidate chunks within a stripe are computed
	// arithmetically from the RA probe (chunk widths are uniform per
	// stripe), so the per-row cost is O(candidates), not O(chunks).
	sLo := ch.stripeOf(p.Decl - margin)
	sHi := ch.stripeOf(p.Decl + margin)
	var out []ChunkID
	for s := sLo; s <= sHi; s++ {
		n := ch.numChunksPerStripe[s]
		width := 360.0 / float64(n)
		ra := sphgeom.WrapRA(p.RA)
		kLo, kHi := 0, n-1
		if !fullCircle && 2*raMargin < 360-width {
			kLo = int(math.Floor((ra - raMargin) / width))
			kHi = int(math.Floor((ra + raMargin) / width))
		}
		for k := kLo; k <= kHi; k++ {
			c := ((k % n) + n) % n
			id := ch.chunkIDFor(s, c)
			if id == own {
				continue
			}
			if in, _ := ch.InOverlap(id, p); in {
				out = append(out, id)
			}
		}
	}
	return out
}

// InOverlap reports whether a point belongs to the overlap region of the
// given chunk: outside the chunk proper but within the configured overlap
// margin of its border. Rows in the overlap are stored with the chunk so
// near-neighbor joins need no cross-node data exchange (section 4.4).
func (ch *Chunker) InOverlap(id ChunkID, p sphgeom.Point) (bool, error) {
	bounds, err := ch.ChunkBounds(id)
	if err != nil {
		return false, err
	}
	if bounds.Contains(p) {
		return false, nil
	}
	return bounds.Dilated(ch.cfg.Overlap).Contains(p), nil
}

// InSubChunkOverlap reports whether a point is in the overlap region of a
// subchunk (outside it, within the margin). Used to build the on-the-fly
// "full overlap" subchunk tables for spatial self-joins.
func (ch *Chunker) InSubChunkOverlap(id ChunkID, sub SubChunkID, p sphgeom.Point) (bool, error) {
	bounds, err := ch.SubChunkBounds(id, sub)
	if err != nil {
		return false, err
	}
	if bounds.Contains(p) {
		return false, nil
	}
	return bounds.Dilated(ch.cfg.Overlap).Contains(p), nil
}

// SubChunkNeighbours finds, for the points stored with one chunk — its own
// rows and its overlap rows — the subchunks of that chunk a point lies
// within the overlap margin of, by arithmetic on the subchunk grid rather
// than by testing every subchunk: what makes building a chunk's subchunk
// overlap tables linear in its rows.
type SubChunkNeighbours struct {
	margin        float64
	declMin, subH float64 // the stripe's lower edge, a sub-stripe's height
	raMin, subW   float64 // the chunk's lower RA edge, a subchunk's width
	rows, cols    int
	// raMargin is, per sub-stripe row, the RA margin of its subchunks'
	// dilated bounds (sphgeom.Box.Dilated); +Inf where those go right around.
	raMargin []float64
}

// SubChunkNeighbours prepares the lookup for one chunk.
func (ch *Chunker) SubChunkNeighbours(id ChunkID) (*SubChunkNeighbours, error) {
	stripe, c, err := ch.decompose(id)
	if err != nil {
		return nil, err
	}
	n := &SubChunkNeighbours{
		margin:  ch.cfg.Overlap,
		declMin: -90 + float64(stripe)*ch.cfg.StripeHeight(), subH: ch.cfg.SubStripeHeight(),
		rows: ch.cfg.NumSubStripesPerStripe, cols: ch.numSubChunksPerChunk[stripe],
	}
	width := 360.0 / float64(ch.numChunksPerStripe[stripe])
	n.raMin, n.subW = float64(c)*width, width/float64(n.cols)
	n.raMargin = make([]float64, n.rows)
	for r := range n.raMargin {
		b, err := ch.SubChunkBounds(id, SubChunkID(r*n.cols))
		if err != nil {
			return nil, err
		}
		if dil := b.Dilated(n.margin); dil.IsFullCircle() {
			n.raMargin[r] = math.Inf(1)
		} else {
			n.raMargin[r] = (dil.RAExtent() - b.RAExtent()) / 2
		}
	}
	return n, nil
}

// neighbourSlack widens every interval Candidates computes, in degrees: many
// orders of magnitude more than the rounding that separates its arithmetic
// from SubChunkBounds' and Dilated's, and nothing next to a subchunk.
const neighbourSlack = 1e-9

// Candidates appends to out, ascending, every subchunk of the chunk whose
// bounds dilated by the overlap margin may contain p: all of those that do,
// and at most a few that do not — the caller confirms each with
// SubChunkBounds(...).Dilated(margin).Contains(p), the test this replaces
// running against every subchunk. A point with a coordinate that is not a
// finite number has every subchunk for a candidate.
func (n *SubChunkNeighbours) Candidates(p sphgeom.Point, out []SubChunkID) []SubChunkID {
	if math.IsNaN(p.RA) || math.IsInf(p.RA, 0) || math.IsNaN(p.Decl) || math.IsInf(p.Decl, 0) {
		for s := 0; s < n.rows*n.cols; s++ {
			out = append(out, SubChunkID(s))
		}
		return out
	}
	reach := n.margin + neighbourSlack
	rLo := max(int(math.Floor((p.Decl-reach-n.declMin)/n.subH)), 0)
	rHi := min(int(math.Floor((p.Decl+reach-n.declMin)/n.subH)), n.rows-1)
	// The point's RA relative to the chunk's edge, in (-360, 360).
	d, width := sphgeom.WrapRA(p.RA)-n.raMin, float64(n.cols)*n.subW
	for r := rLo; r <= rHi; r++ {
		reach := n.raMargin[r] + neighbourSlack
		if math.IsInf(reach, 1) {
			for c := 0; c < n.cols; c++ {
				out = append(out, SubChunkID(r*n.cols+c))
			}
			continue
		}
		// The columns within reach of the point as it is, and of the point
		// one turn either way where that comes within reach of the chunk: a
		// margin may reach it across RA 0/360.
		next := 0 // the first column not yet appended
		for _, off := range [3]float64{d - 360, d, d + 360} {
			if off+reach < 0 || off-reach > width {
				continue
			}
			cLo := max(int(math.Floor((off-reach)/n.subW)), next)
			cHi := min(int(math.Floor((off+reach)/n.subW)), n.cols-1)
			for c := cLo; c <= cHi; c++ {
				out = append(out, SubChunkID(r*n.cols+c))
			}
			next = max(next, cHi+1)
		}
	}
	return out
}
