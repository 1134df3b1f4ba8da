package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/partition"
)

// Statement classes, named after the paper's section 6.2 query classes.
// hv2m and hv2s are HV2 with a tighter colour cut (about 3 % and 0.5 % of
// rows instead of 10 %): same scan, less transfer.
const (
	clsLV1  = "lv1"
	clsLV2  = "lv2"
	clsLV3  = "lv3"
	clsHV1  = "hv1"
	clsHV3  = "hv3"
	clsSHV1 = "shv1"
	clsHV2  = "hv2"
	clsHV2m = "hv2m"
	clsHV2s = "hv2s"
)

var allClasses = []string{clsLV1, clsLV2, clsLV3, clsHV1, clsHV3, clsSHV1, clsHV2, clsHV2m, clsHV2s}

// fullSky reports whether a class dispatches a chunk job to every chunk.
func fullSky(class string) bool {
	switch class {
	case clsHV1, clsHV3, clsHV2, clsHV2m, clsHV2s:
		return true
	}
	return false
}

const (
	shv1Side   = 10.0 // degrees
	shv1Radius = 0.02
	hv2Columns = "objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS"
)

// stmt is one generated statement and the row count its answer must have.
type stmt struct {
	Class string
	SQL   string
	Rows  int64
	// SHV1 only: the box as the statement's literals parse, for the
	// harness-side reference count (raMin, declMin, raMax, declMax).
	Box [4]float64
}

// stmtGen derives statements from the seed. make(class, k) is a pure
// function, so the k-th statement of a class is the same on every run of
// one seed, and every statement carries a literal that depends on k: no
// two statements of a run are equal, so the czar result cache and the
// workers' content-addressed result store always miss.
type stmtGen struct {
	seed     uint64
	ref      *reference
	nChunks  int
	lv1, lv2 walk
	// SHV1 boxes straddle a chunk boundary of the stripe above the
	// equator: shvChunks chunks of shvWidth degrees of RA each.
	shvChunks int
	shvWidth  float64
}

func newStmtGen(seed int64, ref *reference, nChunks int) *stmtGen {
	g := &stmtGen{seed: uint64(seed), ref: ref, nChunks: nChunks}
	g.lv1 = g.newWalk(clsLV1, len(ref.objIDs))
	g.lv2 = g.newWalk(clsLV2, len(ref.srcIDs))
	chunker, err := partition.NewChunker(benchPartition())
	if err != nil {
		panic(err) // benchPartition is a constant: failing to build it is a bug
	}
	g.shvChunks = chunker.ChunksInStripe(chunker.NumStripes() / 2)
	g.shvWidth = 360 / float64(g.shvChunks)
	return g
}

// mix is splitmix64: a well-spread hash of its input.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a seed-derived number in [0,1) for (salt, k).
func (g *stmtGen) unit(salt string, k int) float64 {
	h := g.seed
	for _, c := range []byte(salt) {
		h = mix(h ^ uint64(c))
	}
	h = mix(h ^ uint64(k))
	return float64(h>>11) / (1 << 53)
}

// walk visits n items in a seed-derived order without repeats: a start
// offset and a stride coprime with n.
type walk struct{ start, stride, n uint64 }

func (g *stmtGen) newWalk(salt string, n int) walk {
	start := int(g.unit(salt+"/start", 0) * float64(n))
	stride := 1 + int(g.unit(salt+"/stride", 0)*float64(n-1))
	for gcd(stride, n) != 1 {
		stride++
	}
	return walk{uint64(start), uint64(stride), uint64(n)}
}

func (w walk) at(k int) int { return int((w.start + uint64(k)*w.stride) % w.n) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// golden spreads k over [0,1) without repeats (additive recurrence on the
// golden ratio), shifted by a seed-derived offset.
func (g *stmtGen) golden(salt string, k int) float64 {
	_, f := math.Modf(g.unit(salt, 0) + float64(k)*0.6180339887498949)
	return f
}

func (g *stmtGen) make(class string, k int) stmt {
	s := stmt{Class: class, Rows: 1}
	switch class {
	case clsLV1:
		id := g.ref.objIDs[g.lv1.at(k)]
		s.SQL = fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", id)
	case clsLV2:
		i := g.lv2.at(k)
		s.SQL = fmt.Sprintf("SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d", g.ref.srcIDs[i])
		s.Rows = int64(g.ref.srcCounts[i])
	case clsLV3:
		// Boxes stay inside the two stripes the catalog fills completely
		// (decl -15..15): the stripes beyond them are 40 % full, and
		// their cheap boxes were a tenth of the class — exactly where the
		// gated percentile sits.
		ra := g.unit(class+"/ra", k) * 359
		decl := -15 + g.unit(class+"/decl", k)*29
		// The upper magnitude bound (every object is brighter than 27)
		// carries k, which makes the statement text unique.
		s.SQL = fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN %.4f AND %.4f AND decl_PS BETWEEN %.4f AND %.4f AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND %.6f",
			ra, ra+1, decl, decl+1, 30+float64(k)*1e-6)
	case clsHV1:
		s.SQL = fmt.Sprintf("SELECT COUNT(*) FROM Object WHERE fluxToAbMag(rFlux_PS) < %.7f",
			24+g.unit(class, 0)*0.5+float64(k)*1e-5)
	case clsHV3:
		// The paper's HV3 with AVG replaced: AVG over protocol v2 fails
		// today (see README, defects found).
		s.SQL = fmt.Sprintf("SELECT count(*) AS n, SUM(ra_PS), MIN(decl_PS), MAX(decl_PS), chunkId FROM Object WHERE fluxToAbMag(rFlux_PS) < %.7f GROUP BY chunkId",
			26+g.unit(class, 0)*0.5+float64(k)*1e-5)
		s.Rows = int64(g.nChunks)
	case clsSHV1:
		// Every box lies inside the stripe above the equator and is
		// centred (within half a degree) on the boundary between two of
		// its chunks: two chunk jobs of about equal size, whatever k is.
		// A box placed at random covers one to four chunks unevenly, and
		// the twenty boxes of a run then differ more than two runs do.
		boundary := float64(1+int(g.golden(class+"/ra", k)*float64(g.shvChunks-1))) * g.shvWidth
		ra := boundary - shv1Side/2 + g.unit(class+"/jitter", k) - 0.5
		decl := 0.25 + g.golden(class+"/decl", k)*(180/float64(benchPartition().NumStripes)-shv1Side-0.5)
		var lits [4]string
		for i, v := range []float64{ra, decl, ra + shv1Side, decl + shv1Side} {
			lits[i] = strconv.FormatFloat(v, 'f', 5, 64)
			s.Box[i], _ = strconv.ParseFloat(lits[i], 64)
		}
		s.SQL = fmt.Sprintf("SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(%s, %s, %s, %s) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %g",
			lits[0], lits[1], lits[2], lits[3], shv1Radius)
	case clsHV2, clsHV2m, clsHV2s:
		base := map[string]float64{clsHV2: 6, clsHV2m: 8.3, clsHV2s: 9.9}[class]
		lit := strconv.FormatFloat(base+g.unit(class, 0)*1e-3+float64(k)*1e-5, 'f', 7, 64)
		cut, _ := strconv.ParseFloat(lit, 64)
		s.SQL = fmt.Sprintf("SELECT %s FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > %s", hv2Columns, lit)
		s.Rows = g.ref.izAbove(cut)
	default:
		panic("bench: unknown statement class " + class)
	}
	return s
}
