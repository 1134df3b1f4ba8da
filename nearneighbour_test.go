package qserv

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
)

// TestNearNeighbourMatchesGridCount checks the near-neighbour self-join
// (Super High Volume 1) against a count that shares nothing with the
// system: a plain grid over the generated catalog's positions, with its own
// separation (the angle between unit vectors, not the haversine formula the
// qserv_angSep UDF uses) and its own box test — no qserv.Oracle, no
// sqlengine, no sphgeom. The oracle runs the same engine and the same UDF
// as the workers, so a pair the engine drops everywhere (a guard deciding
// a comparison it should not, a subchunk statement missing an overlap row)
// is invisible to it; it is not to this.
//
// The catalog is one declination band copied right around the sky, so there
// are objects on both sides of RA 0/360; the boxes sit inside a chunk,
// across the stripe boundary at declination 0 (and several chunk boundaries
// in RA), and across the RA wrap; the radii go from far below the object
// spacing up to the partition overlap, the largest a subchunk join answers.
func TestNearNeighbourMatchesGridCount(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 16, ObjectsPerPatch: 500},
		datagen.DuplicateConfig{DeclBands: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(4)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.CreateTables(LSSTSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest("Object", objectSource(cat)); err != nil {
		t.Fatal(err)
	}

	// The grid: one-degree cells, so a radius of up to the overlap (0.5
	// degrees, at most 0.51 degrees of RA at |decl| <= 8) never reaches
	// past a neighbouring cell.
	type cell struct{ x, y int }
	cellOf := func(ra, decl float64) cell { return cell{int(math.Floor(ra)) % 360, int(math.Floor(decl + 90))} }
	unit := func(ra, decl float64) [3]float64 {
		r, d := ra*math.Pi/180, decl*math.Pi/180
		return [3]float64{math.Cos(d) * math.Cos(r), math.Cos(d) * math.Sin(r), math.Sin(d)}
	}
	grid := map[cell][]int{}
	vecs := make([][3]float64, len(cat.Objects))
	for i, o := range cat.Objects {
		grid[cellOf(o.RA, o.Decl)] = append(grid[cellOf(o.RA, o.Decl)], i)
		vecs[i] = unit(o.RA, o.Decl)
	}
	sepDeg := func(a, b [3]float64) float64 {
		cross := [3]float64{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
		dot := a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
		return math.Atan2(math.Sqrt(cross[0]*cross[0]+cross[1]*cross[1]+cross[2]*cross[2]), dot) * 180 / math.Pi
	}
	// gridCount counts the pairs (o1 in the box, o2 within radius of o1, o1
	// itself included) twice: those surely inside the radius, and those
	// inside or within rounding of it — the two formulas need not agree on
	// a pair whose separation is the radius to nine digits.
	gridCount := func(raMin, declMin, raMax, declMax, radius float64) (sure, maybe, inBox int64) {
		for i, o := range cat.Objects {
			inRA := o.RA >= raMin && o.RA <= raMax
			if raMin > raMax { // the box wraps through RA 0
				inRA = o.RA >= raMin || o.RA <= raMax
			}
			if !inRA || o.Decl < declMin || o.Decl > declMax {
				continue
			}
			inBox++
			c := cellOf(o.RA, o.Decl)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					for _, j := range grid[cell{(c.x + dx + 360) % 360, c.y + dy}] {
						switch sep := sepDeg(vecs[i], vecs[j]); {
						case sep < radius*(1-1e-9):
							sure++
							maybe++
						case sep < radius*(1+1e-9):
							maybe++
						}
					}
				}
			}
		}
		return sure, maybe, inBox
	}

	if cfg.Partition.Overlap != 0.5 {
		t.Fatalf("the partition overlap is %v: the largest radius below assumes 0.5", cfg.Partition.Overlap)
	}
	for _, box := range [][4]float64{
		{21, 2, 24, 5},    // inside one stripe
		{40, -2, 47, 2},   // across the stripe boundary at declination 0
		{357, -3, 3, 3},   // across RA 0/360
		{176, -7, 184, 7}, // the whole height of the band: its edges have no neighbours beyond
	} {
		for _, radius := range []float64{0.001, 0.03, 0.2, 0.5} {
			sql := fmt.Sprintf(`SELECT count(*) FROM Object o1, Object o2
				WHERE qserv_areaspec_box(%v, %v, %v, %v)
				AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %v`,
				box[0], box[1], box[2], box[3], radius)
			res, err := cl.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			got := res.Rows[0][0].(int64)
			sure, maybe, inBox := gridCount(box[0], box[1], box[2], box[3], radius)
			if got < sure || got > maybe {
				t.Errorf("box %v radius %v: the cluster counts %d pairs, the grid %d (%d with the pairs at the radius to nine digits)",
					box, radius, got, sure, maybe)
			}
			if inBox < 50 || (radius >= 0.2 && sure < inBox+inBox/10) {
				t.Errorf("box %v radius %v: %d objects, %d pairs: too few to test anything", box, radius, inBox, sure)
			}
		}
	}
}
