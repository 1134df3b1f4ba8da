package qserv

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
)

// nnCatalog is the near-neighbour battery's sky: three patches of uniformly
// scattered objects, about twenty to the square degree — a band astride the
// equator and RA 0/360, and both polar caps, where a degree of RA is next to
// nothing and a chunk's overlap goes right round.
func nnCatalog() *datagen.Catalog {
	r := rand.New(rand.NewSource(16))
	cat := &datagen.Catalog{}
	add := func(ra, decl float64) {
		cat.Objects = append(cat.Objects, datagen.Object{
			ObjectID: int64(len(cat.Objects) + 1), RA: math.Mod(ra+360, 360), Decl: decl,
			UFlux: 1e-28, GFlux: 1e-28, RFlux: 1e-28, IFlux: 1e-28, ZFlux: 1e-28, YFlux: 1e-28, UFluxSG: 2e-28, URadiusPS: 0.05,
		})
	}
	for i := 0; i < 4800; i++ {
		add(350+20*r.Float64(), -6+12*r.Float64())
	}
	cap := func(n int, declFrom float64, sign float64) {
		zMin := math.Sin(declFrom * math.Pi / 180)
		for i := 0; i < n; i++ {
			z := zMin + (1-zMin)*r.Float64()
			add(360*r.Float64(), sign*math.Asin(z)*180/math.Pi)
		}
	}
	cap(6300, 80, 1)
	cap(2200, 84, -1)
	return cat
}

// pairGrid counts near-neighbour pairs with nothing of the system in it: the
// objects as unit vectors in a cubic grid whose cells are as wide as the
// largest radius's chord, the separation as the angle between two vectors
// (not the haversine formula the qserv_angSep UDF uses), its own box test —
// no qserv.Oracle, no sqlengine, no sphgeom, no partitioning.
type pairGrid struct {
	objects []datagen.Object
	vecs    [][3]float64
	cells   map[[3]int][]int
}

const pairGridCell = 0.0176 // just over the chord of one degree, the largest radius asked

func newPairGrid(objects []datagen.Object) *pairGrid {
	g := &pairGrid{objects: objects, vecs: make([][3]float64, len(objects)), cells: map[[3]int][]int{}}
	for i, o := range objects {
		r, d := o.RA*math.Pi/180, o.Decl*math.Pi/180
		g.vecs[i] = [3]float64{math.Cos(d) * math.Cos(r), math.Cos(d) * math.Sin(r), math.Sin(d)}
		g.cells[g.cellOf(g.vecs[i])] = append(g.cells[g.cellOf(g.vecs[i])], i)
	}
	return g
}

func (g *pairGrid) cellOf(v [3]float64) [3]int {
	return [3]int{int(math.Floor(v[0] / pairGridCell)), int(math.Floor(v[1] / pairGridCell)), int(math.Floor(v[2] / pairGridCell))}
}

// count counts the pairs (o1 in the box, o2 within radius of o1, o1 itself
// included) twice: those surely inside the radius, and those inside or
// within rounding of it — two formulas need not agree on a pair whose
// separation is the radius to nine digits.
func (g *pairGrid) count(box [4]float64, radius float64) (sure, maybe, inBox int64) {
	raMin, declMin, raMax, declMax := box[0], box[1], box[2], box[3]
	for i, o := range g.objects {
		inRA := o.RA >= raMin && o.RA <= raMax
		if raMin > raMax { // the box wraps through RA 0
			inRA = o.RA >= raMin || o.RA <= raMax
		}
		if !inRA || o.Decl < declMin || o.Decl > declMax {
			continue
		}
		inBox++
		a, c := g.vecs[i], g.cellOf(g.vecs[i])
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range g.cells[[3]int{c[0] + dx, c[1] + dy, c[2] + dz}] {
						b := g.vecs[j]
						cross := [3]float64{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
						dot := a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
						sep := math.Atan2(math.Sqrt(cross[0]*cross[0]+cross[1]*cross[1]+cross[2]*cross[2]), dot) * 180 / math.Pi
						switch {
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
	}
	return sure, maybe, inBox
}

// TestNearNeighbourMatchesGridCount checks the near-neighbour self-join
// (Super High Volume 1) against a count that shares nothing with the
// system (pairGrid). The oracle runs the same engine and the same UDF as
// the workers, so a pair the engine drops everywhere — a guard deciding a
// comparison it should not, a subchunk table missing an overlap row, a band
// join's window one row short — is invisible to it; it is not to this.
//
// The battery runs over subchunk grids from coarse to finer than the overlap
// (4, 6, 12 and 20 sub-stripes; 0.1, 0.5 and 1 degree of overlap), on one
// worker and on four, with each question asked once or by two clients at
// once — in two spellings, so that every worker runs two jobs per chunk,
// each building its own subchunk tables, and both must answer alike. The
// boxes sit
// inside a chunk, across the stripe boundary at declination 0 and the chunk
// boundary at RA 0/360, and beyond 80 degrees of declination up to the pole
// itself; the radii go from zero through far below the object spacing to
// just under and exactly the partition overlap, the largest a subchunk join
// answers (just over it must be refused, not answered short). Beside the
// grid it holds the answers to each other: a box's count is its halves'
// counts added, a larger radius never finds fewer pairs, and every topology
// of one geometry answers alike.
func TestNearNeighbourMatchesGridCount(t *testing.T) {
	cat := nnCatalog()
	grid := newPairGrid(cat.Objects)
	boxes := [][4]float64{
		{352, -4.5, 358, -1.5}, // inside one stripe
		{0.5, 1, 4, 4},         // beside the chunk boundary at RA 0
		{355.5, -3, 4.5, 3},    // across RA 0/360 and the stripe boundary at declination 0
		{100, 82, 140, 86},     // beyond 80 degrees: a degree of RA is a seventh of one
		{0, 88.6, 360, 90},     // the polar cap itself
		{200, -89.5, 290, -85}, // and the other pole's neighbourhood
		{355.5, 82, 4.5, 87},   // polar and across RA 0/360
	}
	type geometry struct {
		subStripes int
		overlap    float64
	}
	type topology struct {
		concurrent bool
		workers    int
	}
	// Every geometry under one topology, rotating; two geometries under all four.
	topologies := []topology{{false, 4}, {true, 1}, {true, 4}, {false, 1}}
	type clusterRun struct {
		geometry
		topology
	}
	var runs []clusterRun
	i := 0
	for _, ss := range []int{4, 6, 12, 20} {
		for _, ov := range []float64{0.1, 0.5, 1} {
			g := geometry{ss, ov}
			if (ss == 12 && ov == 0.5) || (ss == 20 && ov == 1) {
				for _, tp := range topologies {
					runs = append(runs, clusterRun{g, tp})
				}
				continue
			}
			runs = append(runs, clusterRun{g, topologies[i%len(topologies)]})
			i++
		}
	}
	if testing.Short() {
		runs = runs[:3]
	}
	type question struct {
		geometry
		box    [4]float64
		radius float64
	}
	answers := map[question]int64{}
	for _, run := range runs {
		run := run
		t.Run(fmt.Sprintf("substripes=%d/overlap=%v/concurrent=%v/workers=%d", run.subStripes, run.overlap, run.concurrent, run.workers), func(t *testing.T) {
			cfg := DefaultClusterConfig(run.workers)
			cfg.Partition = partition.Config{NumStripes: 18, NumSubStripesPerStripe: run.subStripes, Overlap: run.overlap}
			cfg.ResultCacheBytes = 0 // every question is executed, also the second time it is asked
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.CreateTables(LSSTSpec()); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Ingest("Object", objectSource(cat)); err != nil {
				t.Fatal(err)
			}
			// ask asks the question with its tables called a and b.
			ask := func(a, b string, box [4]float64, radius float64) (int64, error) {
				res, err := cl.Query(fmt.Sprintf(`SELECT count(*) FROM Object %[1]s, Object %[2]s
					WHERE qserv_areaspec_box(%[3]v, %[4]v, %[5]v, %[6]v)
					AND qserv_angSep(%[1]s.ra_PS, %[1]s.decl_PS, %[2]s.ra_PS, %[2]s.decl_PS) < %[7]v`,
					a, b, box[0], box[1], box[2], box[3], radius))
				if err != nil {
					return 0, err
				}
				return res.Rows[0][0].(int64), nil
			}
			count := func(box [4]float64, radius float64) (int64, error) {
				if !run.concurrent {
					return ask("o1", "o2", box, radius)
				}
				var n [2]int64
				var errs [2]error
				var wg sync.WaitGroup
				for i, alias := range []string{"o", "p"} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						n[i], errs[i] = ask(alias+"1", alias+"2", box, radius)
					}()
				}
				wg.Wait()
				if err := errors.Join(errs[:]...); err != nil {
					return 0, err
				}
				if n[0] != n[1] {
					return 0, fmt.Errorf("asked at once, the question is answered %d and %d pairs", n[0], n[1])
				}
				return n[0], nil
			}
			radii := []float64{0, 0.001, run.overlap / 3, run.overlap * 0.999999, run.overlap}
			for _, box := range boxes {
				last := int64(0)
				for _, radius := range radii {
					got, err := count(box, radius)
					if err != nil {
						t.Fatalf("box %v radius %v: %v", box, radius, err)
					}
					sure, maybe, inBox := grid.count(box, radius)
					if got < sure || got > maybe {
						t.Errorf("box %v radius %v: the cluster counts %d pairs, the grid %d (%d with the pairs at the radius to nine digits)",
							box, radius, got, sure, maybe)
					}
					if inBox < 50 || (radius >= 0.3 && sure < inBox+inBox/10) {
						t.Errorf("box %v radius %v: %d objects, %d pairs: too few to test anything", box, radius, inBox, sure)
					}
					if got < last {
						t.Errorf("box %v: %d pairs within %v, fewer than the %d within a smaller radius", box, got, radius, last)
					}
					last = got
					q := question{run.geometry, box, radius}
					if prev, asked := answers[q]; asked && prev != got {
						t.Errorf("box %v radius %v: %d pairs, %d under another topology of the same geometry", box, radius, got, prev)
					}
					answers[q] = got
				}
				// Just over the overlap is more than the stored margin can
				// answer: refused at plan time.
				if _, err := count(box, run.overlap*1.000001); err == nil || !strings.Contains(err.Error(), "overlap") {
					t.Errorf("box %v: a radius just over the overlap: err = %v, want it refused", box, err)
				}
				// A box is its two halves.
				width := math.Mod(box[2]-box[0]+360, 360)
				if width == 0 {
					width = 360
				}
				mid := math.Mod(box[0]+width/2, 360)
				radius := radii[2]
				whole, err := count(box, radius)
				if err != nil {
					t.Fatal(err)
				}
				left, err := count([4]float64{box[0], box[1], mid, box[3]}, radius)
				if err != nil {
					t.Fatal(err)
				}
				right, err := count([4]float64{mid, box[1], box[2], box[3]}, radius)
				if err != nil {
					t.Fatal(err)
				}
				if whole != left+right {
					t.Errorf("box %v radius %v: %d pairs, but %d + %d in its halves", box, radius, whole, left, right)
				}
			}
		})
	}
}
