package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	qserv "repro"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/sphgeom"
)

// The benchmark's data and cluster shape. Sized on a 2-core box so that a
// full-sky scan is scan-bound rather than dispatch-bound: 94 chunks of
// ~4.7k Object rows (at the product's default 18 stripes it is 208 chunks
// of per-job overhead). Resize here, never in the product, if the layer
// shares in the traced run drift.
const (
	objectsPerPatch = 1500
	sourcesPerObj   = 1
	declBands       = 3
	sourceDeclLimit = 54
	clusterWorkers  = 4
	sampleRows      = 2048 // the product's default /load batch size
	benchUser       = "bench"
	benchDB         = "LSST"
)

func benchPartition() partition.Config {
	return partition.Config{NumStripes: 12, NumSubStripesPerStripe: 12, Overlap: 0.5}
}

// benchConfig is what a user runs: the product defaults (telemetry,
// result cache, pruning, shared scans) with the benchmark's geometry.
func benchConfig(dataDir string) qserv.ClusterConfig {
	cfg := qserv.DefaultClusterConfig(clusterWorkers)
	cfg.Partition = benchPartition()
	cfg.DataDir = dataDir
	return cfg
}

func generate(seed int64) (*datagen.Catalog, error) {
	return datagen.Generate(
		datagen.Config{Seed: seed, ObjectsPerPatch: objectsPerPatch, MeanSourcesPerObject: sourcesPerObj},
		datagen.DuplicateConfig{DeclBands: declBands, SourceDeclLimit: sourceDeclLimit},
	)
}

// objectRows and sourceRows stream the catalog into Ingest one row at a
// time, so no second copy of the tables is ever held.
type objectRows struct {
	cat *datagen.Catalog
	pos int
}

func (s *objectRows) Next() (qserv.Row, bool) {
	if s.pos >= len(s.cat.Objects) {
		return nil, false
	}
	r := qserv.Row(datagen.ObjectUserRow(s.cat.Objects[s.pos]))
	s.pos++
	return r, true
}
func (s *objectRows) Err() error { return nil }

type sourceRows struct {
	cat *datagen.Catalog
	pos int
}

func (s *sourceRows) Next() (qserv.Row, bool) {
	if s.pos >= len(s.cat.Sources) {
		return nil, false
	}
	r := qserv.Row(datagen.SourceUserRow(s.cat.Sources[s.pos]))
	s.pos++
	return r, true
}
func (s *sourceRows) Err() error { return nil }

// reference is what the harness keeps of the generated catalog after the
// generator state is dropped: the literals statements are drawn from and
// the row counts their answers must have.
type reference struct {
	objIDs    []int64          // every objectId
	srcIDs    []int64          // objectIds that have at least one Source row
	srcCounts []int32          // Source rows of srcIDs[i]
	izDiff    []float64        // sorted fluxToAbMag(i)-fluxToAbMag(z), one per object
	sample    []datagen.Object // sampleRows objects spread over the sky, for the layer measurements
	nObjects  int
	nSources  int
}

// abMag mirrors the engine's fluxToAbMag so expected HV2 row counts are
// computed with bit-identical arithmetic.
func abMag(f float64) float64 { return -2.5*math.Log10(f) - 48.6 }

func newReference(cat *datagen.Catalog) *reference {
	ref := &reference{nObjects: len(cat.Objects), nSources: len(cat.Sources)}
	ref.objIDs = make([]int64, len(cat.Objects))
	ref.izDiff = make([]float64, len(cat.Objects))
	for i, o := range cat.Objects {
		ref.objIDs[i] = o.ObjectID
		ref.izDiff[i] = abMag(o.IFlux) - abMag(o.ZFlux)
	}
	sort.Float64s(ref.izDiff)
	for i := 0; i < sampleRows && i < len(cat.Objects); i++ {
		ref.sample = append(ref.sample, cat.Objects[i*len(cat.Objects)/sampleRows])
	}
	at := map[int64]int{}
	for _, s := range cat.Sources {
		i, ok := at[s.ObjectID]
		if !ok {
			i = len(ref.srcIDs)
			at[s.ObjectID] = i
			ref.srcIDs = append(ref.srcIDs, s.ObjectID)
			ref.srcCounts = append(ref.srcCounts, 0)
		}
		ref.srcCounts[i]++
	}
	return ref
}

// izAbove is the number of objects whose i-z colour exceeds t: the row
// count an HV2 statement with that cut must return.
func (r *reference) izAbove(t float64) int64 {
	i := sort.Search(len(r.izDiff), func(i int) bool { return r.izDiff[i] > t })
	return int64(len(r.izDiff) - i)
}

// neighbourPairs counts (o1, o2) with o1 inside box and o2 within radius
// degrees of o1 (o1 = o2 included), the answer of an SHV1 statement. It
// buckets objects on a grid so the count is O(n); qserv.Oracle's self-join
// is O(n^2), over ten minutes at this catalog size.
func neighbourPairs(cat *datagen.Catalog, box sphgeom.Box, radius float64) int64 {
	const cell = 0.25 // degrees; radius/cos(decl) stays well inside one cell for |decl| <= 21
	type key struct{ x, y int }
	grid := map[key][]int32{}
	cellOf := func(ra, decl float64) key {
		return key{int(math.Floor(ra / cell)), int(math.Floor((decl + 90) / cell))}
	}
	margin := 2 * cell
	for i, o := range cat.Objects {
		if o.Decl < box.DeclMin-margin || o.Decl > box.DeclMax+margin {
			continue
		}
		k := cellOf(o.RA, o.Decl)
		grid[k] = append(grid[k], int32(i))
	}
	nx := int(math.Round(360 / cell))
	var pairs int64
	for _, o := range cat.Objects {
		if !box.Contains(sphgeom.NewPoint(o.RA, o.Decl)) {
			continue
		}
		k := cellOf(o.RA, o.Decl)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				x := ((k.x+dx)%nx + nx) % nx
				for _, j := range grid[key{x, k.y + dy}] {
					p := cat.Objects[j]
					if sphgeom.AngSepDeg(o.RA, o.Decl, p.RA, p.Decl) < radius {
						pairs++
					}
				}
			}
		}
	}
	return pairs
}

// bench cluster: the system under test plus its served frontend.
type served struct {
	cl      *qserv.Cluster
	fe      *qserv.Frontend
	nChunks int
	ingest  time.Duration // CreateTables + Ingest of both tables
}

func (s *served) close() {
	if s.fe != nil {
		s.fe.Close()
	}
	s.cl.Close()
}

// setup builds one cluster, loads the catalog through the public
// CreateTables/Ingest and serves it. dataDir "" is the in-memory default.
func setup(cat *datagen.Catalog, dataDir string) (*served, error) {
	cl, err := qserv.NewCluster(benchConfig(dataDir))
	if err != nil {
		return nil, err
	}
	s := &served{cl: cl}
	start := time.Now()
	if err := cl.CreateTables(qserv.LSSTSpec()); err != nil {
		s.close()
		return nil, err
	}
	if _, err := cl.Ingest("Object", &objectRows{cat: cat}); err != nil {
		s.close()
		return nil, fmt.Errorf("ingest Object: %w", err)
	}
	if _, err := cl.Ingest("Source", &sourceRows{cat: cat}); err != nil {
		s.close()
		return nil, fmt.Errorf("ingest Source: %w", err)
	}
	s.ingest = time.Since(start)
	s.nChunks = len(cl.Placement.Chunks())
	fe, err := cl.ServeFrontend("127.0.0.1:0", qserv.DefaultFrontendConfig())
	if err != nil {
		s.close()
		return nil, err
	}
	s.fe = fe
	return s, nil
}

// buildOracle loads the same catalog into the single-node reference.
func buildOracle(cat *datagen.Catalog) (*qserv.Oracle, error) {
	o, err := qserv.NewOracle(benchConfig(""))
	if err != nil {
		return nil, err
	}
	if err := o.CreateTables(qserv.LSSTSpec()); err != nil {
		return nil, err
	}
	if err := o.Ingest("Object", &objectRows{cat: cat}); err != nil {
		return nil, err
	}
	if err := o.Ingest("Source", &sourceRows{cat: cat}); err != nil {
		return nil, err
	}
	return o, nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
