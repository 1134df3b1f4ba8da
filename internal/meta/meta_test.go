package meta

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/sqlengine"
)

func testChunker(t testing.TB) *partition.Chunker {
	t.Helper()
	ch, err := partition.NewChunker(partition.Config{
		NumStripes: 12, NumSubStripesPerStripe: 4, Overlap: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestTableNames(t *testing.T) {
	if got := ChunkTableName("Object", 1234); got != "Object_1234" {
		t.Errorf("chunk name = %q", got)
	}
	if got := SubChunkTableName("Object", 1234, 7); got != "Object_1234_7" {
		t.Errorf("subchunk name = %q", got)
	}
	if got := OverlapTableName("Object", 9); got != "ObjectFullOverlap_9" {
		t.Errorf("overlap name = %q", got)
	}
	if got := SubChunkOverlapTableName("Object", 9, 3); got != "ObjectFullOverlap_9_3" {
		t.Errorf("subchunk overlap name = %q", got)
	}
}

// lsstTestSpec mirrors datagen.LSSTSpec (which lives outside meta so
// the registry stays catalog-agnostic) for spec-driven registry tests.
func lsstTestSpec() CatalogSpec {
	return CatalogSpec{
		Database: "LSST",
		Tables: []TableSpec{
			{
				Name: "Object", Kind: KindDirector, Columns: ObjectSchema(),
				RAColumn: "ra_PS", DeclColumn: "decl_PS", DirectorKey: "objectId",
				Overlap: true, PaperRows: 26e9, PaperRowBytes: 2048,
			},
			{
				Name: "Source", Kind: KindChild, Director: "Object", Columns: SourceSchema(),
				RAColumn: "ra", DeclColumn: "decl", DirectorKey: "objectId",
				Overlap: true, PaperRows: 1.8e12, PaperRowBytes: 650,
			},
			{
				Name: "ForcedSource", Kind: KindChild, Director: "Object",
				Columns: ForcedSourceSchema(), DirectorKey: "objectId",
				PaperRows: 21e12, PaperRowBytes: 30,
			},
			{Name: "Filter", Kind: KindReplicated, Columns: FilterSchema()},
		},
	}
}

func lsstTestRegistry(t testing.TB) *Registry {
	t.Helper()
	r, err := NewRegistryFromSpec(lsstTestSpec(), testChunker(t))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryFromSpec(t *testing.T) {
	r := lsstTestRegistry(t)
	obj, err := r.Table("object") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Partitioned || obj.Kind != KindDirector || obj.RAColumn != "ra_PS" || obj.DirectorKey != "objectId" {
		t.Errorf("Object info: %+v", obj)
	}
	src, err := r.Table("Source")
	if err != nil {
		t.Fatal(err)
	}
	if src.RAColumn != "ra" || src.DeclColumn != "decl" {
		t.Errorf("Source info: %+v", src)
	}
	if src.Kind != KindChild || src.Director != "Object" {
		t.Errorf("Source kind/director: %v/%q", src.Kind, src.Director)
	}
	if got := len(src.UserColumns()); got != len(SourceSchema())-2 {
		t.Errorf("Source user columns = %d, want %d", got, len(SourceSchema())-2)
	}
	if _, err := r.Table("NoSuch"); err == nil {
		t.Error("unknown table should fail")
	}
	names := r.TableNames()
	if len(names) != 4 {
		t.Errorf("tables: %v", names)
	}
	filter, _ := r.Table("Filter")
	if filter.Partitioned {
		t.Error("Filter must be unpartitioned")
	}
}

func TestTable1Footprints(t *testing.T) {
	// The paper's Table 1: Object 48 TB, Source 1.3 PB (actually
	// 1.17 PB raw), ForcedSource 620 TB (630 TB raw); check order of
	// magnitude from rows x row bytes.
	r := lsstTestRegistry(t)
	obj, _ := r.Table("Object")
	if fp := obj.FootprintBytes(); fp < 45e12 || fp > 60e12 {
		t.Errorf("Object footprint = %g TB, want ~48-53 TB", float64(fp)/1e12)
	}
	src, _ := r.Table("Source")
	if fp := src.FootprintBytes(); fp < 1.0e15 || fp > 1.4e15 {
		t.Errorf("Source footprint = %g PB, want ~1.2-1.3 PB", float64(fp)/1e15)
	}
	fs, _ := r.Table("ForcedSource")
	if fp := fs.FootprintBytes(); fp < 5.5e14 || fp > 7e14 {
		t.Errorf("ForcedSource footprint = %g TB, want ~620-630 TB", float64(fp)/1e12)
	}
}

func TestSchemasHavePartitionColumns(t *testing.T) {
	for _, s := range []sqlengine.Schema{ObjectSchema(), SourceSchema(), ForcedSourceSchema()} {
		if s.ColIndex("chunkId") < 0 || s.ColIndex("subChunkId") < 0 {
			t.Errorf("schema missing partition columns: %v", s.Names())
		}
		if s.ColIndex("objectId") < 0 {
			t.Errorf("schema missing objectId: %v", s.Names())
		}
	}
}

func TestPlacementAssign(t *testing.T) {
	p := NewPlacement()
	p.Assign(7, "wx", "wy")
	if got := p.Workers(7); len(got) != 2 || got[0] != "wx" {
		t.Errorf("assign: %v", got)
	}
	if got := p.Workers(99); len(got) != 0 {
		t.Errorf("unplaced chunk workers: %v", got)
	}
}

func TestObjectIndex(t *testing.T) {
	ix := NewObjectIndex()
	ix.Put(42, ChunkSub{Chunk: 7, Sub: 3})
	ix.Put(43, ChunkSub{Chunk: 8, Sub: 0})
	loc, ok := ix.Lookup(42)
	if !ok || loc.Chunk != 7 || loc.Sub != 3 {
		t.Errorf("lookup: %v %v", loc, ok)
	}
	if _, ok := ix.Lookup(999); ok {
		t.Error("missing id should not be found")
	}
	if ix.Len() != 2 {
		t.Errorf("len = %d", ix.Len())
	}
}

func TestObjectIndexMaterialize(t *testing.T) {
	// The secondary index lives as a real SQL table in the frontend's
	// metadata database and answers point queries via its hash index.
	ix := NewObjectIndex()
	for i := int64(0); i < 100; i++ {
		ix.Put(i, ChunkSub{Chunk: partition.ChunkID(i % 10), Sub: partition.SubChunkID(i % 4)})
	}
	e := sqlengine.New("qservMeta")
	if err := ix.Materialize(e, "qservMeta"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT chunkId, subChunkId FROM ObjectChunkIndex WHERE objectId = 57")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 7 || res.Rows[0][1].(int64) != 1 {
		t.Errorf("index query: %v", res.Rows)
	}
	// The lookup must be indexed (a random read, not a scan).
	if res.Stats.RandReads == 0 || res.Stats.SeqBytes != 0 {
		t.Errorf("index table not actually indexed: %+v", res.Stats)
	}
}

func TestConcurrentIndexAccess(t *testing.T) {
	ix := NewObjectIndex()
	done := make(chan bool, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := int64(0); i < 500; i++ {
				ix.Put(int64(g)*1000+i, ChunkSub{Chunk: partition.ChunkID(i)})
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := int64(0); i < 500; i++ {
				ix.Lookup(i)
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if ix.Len() != 2000 {
		t.Errorf("len = %d, want 2000", ix.Len())
	}
}

func TestPlacementMutation(t *testing.T) {
	p := NewPlacement()
	if p.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", p.Epoch())
	}
	p.Assign(5, "w0", "w1")
	e1 := p.Epoch()
	if e1 == 0 {
		t.Fatal("Assign did not bump the epoch")
	}

	// Replace swaps in place, preserving failover rank.
	p.Replace(5, "w0", "w2")
	if got := p.Workers(5); len(got) != 2 || got[0] != "w2" || got[1] != "w1" {
		t.Fatalf("after Replace: %v", got)
	}
	if p.Epoch() <= e1 {
		t.Fatal("Replace did not bump the epoch")
	}

	// An absent old (including "") appends.
	p.Replace(5, "", "w3")
	if got := p.Workers(5); len(got) != 3 || got[2] != "w3" {
		t.Fatalf("after append Replace: %v", got)
	}

	p.Remove(5, "w1")
	if got := p.Workers(5); len(got) != 2 || got[0] != "w2" || got[1] != "w3" {
		t.Fatalf("after Remove: %v", got)
	}
	if got := p.ChunksOn("w1"); len(got) != 0 {
		t.Fatalf("ChunksOn removed worker: %v", got)
	}
}
