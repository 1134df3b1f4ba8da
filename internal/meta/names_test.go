package meta

import (
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// codecRegistry declares table names that stress the convention: plain,
// with underscores, ending in one and in two digit groups, and with the
// overlap suffix inside the name.
func codecRegistry(t *testing.T) *Registry {
	t.Helper()
	child := func(name string) TableSpec {
		return TableSpec{Name: name, Kind: KindChild, DirectorKey: "id",
			Columns: sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}}}
	}
	replicated := func(name string) TableSpec {
		return TableSpec{Name: name, Kind: KindReplicated,
			Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}}}
	}
	r, err := NewRegistryFromSpec(CatalogSpec{Database: "d", Tables: []TableSpec{
		directorSpec("Object"), child("Source"), child("Forced_Source"),
		child("Station_7"), child("Reading_2_1"), child("MyFullOverlapTable"), child("T9"),
		replicated("Filter"), replicated("Filter_3"), replicated("Dim_1_2"),
	}}, testChunker(t))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResolveTableRoundTrip: ResolveTable(build(x)) == x for every kind
// over every declared name, in either case, and TableRef.Name spells x as
// build does.
func TestResolveTableRoundTrip(t *testing.T) {
	r := codecRegistry(t)
	for _, table := range r.TableNames() {
		info, _ := r.Table(table)
		if !info.Partitioned {
			ref, ok := r.ResolveTable(table)
			if !ok || ref.Info != info || ref.Kind != SharedTable || ref.Name() != info.Name {
				t.Errorf("ResolveTable(%q) = %+v, %v; want the shared table", table, ref, ok)
			}
			continue
		}
		if ref, ok := r.ResolveTable(table); ok {
			t.Errorf("bare partitioned name %q resolved to %+v", table, ref)
		}
		for _, chunk := range []partition.ChunkID{0, 7, 58, 1234} {
			for _, sub := range []partition.SubChunkID{0, 3, 12, 207} {
				for _, want := range []struct {
					name string
					ref  TableRef
				}{
					{ChunkTableName(table, chunk), TableRef{info, ChunkTable, chunk, 0}},
					{OverlapTableName(table, chunk), TableRef{info, ChunkOverlapTable, chunk, 0}},
					{SubChunkTableName(table, chunk, sub), TableRef{info, SubChunkTable, chunk, sub}},
					{SubChunkOverlapTableName(table, chunk, sub), TableRef{info, SubChunkOverlapTable, chunk, sub}},
				} {
					if got := want.ref.Name(); got != want.name {
						t.Errorf("%+v spells %q, want %q", want.ref, got, want.name)
					}
					for _, spelled := range []string{want.name, strings.ToLower(want.name)} {
						got, ok := r.ResolveTable(spelled)
						if !ok || got != want.ref {
							t.Errorf("ResolveTable(%q) = %+v, %v; want %+v", spelled, got, ok, want.ref)
						}
					}
				}
			}
		}
	}
}

// TestResolveTable holds the cases of the worker's four former parsers
// (unitOfTable, convoyTableChunk, subchunkBase, the subchunk cache key),
// and the ones they got wrong: a table name that itself ends in digits.
func TestResolveTable(t *testing.T) {
	r := codecRegistry(t)
	cases := []struct {
		in    string
		table string // "" = not a worker-side table of this catalog
		kind  NameKind
		chunk partition.ChunkID
		sub   partition.SubChunkID
	}{
		{"Object_123", "Object", ChunkTable, 123, 0},
		{"ObjectFullOverlap_123", "Object", ChunkOverlapTable, 123, 0},
		{"Source_9", "Source", ChunkTable, 9, 0},
		{"Object_123_4", "Object", SubChunkTable, 123, 4},
		{"ObjectFullOverlap_123_4", "Object", SubChunkOverlapTable, 123, 4},
		{"Source_9_0", "Source", SubChunkTable, 9, 0},
		{"Forced_Source_1_2", "Forced_Source", SubChunkTable, 1, 2},
		{"Forced_Source_1", "Forced_Source", ChunkTable, 1, 0},
		{"Filter", "Filter", SharedTable, 0, 0},
		{"Object", "", 0, 0, 0},
		{"Object_x_4", "", 0, 0, 0},
		{"Object_", "", 0, 0, 0},
		{"Object_007", "", 0, 0, 0},   // no builder prints a leading zero
		{"Object_-7", "", 0, 0, 0},    // or a sign
		{"Object_1_2_3", "", 0, 0, 0}, // or three groups
		{"NoSuch_12", "", 0, 0, 0},
		{"r_0123456789abcdef", "", 0, 0, 0}, // a result table
		{"Filter_12", "", 0, 0, 0},          // replicated tables have no chunk tables
		{"FilterFullOverlap", "", 0, 0, 0},  // nor overlap companions
		{"FullOverlap_3", "", 0, 0, 0},
		// Names ending in digit groups: the longest declared base wins.
		{"Station_7_58", "Station_7", ChunkTable, 58, 0},
		{"Station_7FullOverlap_58", "Station_7", ChunkOverlapTable, 58, 0},
		{"Station_7_58_3", "Station_7", SubChunkTable, 58, 3},
		{"Station_7FullOverlap_58_3", "Station_7", SubChunkOverlapTable, 58, 3},
		{"Station_7", "", 0, 0, 0}, // bare, and no Station to be chunk 7 of
		{"Reading_2_1_58", "Reading_2_1", ChunkTable, 58, 0},
		{"Reading_2_1_58_3", "Reading_2_1", SubChunkTable, 58, 3},
		{"Reading_2_1", "", 0, 0, 0},
		{"T9_4", "T9", ChunkTable, 4, 0},
		{"Filter_3", "Filter_3", SharedTable, 0, 0},
		{"Dim_1_2", "Dim_1_2", SharedTable, 0, 0},
		// The overlap suffix inside a name is part of the name.
		{"MyFullOverlapTable_5", "MyFullOverlapTable", ChunkTable, 5, 0},
		{"MyFullOverlapTableFullOverlap_5_6", "MyFullOverlapTable", SubChunkOverlapTable, 5, 6},
	}
	for _, c := range cases {
		ref, ok := r.ResolveTable(c.in)
		if !ok {
			if c.table != "" {
				t.Errorf("ResolveTable(%q) found nothing; want %s kind %d", c.in, c.table, c.kind)
			}
			continue
		}
		if ref.Info.Name != c.table || ref.Kind != c.kind || ref.Chunk != c.chunk || ref.Sub != c.sub {
			t.Errorf("ResolveTable(%q) = %s kind %d chunk %d sub %d; want %q kind %d chunk %d sub %d",
				c.in, ref.Info.Name, ref.Kind, ref.Chunk, ref.Sub, c.table, c.kind, c.chunk, c.sub)
		}
	}
}

// TestApplySpecRejectsNameCollisionAcrossCalls: the convention spans
// ApplySpec calls, as the single-director rule does.
func TestApplySpecRejectsNameCollisionAcrossCalls(t *testing.T) {
	r := NewRegistry("d", testChunker(t))
	if err := r.ApplySpec(CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("Obj")}}); err != nil {
		t.Fatal(err)
	}
	replicated := func(name string) CatalogSpec {
		return CatalogSpec{Database: "d", Tables: []TableSpec{{Name: name, Kind: KindReplicated,
			Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}}}}}
	}
	for _, name := range []string{"Obj_7", "obj_7_12", "ObjFullOverlap", "OBJFULLOVERLAP_3", "ObjFullOverlap_3_4"} {
		if err := r.ApplySpec(replicated(name)); err == nil || !strings.Contains(err.Error(), "collide") {
			t.Errorf("ApplySpec(%s) beside Obj: %v, want a collision", name, err)
		}
	}
	for _, name := range []string{"Obj7", "Obj_x", "Obj_1_2_3", "Object"} {
		if err := r.ApplySpec(replicated(name)); err != nil {
			t.Errorf("ApplySpec(%s) beside Obj: %v", name, err)
		}
	}
	// The earlier table may be the longer name.
	r = NewRegistry("d", testChunker(t))
	if err := r.ApplySpec(replicated("Obj_7")); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySpec(CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("Obj")}}); err == nil ||
		!strings.Contains(err.Error(), "collide") {
		t.Errorf("director Obj beside replicated Obj_7: %v, want a collision", err)
	}
}
