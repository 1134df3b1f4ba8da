package meta

import (
	"strings"
	"testing"

	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

func directorSpec(name string) TableSpec {
	return TableSpec{
		Name: name, Kind: KindDirector,
		Columns: sqlengine.Schema{
			{Name: "id", Type: sqlparse.TypeInt},
			{Name: "ra", Type: sqlparse.TypeFloat},
			{Name: "decl", Type: sqlparse.TypeFloat},
		},
		RAColumn: "ra", DeclColumn: "decl", DirectorKey: "id",
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec CatalogSpec
		want string // substring of the expected error; empty = valid
	}{
		{"valid", CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("T")}}, ""},
		{"empty db", CatalogSpec{Tables: []TableSpec{directorSpec("T")}}, "empty database"},
		{"bad table name", CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("a/b")}}, "letters, digits"},
		{"duplicate table", CatalogSpec{Database: "d",
			Tables: []TableSpec{directorSpec("T"), {
				Name: "t", Kind: KindReplicated,
				Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}},
			}}}, "duplicate table"},
		{"two directors", CatalogSpec{Database: "d",
			Tables: []TableSpec{directorSpec("A"), directorSpec("B")}}, "multiple director"},
		{"director without positions", CatalogSpec{Database: "d", Tables: []TableSpec{{
			Name: "T", Kind: KindDirector,
			Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
			DirectorKey: "id",
		}}}, "RAColumn"},
		{"director key not integer", CatalogSpec{Database: "d", Tables: []TableSpec{{
			Name: "T", Kind: KindDirector,
			Columns: sqlengine.Schema{
				{Name: "id", Type: sqlparse.TypeFloat},
				{Name: "ra", Type: sqlparse.TypeFloat},
				{Name: "decl", Type: sqlparse.TypeFloat},
			},
			RAColumn: "ra", DeclColumn: "decl", DirectorKey: "id",
		}}}, "must be integer"},
		{"child without director", CatalogSpec{Database: "d", Tables: []TableSpec{{
			Name: "C", Kind: KindChild,
			Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
			DirectorKey: "id",
		}}}, "no director table"},
		{"child names replicated as director", CatalogSpec{Database: "d", Tables: []TableSpec{
			{Name: "R", Kind: KindReplicated, Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}}},
			{Name: "C", Kind: KindChild, Director: "R",
				Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
				DirectorKey: "id"},
		}}, "not a director table"},
		{"child overlap without positions", CatalogSpec{Database: "d", Tables: []TableSpec{
			directorSpec("T"),
			{Name: "C", Kind: KindChild, Director: "T", Overlap: true,
				Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
				DirectorKey: "id"},
		}}, "Overlap requires position"},
		{"replicated with partition fields", CatalogSpec{Database: "d", Tables: []TableSpec{{
			Name: "R", Kind: KindReplicated, Overlap: true,
			Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}},
		}}}, "partitioning fields"},
		{"chunkId not trailing", CatalogSpec{Database: "d", Tables: []TableSpec{{
			Name: "T", Kind: KindDirector,
			Columns: sqlengine.Schema{
				{Name: "chunkId", Type: sqlparse.TypeInt},
				{Name: "id", Type: sqlparse.TypeInt},
				{Name: "ra", Type: sqlparse.TypeFloat},
				{Name: "decl", Type: sqlparse.TypeFloat},
			},
			RAColumn: "ra", DeclColumn: "decl", DirectorKey: "id",
		}}}, "trailing column pair"},
		{"chunk-table name collision", CatalogSpec{Database: "d", Tables: []TableSpec{
			directorSpec("Obj"),
			{Name: "Obj_7", Kind: KindChild, Director: "Obj",
				Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
				DirectorKey: "id"},
		}}, "collide"},
		{"overlap name collision", CatalogSpec{Database: "d", Tables: []TableSpec{
			directorSpec("Obj"),
			{Name: "objFullOverlap", Kind: KindReplicated, Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}}},
		}}, "collide"},
		{"digit suffixes that stay apart", CatalogSpec{Database: "d", Tables: []TableSpec{
			directorSpec("Station_7"),
			{Name: "Reading_2_1", Kind: KindChild, Director: "Station_7",
				Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
				DirectorKey: "id"},
			// Beside a replicated Station only Station itself is a worker-side name.
			{Name: "Station", Kind: KindReplicated, Columns: sqlengine.Schema{{Name: "x", Type: sqlparse.TypeInt}}},
		}}, ""},
		{"unknown index column", CatalogSpec{Database: "d", Tables: []TableSpec{func() TableSpec {
			s := directorSpec("T")
			s.IndexColumns = []string{"nope"}
			return s
		}()}}, "index column"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestApplySpecAppendsPartitionColumns(t *testing.T) {
	r, err := NewRegistryFromSpec(CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("T")}}, testChunker(t))
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	names := info.Schema.Names()
	if len(names) != 5 || names[3] != ChunkIDColumn || names[4] != SubChunkIDColumn {
		t.Errorf("schema = %v, want trailing chunkId/subChunkId", names)
	}
	if got := info.UserColumns().Names(); len(got) != 3 {
		t.Errorf("user columns = %v", got)
	}
}

func TestApplySpecRejectsSecondDirectorAcrossCalls(t *testing.T) {
	r := NewRegistry("d", testChunker(t))
	if err := r.ApplySpec(CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("A")}}); err != nil {
		t.Fatal(err)
	}
	err := r.ApplySpec(CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("B")}})
	if err == nil || !strings.Contains(err.Error(), "already has director") {
		t.Errorf("second director across calls: %v", err)
	}
	// Re-declaring the same director is fine (idempotent DDL).
	if err := r.ApplySpec(CatalogSpec{Database: "d", Tables: []TableSpec{directorSpec("A")}}); err != nil {
		t.Errorf("re-declare director: %v", err)
	}
}

func TestApplySpecDatabaseMismatch(t *testing.T) {
	r := NewRegistry("d", testChunker(t))
	err := r.ApplySpec(CatalogSpec{Database: "other", Tables: []TableSpec{directorSpec("A")}})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("database mismatch: %v", err)
	}
	// Empty database inherits the registry's.
	if err := r.ApplySpec(CatalogSpec{Tables: []TableSpec{directorSpec("A")}}); err != nil {
		t.Errorf("inherited database: %v", err)
	}
}

func TestChildResolvesDefaultDirector(t *testing.T) {
	spec := CatalogSpec{Database: "d", Tables: []TableSpec{
		directorSpec("T"),
		{Name: "C", Kind: KindChild,
			Columns:     sqlengine.Schema{{Name: "id", Type: sqlparse.TypeInt}},
			DirectorKey: "id"},
	}}
	r, err := NewRegistryFromSpec(spec, testChunker(t))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := r.Table("C")
	if info.Director != "T" {
		t.Errorf("child director = %q, want T", info.Director)
	}
}
