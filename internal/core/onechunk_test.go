package core_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	qserv "repro"
	"repro/internal/core"
	"repro/internal/czar"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/sphgeom"
)

// TestOneChunkAnswersAsTheSplit: a query's answer does not depend on how
// many chunks its route has. Statements of one chunk run whole on their
// worker, and the same statements with the split forced answer them cell
// for cell — names, column types, each cell's type and value, the row order
// an ORDER BY fixes — and so does the oracle; a statement the split rejects
// is rejected with the same error on one chunk.
func TestOneChunkAnswersAsTheSplit(t *testing.T) {
	cat, err := datagen.Generate(
		datagen.Config{Seed: 11, ObjectsPerPatch: 400, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := qserv.DefaultClusterConfig(2)
	cfg.ResultCacheBytes = 0 // each run executes: the split must not be served the whole one's rows
	cl, err := qserv.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Load(cat); err != nil {
		t.Fatal(err)
	}
	oracle, err := qserv.NewOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Load(cat); err != nil {
		t.Fatal(err)
	}

	// A box one degree inside the chunk of an object: one chunk, many rows.
	ch, err := partition.NewChunker(cfg.Partition)
	if err != nil {
		t.Fatal(err)
	}
	obj := cat.Objects[len(cat.Objects)/2]
	c, _ := ch.Locate(sphgeom.NewPoint(obj.RA, obj.Decl))
	b, err := ch.ChunkBounds(c)
	if err != nil {
		t.Fatal(err)
	}
	box := fmt.Sprintf(" FROM Object WHERE qserv_areaspec_box(%g, %g, %g, %g)", b.RAMin+1, b.DeclMin+1, b.RAMax-1, b.DeclMax-1)

	avg := "SELECT AVG(objectId), SUM(objectId), COUNT(*)" + box
	for _, tc := range []struct {
		sql     string
		ordered bool // the ORDER BY fixes every row's place
	}{
		{avg, true},
		{"SELECT COUNT(*), SUM(objectId), SUM(ra_PS), MIN(decl_PS), AVG(objectId)" + box + " AND objectId + 1 < 0", true},
		{"SELECT chunkId, subChunkId, COUNT(*) AS n, MAX(ra_PS)" + box + " GROUP BY chunkId, subChunkId", false},
		{"SELECT subChunkId, COUNT(*) AS n" + box + " GROUP BY subChunkId ORDER BY n DESC, subChunkId LIMIT 3", true},
		{"SELECT objectId, ra_PS" + box + " ORDER BY ra_PS DESC, objectId LIMIT 5", true},
		{"SELECT objectId, ra_PS" + box + " ORDER BY ra_PS LIMIT 0", true},
		{"SELECT DISTINCT subChunkId" + box, false},
		{"SELECT DISTINCT subChunkId" + box + " ORDER BY subChunkId", true},
		{"SELECT DISTINCT chunkId, COUNT(*) > 0 AS nonempty" + box + " GROUP BY subChunkId", false},
		{"SELECT ra_PS AS x, decl_PS AS x" + box + " ORDER BY objectId LIMIT 4", true},
		{"SELECT MIN(ra_PS) AS x, MAX(ra_PS) AS x" + box, true},
		{"SELECT *" + box + " ORDER BY decl_PS LIMIT 3", true},
		{fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d ORDER BY ra_PS", obj.ObjectID), true},
	} {
		whole, err := cl.Czar.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var split *czar.QueryResult
		core.WithSplitAlways(func() { split, err = cl.Czar.Query(tc.sql) })
		if err != nil {
			t.Fatalf("%s, split: %v", tc.sql, err)
		}
		want, err := oracle.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s, oracle: %v", tc.sql, err)
		}
		if whole.ChunksDispatched != 1 || split.ChunksDispatched != 1 {
			t.Fatalf("%s: %d and %d chunks dispatched, want one", tc.sql, whole.ChunksDispatched, split.ChunksDispatched)
		}
		if tc.sql == avg {
			if n, ok := whole.Rows[0][2].(int64); !ok || n < 100 {
				t.Fatalf("%s: %v rows in the box, want a hundred or more", tc.sql, whole.Rows[0][2])
			}
		}
		if !slices.Equal(whole.Cols, split.Cols) || !slices.Equal(whole.Cols, want.Cols) || !slices.Equal(whole.Types, split.Types) {
			t.Errorf("%s: columns %v %v whole, %v %v split, %v oracle", tc.sql, whole.Cols, whole.Types, split.Cols, split.Types, want.Cols)
		}
		got, spl, ora := rowKeys(whole.Rows), rowKeys(split.Rows), make([]string, len(want.Rows))
		for i, r := range want.Rows {
			ora[i] = rowKey(r)
		}
		if !tc.ordered {
			slices.Sort(got)
			slices.Sort(spl)
			slices.Sort(ora)
		}
		if !slices.Equal(got, spl) || !slices.Equal(got, ora) {
			t.Errorf("%s:\nwhole  %q\nsplit  %q\noracle %q", tc.sql, got, spl, ora)
		}
	}

	for _, sql := range []string{
		"SELECT COUNT(DISTINCT objectId)" + box,
		"SELECT *, COUNT(*)" + box,
		"SELECT *" + box + " ORDER BY ra_PS + 1",
		"SELECT x.*" + box,
		"SELECT noSuchColumn" + box,
		"SELECT SUM(noSuchColumn)" + box,
		// The dialect has no HAVING: a GROUP BY with one is refused whole.
		"SELECT subChunkId, COUNT(*) AS n" + box + " GROUP BY subChunkId HAVING n > 1",
	} {
		_, whole := cl.Czar.Query(sql)
		var split error
		core.WithSplitAlways(func() { _, split = cl.Czar.Query(sql) })
		if whole == nil || split == nil || whole.Error() != split.Error() {
			t.Errorf("%s: rejected with %v on one chunk, %v split", sql, whole, split)
		}
	}
}

func rowKeys[R ~[]any](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	return out
}

// rowKey spells a row's cells with their types; a float keeps nine
// significant digits, so a mean taken as one sum over one count and as the
// sum of sums over the sum of counts reads alike.
func rowKey[R ~[]any](r R) string {
	cells := make([]string, len(r))
	for i, v := range r {
		if f, ok := v.(float64); ok && !math.IsNaN(f) {
			cells[i] = fmt.Sprintf("float64:%.9g", f)
			continue
		}
		cells[i] = fmt.Sprintf("%T:%v", v, v)
	}
	return strings.Join(cells, "|")
}
