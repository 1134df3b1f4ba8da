package ingest

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// Fuzz targets for the ingest wire formats: the binary row batch
// (/load payloads, chunkstore segment contents) and the segment-set
// frame (/repl transfers). Both decode bytes off the fabric, so
// hostile input must produce an error — never a panic, and never an
// allocation driven past the input's own size by a claimed row count,
// column count, string length, or segment length. Hostile seeds live
// in testdata/fuzz/<target>/.

// fuzzBatch is the valid seed of FuzzDecodeBatch, and fuzzBatchSchema a
// schema its rows fit.
var (
	fuzzBatch = Batch{
		Rows:    []sqlengine.Row{{int64(1), 1.5, "str", nil}, {int64(2), 2.5, "", nil}},
		Overlap: []sqlengine.Row{{int64(9), 0.25, "ov", nil}},
	}
	fuzzBatchSchema = sqlengine.Schema{{Name: "i", Type: sqlparse.TypeInt}, {Name: "f", Type: sqlparse.TypeFloat},
		{Name: "s", Type: sqlparse.TypeString}, {Name: "n", Type: sqlparse.TypeInt}}
)

// checkAppendIsAtomic decodes data straight into the columns of a chunk
// table and its overlap companion, each holding a row already, the way a
// worker applies a /load batch: a batch that decodes appends exactly its
// rows, and one that does not — truncated, hostile, of another width, or
// holding a cell its column cannot take — leaves both tables as they were,
// for whatever is appended next.
func checkAppendIsAtomic(t *testing.T, data []byte) {
	t.Helper()
	held := sqlengine.Row{int64(7), nil, "held", int64(0)}
	tables := [2]*sqlengine.Table{sqlengine.NewTable("rows", fuzzBatchSchema), sqlengine.NewTable("overlap", fuzzBatchSchema)}
	for _, tbl := range tables {
		if err := tbl.Insert(held); err != nil {
			t.Fatal(err)
		}
	}
	rows, overlap := tables[0].Appender(), tables[1].Appender()
	want := [2]int{1, 1}
	boxed, boxErr := DecodeBatch(data)
	if _, err := DecodeBatchInto(data, rows, overlap); err == nil {
		if boxErr != nil {
			t.Fatalf("decodes into columns but not into rows: %v", boxErr)
		}
		rows.Commit()
		overlap.Commit()
		want = [2]int{1 + len(boxed.Rows), 1 + len(boxed.Overlap)}
	}
	next := sqlengine.Row{int64(8), 0.5, "next", int64(1)}
	for i, tbl := range tables {
		if tbl.Len() != want[i] {
			t.Fatalf("table %s is %d rows long after the batch, want %d", tbl.Name, tbl.Len(), want[i])
		}
		if err := tbl.Insert(next); err != nil {
			t.Fatal(err)
		}
		for pos, w := range map[int]sqlengine.Row{0: held, want[i]: next} {
			if got := tbl.Row(pos); !slices.Equal(got, w) {
				t.Fatalf("table %s row %d reads %v after the batch, want %v", tbl.Name, pos, got, w)
			}
		}
	}
}

// TestTruncatedBatchLeavesNoPartial cuts the valid batch at every byte.
func TestTruncatedBatchLeavesNoPartial(t *testing.T) {
	valid, err := EncodeBatch(fuzzBatch)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(valid); cut++ {
		checkAppendIsAtomic(t, valid[:cut])
	}
	// A cell its column cannot take, in the last row of the batch.
	bad, err := EncodeBatch(Batch{Rows: fuzzBatch.Rows, Overlap: []sqlengine.Row{{"not a number", 0.25, "ov", nil}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeBatchInto(bad, sqlengine.NewTable("Object_7", fuzzBatchSchema).Appender(),
		sqlengine.NewTable("ObjectFullOverlap_7", fuzzBatchSchema).Appender())
	for _, part := range []string{"table ObjectFullOverlap_7", "column i", "row 0"} {
		if err == nil || !strings.Contains(err.Error(), part) {
			t.Errorf("error %v does not name %s", err, part)
		}
	}
	checkAppendIsAtomic(t, bad)
}

func FuzzDecodeBatch(f *testing.F) {
	valid, err := EncodeBatch(fuzzBatch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("QLOAD2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAppendIsAtomic(t, data)
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Every decoded row costs at least one input byte; more rows
		// than bytes means a count guard failed.
		if len(b.Rows)+len(b.Overlap) > len(data) {
			t.Fatalf("decoded %d rows from %d input bytes", len(b.Rows)+len(b.Overlap), len(data))
		}
		// Accepted batches hold only codec-supported value types, so
		// they must re-encode and decode back to the same shape. (Byte
		// equality is NOT required: Uvarint accepts padded varints the
		// canonical encoder would never emit.)
		re, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		b2, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(b2.Rows) != len(b.Rows) || len(b2.Overlap) != len(b.Overlap) {
			t.Fatalf("round trip changed shape: %d+%d -> %d+%d",
				len(b.Rows), len(b.Overlap), len(b2.Rows), len(b2.Overlap))
		}
	})
}

func FuzzDecodeSegments(f *testing.F) {
	f.Add(EncodeSegments([][]byte{[]byte("one"), {}, []byte("three")}))
	f.Add(EncodeSegments(nil))
	f.Add([]byte("QSEGS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, err := DecodeSegments(data)
		if err != nil {
			return
		}
		total := 0
		for _, s := range segs {
			total += len(s)
		}
		if total > len(data) {
			t.Fatalf("decoded %d segment bytes from %d input bytes", total, len(data))
		}
		again, err := DecodeSegments(EncodeSegments(segs))
		if err != nil {
			t.Fatalf("re-encoded segment set does not decode: %v", err)
		}
		if len(again) != len(segs) {
			t.Fatalf("round trip changed count: %d -> %d", len(segs), len(again))
		}
		for i := range again {
			if !bytes.Equal(again[i], segs[i]) {
				t.Fatalf("segment %d round-trip mismatch", i)
			}
		}
	})
}
