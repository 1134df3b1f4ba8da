package ingest

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chunkstore"
	"repro/internal/meta"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{
		Rows: []sqlengine.Row{
			{int64(1), 3.5, "plain", nil},
			{int64(-42), -0.0, "tabs\tand\nnewlines and ünïcode", int64(1 << 62)},
			{math.Inf(1), math.SmallestNonzeroFloat64, "", int64(0)},
		},
		Overlap: []sqlengine.Row{
			{int64(7), 1e-300, "overlap", nil},
		},
	}
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, b.Rows) {
		t.Errorf("rows:\n got %v\nwant %v", got.Rows, b.Rows)
	}
	if !reflect.DeepEqual(got.Overlap, b.Overlap) {
		t.Errorf("overlap:\n got %v\nwant %v", got.Overlap, b.Overlap)
	}
}

func TestBatchRoundTripEmpty(t *testing.T) {
	data, err := EncodeBatch(Batch{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || len(got.Overlap) != 0 {
		t.Errorf("empty batch decoded to %v", got)
	}
}

func TestBatchFloatBitExact(t *testing.T) {
	vals := []float64{math.Pi, 1e308, 5e-324, -0.0, math.NaN()}
	rows := make([]sqlengine.Row, len(vals))
	for i, v := range vals {
		rows[i] = sqlengine.Row{v}
	}
	data, err := EncodeBatch(Batch{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		g := got.Rows[i][0].(float64)
		if math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("value %d: %x != %x", i, math.Float64bits(g), math.Float64bits(v))
		}
	}
}

// TestParentCommitBytesStillDecode holds the stored and replicated
// formats still: testdata/golden/ holds an EncodeBatch payload and the
// chunkstore segment file made of it, both written by the commit before
// the cell codec moved to package rowcodec. Today's decoder must read
// them and today's encoder must write the same bytes.
func TestParentCommitBytesStillDecode(t *testing.T) {
	want := Batch{
		Rows: []sqlengine.Row{
			{int64(1), 3.5, "plain", nil},
			{int64(math.MinInt64), math.Copysign(0, -1), "", int64(math.MaxInt64)},
			{int64(-42), math.NaN(), "tabs\tand\nnewlines, ünïcode 星", math.Inf(1)},
			{nil, math.Inf(-1), "it's 'quoted'", math.SmallestNonzeroFloat64},
		},
		Overlap: []sqlengine.Row{
			{int64(7), 1e-300, "overlap", nil},
		},
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "parent-batch.bin"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("EncodeBatch no longer writes the parent commit's bytes:\n got %q\nwant %q", enc, golden)
	}

	// The segment file goes through the store's own recovery scan, as
	// it would after a restart onto an old data directory.
	seg, err := os.ReadFile(filepath.Join("testdata", "golden", "parent-seg-00000001.qseg"))
	if err != nil {
		t.Fatal(err)
	}
	u := chunkstore.Unit{Table: "Object", Chunk: 7}
	dir := t.TempDir()
	unitDir := filepath.Join(dir, "tables", u.String())
	if err := os.MkdirAll(unitDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(unitDir, "seg-00000001.qseg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := chunkstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segs, err := st.Segments(u)
	if err != nil || len(rec.Quarantined) != 0 || len(rec.Units) != 1 || len(segs) != 1 {
		t.Fatalf("recovery of the parent commit's segment: %+v, %d segments, %v", rec, len(segs), err)
	}
	for name, payload := range map[string][]byte{"batch": golden, "segment": segs[0]} {
		got, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Rows) != len(want.Rows) || len(got.Overlap) != len(want.Overlap) {
			t.Fatalf("%s: decoded %d+%d rows, want %d+%d", name,
				len(got.Rows), len(got.Overlap), len(want.Rows), len(want.Overlap))
		}
		// The encoding is injective (floats ship as their bits), so
		// equal re-encodings mean bit-equal values, NaN included.
		re, err := EncodeBatch(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(re, golden) {
			t.Errorf("%s: decoded rows re-encode differently:\n got %q\nwant %q", name, re, golden)
		}
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, err := DecodeBatch([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	data, err := EncodeBatch(Batch{Rows: []sqlengine.Row{{int64(1), "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatch(data[:len(data)-2]); err == nil {
		t.Error("truncated batch accepted")
	}
	// A batch is one table's rows: an overlap row of another width than
	// the first row is refused, as a table's appender refuses it.
	ragged, err := EncodeBatch(Batch{Rows: []sqlengine.Row{{int64(1), "x"}}, Overlap: []sqlengine.Row{{int64(2)}}})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := DecodeBatch(ragged); err == nil {
		t.Errorf("rows of two widths accepted as %v + %v", b.Rows, b.Overlap)
	}
}

// TestDecodeBatchHostileCounts: corrupt or hostile varint counts must
// be rejected as errors, never trusted into allocations (a worker
// receiving them over the fabric must not panic).
func TestDecodeBatchHostileCounts(t *testing.T) {
	appendUvarint := func(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

	// Row count far beyond the payload.
	huge := append([]byte(nil), batchMagic...)
	huge = appendUvarint(huge, 1<<62)
	huge = appendUvarint(huge, 0)
	if _, err := DecodeBatch(huge); err == nil {
		t.Error("huge row count accepted")
	}
	// Counts whose sum overflows.
	wrap := append([]byte(nil), batchMagic...)
	wrap = appendUvarint(wrap, 1<<63)
	wrap = appendUvarint(wrap, 1<<63)
	if _, err := DecodeBatch(wrap); err == nil {
		t.Error("overflowing counts accepted")
	}
	// One row claiming a huge column count.
	cols := append([]byte(nil), batchMagic...)
	cols = appendUvarint(cols, 1)
	cols = appendUvarint(cols, 0)
	cols = appendUvarint(cols, 1<<62)
	if _, err := DecodeBatch(cols); err == nil {
		t.Error("huge column count accepted")
	}
	// Many rows, the first claiming a width the bytes could hold once but
	// not for every row: refused before the slabs are sized from it.
	wide := append([]byte(nil), batchMagic...)
	wide = appendUvarint(wide, 1000)
	wide = appendUvarint(wide, 0)
	wide = appendUvarint(wide, 1000)
	wide = append(wide, bytes.Repeat([]byte{'n'}, 1000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatch(wide)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("1000 rows of 1000 cells accepted from 1002 bytes")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("%d bytes allocated to refuse 1002 bytes of batch", n)
	}
	// A string value claiming a huge length.
	str := append([]byte(nil), batchMagic...)
	str = appendUvarint(str, 1)
	str = appendUvarint(str, 0)
	str = appendUvarint(str, 1) // one column
	str = append(str, 's')
	str = appendUvarint(str, 1<<62)
	if _, err := DecodeBatch(str); err == nil {
		t.Error("huge string length accepted")
	}
}

func TestEncodeBatchRejectsBadValue(t *testing.T) {
	if _, err := EncodeBatch(Batch{Rows: []sqlengine.Row{{complex(1, 2)}}}); err == nil {
		t.Error("unsupported value type accepted")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := meta.CatalogSpec{
		Database: "sensors",
		Tables: []meta.TableSpec{
			{
				Name: "Station", Kind: meta.KindDirector,
				Columns: sqlengine.Schema{
					{Name: "stationId", Type: sqlparse.TypeInt},
					{Name: "lon", Type: sqlparse.TypeFloat},
					{Name: "lat", Type: sqlparse.TypeFloat},
					{Name: "label", Type: sqlparse.TypeString},
				},
				RAColumn: "lon", DeclColumn: "lat", DirectorKey: "stationId",
				Overlap: true, IndexColumns: []string{"label"},
				PaperRows: 123, PaperRowBytes: 10,
			},
			{
				Name: "Reading", Kind: meta.KindChild, Director: "Station",
				Columns: sqlengine.Schema{
					{Name: "readingId", Type: sqlparse.TypeInt},
					{Name: "stationId", Type: sqlparse.TypeInt},
					{Name: "v", Type: sqlparse.TypeFloat},
				},
				DirectorKey: "stationId",
			},
			{
				Name: "Kind", Kind: meta.KindReplicated,
				Columns: sqlengine.Schema{{Name: "k", Type: sqlparse.TypeInt}},
			},
		},
	}
	data, err := EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("spec round trip:\n got %+v\nwant %+v", got, spec)
	}
}

func TestDecodeSpecRejectsBadPayloads(t *testing.T) {
	if _, err := DecodeSpec([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := DecodeSpec([]byte(`{"database":"d","tables":[{"name":"t","kind":"nope"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := DecodeSpec([]byte(`{"database":"d","tables":[{"name":"t","kind":"replicated","columns":[{"name":"c","type":"GEOMETRY"}]}]}`)); err == nil {
		t.Error("unknown column type accepted")
	}
}

// ---------- segment-set framing ----------

func TestSegmentsRoundTrip(t *testing.T) {
	segs := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	frame := EncodeSegments(segs)
	if !IsSegments(frame) {
		t.Fatal("frame not recognized as segments")
	}
	got, err := DecodeSegments(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(segs) {
		t.Fatalf("decoded %d segments, want %d", len(got), len(segs))
	}
	for i := range segs {
		if string(got[i]) != string(segs[i]) {
			t.Fatalf("segment %d = %q, want %q", i, got[i], segs[i])
		}
	}
	// An empty set is a valid frame (a table with no rows yet).
	got, err = DecodeSegments(EncodeSegments(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty set: %v %v", got, err)
	}
}

func TestSegmentsRejectsLegacyBatch(t *testing.T) {
	// A bare encoded batch must NOT look like a segment set: installRepl
	// dispatches on IsSegments to stay compatible with old payloads.
	data, err := EncodeBatch(Batch{Rows: []sqlengine.Row{{int64(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if IsSegments(data) {
		t.Fatal("legacy batch payload misdetected as a segment set")
	}
}

func TestSegmentsCorruptionDetected(t *testing.T) {
	frame := EncodeSegments([][]byte{[]byte("payload-one"), []byte("payload-two")})
	// Flip one payload byte: the per-segment CRC must catch it.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, err := DecodeSegments(bad); err == nil {
		t.Fatal("corrupted segment payload decoded without error")
	}
	// Truncation anywhere inside the frame must error, never panic.
	for cut := len(segmentsMagic); cut < len(frame); cut++ {
		if _, err := DecodeSegments(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected: a frame is the whole payload.
	if _, err := DecodeSegments(append(append([]byte(nil), frame...), 0xEE)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A hostile segment count can't cause a huge allocation.
	hostile := append([]byte(nil), segmentsMagic...)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if _, err := DecodeSegments(hostile); err == nil {
		t.Fatal("hostile segment count accepted")
	}
}
