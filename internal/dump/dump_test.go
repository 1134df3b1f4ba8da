package dump

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

func sourceEngine(t testing.TB) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.New("LSST")
	if _, err := e.Execute(`CREATE TABLE r (objectId BIGINT, ra DOUBLE, note VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(`INSERT INTO r VALUES
		(1, 10.25, 'plain'),
		(2, -0.5, 'it''s quoted'),
		(3, 1e-30, NULL),
		(4, NULL, 'null ra')`); err != nil {
		t.Fatal(err)
	}
	return e
}

func query(t testing.TB, e *sqlengine.Engine, sql string) *sqlengine.Result {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDecode(t *testing.T) {
	res := query(t, sourceEngine(t), "SELECT objectId, ra, note FROM r ORDER BY objectId")
	dec, err := Decode(Dump("res_1", res))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "res_1" || len(dec.Rows) != 4 || len(dec.Schema) != 3 {
		t.Fatalf("dec = %+v", dec)
	}
	// Names and types survive: BIGINT column decodes to int64, DOUBLE to
	// float64, VARCHAR to string, NULL to nil — including the negative
	// float and the tiny one, exactly.
	if got := strings.Join(dec.Schema.Names(), ","); got != "objectId,ra,note" {
		t.Errorf("column names = %s", got)
	}
	for i, want := range []sqlparse.ColType{sqlparse.TypeInt, sqlparse.TypeFloat, sqlparse.TypeString} {
		if dec.Schema[i].Type != want {
			t.Errorf("column %d type = %v, want %v", i, dec.Schema[i].Type, want)
		}
	}
	if got, ok := dec.Rows[0][0].(int64); !ok || got != 1 {
		t.Errorf("objectId decoded as %T %v", dec.Rows[0][0], dec.Rows[0][0])
	}
	if got := dec.Rows[1][1].(float64); got != -0.5 {
		t.Errorf("negative float decoded as %v", dec.Rows[1][1])
	}
	if got := dec.Rows[2][1].(float64); got != 1e-30 {
		t.Errorf("tiny float decoded as %v", got)
	}
	if got := dec.Rows[1][2].(string); got != "it's quoted" {
		t.Errorf("string decoded as %q", got)
	}
	if !sqlengine.IsNull(dec.Rows[2][2]) || !sqlengine.IsNull(dec.Rows[3][1]) {
		t.Error("NULLs lost in decode")
	}
}

func TestRoundTripQueryResult(t *testing.T) {
	res := query(t, sourceEngine(t), "SELECT objectId, ra * 2 AS ra2 FROM r WHERE objectId <= 2 ORDER BY objectId")
	dec, err := Decode(Dump("res_1", res))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Schema[1].Name != "ra2" || len(dec.Rows) != 2 {
		t.Fatalf("dec = %+v", dec)
	}
	if dec.Rows[0][1].(float64) != 20.5 || dec.Rows[1][1].(float64) != -1.0 {
		t.Errorf("values: %v", dec.Rows)
	}
}

func TestEmptyResult(t *testing.T) {
	res := query(t, sourceEngine(t), "SELECT objectId FROM r WHERE objectId = 999")
	dec, err := Decode(Dump("empty_r", res))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "empty_r" || len(dec.Rows) != 0 {
		t.Errorf("name=%q rows=%d", dec.Name, len(dec.Rows))
	}
	// The schema ships even with no rows: an empty chunk result still
	// shapes the session table.
	if len(dec.Schema) != 1 || dec.Schema[0].Name != "objectId" {
		t.Errorf("schema = %+v", dec.Schema)
	}
}

func TestQualifiedTargetName(t *testing.T) {
	res := query(t, sourceEngine(t), "SELECT * FROM r")
	dec, err := Decode(Dump("resultdb.res_77", res))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != "resultdb.res_77" {
		t.Errorf("name = %q", dec.Name)
	}
}

func TestSpecialFloatValues(t *testing.T) {
	vals := []float64{0.1, 1234567890.12345, -1e300, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	res := &sqlengine.Result{Cols: []string{"x"}, Types: []sqlparse.ColType{sqlparse.TypeFloat}}
	for _, v := range vals {
		res.Rows = append(res.Rows, sqlengine.Row{v})
	}
	dec, err := Decode(Dump("f2", res))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range vals {
		if got := dec.Rows[i][0].(float64); math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("row %d: %v != %v", i, got, w)
		}
	}
}

// TestDecodeCoercesToDeclaredType: values take the declared column
// type at decode, as the engine's INSERT would — the session table the
// czar builds from decoded rows is typed by the schema, not by what a
// worker happened to ship. A column with no declared type is DOUBLE.
func TestDecodeCoercesToDeclaredType(t *testing.T) {
	res := &sqlengine.Result{
		Cols:  []string{"i", "f", "s", "untyped"},
		Types: []sqlparse.ColType{sqlparse.TypeInt, sqlparse.TypeFloat, sqlparse.TypeString},
		Rows: []sqlengine.Row{
			{2.9, int64(3), int64(7), int64(1)},
			{"12", "1.5", 2.5, nil},
			{"not a number", nil, "s", 0.25},
		},
	}
	dec, err := Decode(Dump("t", res))
	if err != nil {
		t.Fatal(err)
	}
	want := []sqlengine.Row{
		{int64(2), 3.0, "7", 1.0},
		{int64(12), 1.5, "2.5", nil},
		{"not a number", nil, "s", 0.25},
	}
	for i := range want {
		for j := range want[i] {
			if dec.Rows[i][j] != want[i][j] {
				t.Errorf("row %d col %d: %T %v, want %T %v", i, j, dec.Rows[i][j], dec.Rows[i][j], want[i][j], want[i][j])
			}
		}
	}
	if dec.Schema[3].Type != sqlparse.TypeFloat {
		t.Errorf("untyped column declared %v", dec.Schema[3].Type)
	}
}

// hostileStreams are malformed result streams: truncations of a valid
// one and counts or lengths claiming more than the bytes present.
func hostileStreams(t testing.TB) map[string]string {
	valid := Dump("r_abc", query(t, sourceEngine(t), "SELECT * FROM r"))
	uv := func(v uint64) string { return string(binary.AppendUvarint(nil, v)) }
	out := map[string]string{
		"empty":               "",
		"sql text":            "CREATE TABLE a (x BIGINT);",
		"magic only":          streamMagic,
		"wrong version":       "QRES2" + valid[len(streamMagic):],
		"huge name length":    streamMagic + uv(1<<62),
		"huge column count":   streamMagic + uv(1) + "t" + uv(1<<62),
		"huge column name":    streamMagic + uv(1) + "t" + uv(1) + uv(1<<62),
		"missing column type": streamMagic + uv(1) + "t" + uv(1) + uv(1) + "c",
		"unknown column type": streamMagic + uv(1) + "t" + uv(1) + uv(1) + "c" + "z" + uv(0),
		"huge row count":      streamMagic + uv(1) + "t" + uv(1) + uv(1) + "c" + "i" + uv(1<<62),
		"row count past end":  streamMagic + uv(1) + "t" + uv(1) + uv(1) + "c" + "i" + uv(2) + "\x01n",
		"wrapping row count":  streamMagic + uv(1) + "t" + uv(0) + uv(math.MaxUint64),
		"narrow row":          streamMagic + uv(1) + "t" + uv(2) + uv(1) + "a" + "i" + uv(1) + "b" + "i" + uv(1) + "\x01n",
		"wide row":            streamMagic + uv(1) + "t" + uv(1) + uv(1) + "c" + "i" + uv(1) + "\x02nn",
		"bad cell tag":        streamMagic + uv(1) + "t" + uv(1) + uv(1) + "c" + "i" + uv(1) + "\x01z",
		"trailing bytes":      valid + "x",
	}
	for _, cut := range []int{len(valid) - 1, len(valid) / 2, len(streamMagic) + 1} {
		out[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}
	return out
}

func TestDecodeRejectsHostileStreams(t *testing.T) {
	for name, s := range hostileStreams(t) {
		if dec, err := Decode(s); err == nil {
			t.Errorf("%s: accepted as %+v", name, dec)
		}
	}
}

// walkSeeds are streams around the lines the czar's checking walk draws:
// ones whose cells all have their column's type, ones that hold another
// type (forwarded all the same, where Decode converts), ones that are not
// a stream, and ones written as no encoder here writes them.
func walkSeeds() map[string]string {
	uv := func(v uint64) string { return string(binary.AppendUvarint(nil, v)) }
	stream := func(types string, nrows int, rows ...string) string {
		s := streamMagic + uv(1) + "t" + uv(uint64(len(types)))
		for i := range types {
			s += uv(1) + string(rune('a'+i)) + types[i:i+1]
		}
		return s + uv(uint64(nrows)) + strings.Join(rows, "")
	}
	i7, f7 := "i\x00\x00\x00\x00\x00\x00\x00\x07", "f\x40\x1c\x00\x00\x00\x00\x00\x00"
	return map[string]string{
		"typed":                  stream("ifs", 2, "\x03"+i7+f7+"s\x01x", "\x03nnn"),
		"int in DOUBLE column":   stream("f", 2, "\x01"+f7, "\x01"+i7),
		"string in BIGINT":       stream("i", 2, "\x01"+i7, "\x01s\x0212"),
		"unparsable in BIGINT":   stream("i", 1, "\x01s\x02ab"),
		"float in VARCHAR":       stream("s", 1, "\x01"+f7),
		"NULL-only column":       stream("if", 2, "\x02"+i7+"n", "\x02nn"),
		"zero rows":              stream("ifs", 0),
		"zero columns":           stream("", 2, "\x00", "\x00"),
		"short row":              stream("if", 1, "\x01"+i7),
		"long row":               stream("i", 1, "\x02"+i7+i7),
		"trailing bytes":         stream("i", 1, "\x01"+i7, "n"),
		"row count beyond bytes": stream("i", 3, "\x01"+i7),
		"padded width varint":    stream("i", 1, "\x81\x00"+i7),
		"padded string length":   stream("s", 1, "\x01s\x81\x00x"),
	}
}

// TestEncodedAgreesWithDecode runs the fuzz property over the seeds, and
// pins what the walk makes of each.
func TestEncodedAgreesWithDecode(t *testing.T) {
	want := map[string]string{
		"typed": "typed", "NULL-only column": "typed", "zero rows": "typed", "zero columns": "typed",
		"int in DOUBLE column": "mixed", "string in BIGINT": "mixed", "unparsable in BIGINT": "mixed", "float in VARCHAR": "mixed",
		"short row": "rejected", "long row": "rejected", "trailing bytes": "rejected", "row count beyond bytes": "rejected",
		// Decode reads these; the walk forwards bytes and holds them to the
		// one encoding.
		"padded width varint": "rejected", "padded string length": "rejected",
	}
	for name, s := range walkSeeds() {
		if got := checkWalk(t, []byte(s)); got != want[name] {
			t.Errorf("%s: the walk finds the stream %s, want %s", name, got, want[name])
		}
	}
}

// checkWalk holds the czar's checking walk (Open, Stream.Encoded), which
// forwards rows without decoding them, to the decoders it stands in for.
// No check got weaker: it accepts no stream Decode rejects. And the bytes
// it forwards are the rows: each is, byte for byte, what rowcodec writes
// for the row rowcodec reads there, and that row, its values converted to
// the declared column types, is Decode's — so where every cell has its
// column's type ("typed"), forwarding the bytes and re-encoding Decode's
// rows give a client the same frames. It reports what the walk made of
// the stream.
func checkWalk(t *testing.T, data []byte) string {
	t.Helper()
	dec, decErr := Decode(string(data))
	st, err := Open(data)
	if err != nil {
		return "rejected"
	}
	b, kinds, err := st.Encoded()
	if err != nil {
		return "rejected"
	}
	if decErr != nil {
		t.Fatalf("the walk accepts a stream Decode rejects: %v", decErr)
	}
	if b.Len() != len(dec.Rows) || len(kinds) != len(dec.Schema) {
		t.Fatalf("the walk found %d rows x %d columns, Decode %d x %d", b.Len(), len(kinds), len(dec.Rows), len(dec.Schema))
	}
	found := "typed"
	for j, k := range kinds {
		if k&^map[sqlparse.ColType]rowcodec.Kinds{sqlparse.TypeInt: rowcodec.HasInt, sqlparse.TypeFloat: rowcodec.HasFloat,
			sqlparse.TypeString: rowcodec.HasString}[dec.Schema[j].Type] != 0 {
			found = "mixed"
		}
	}
	// same is == with a NaN equal to itself.
	same := func(a, b sqlengine.Value) bool { return a == b || (a != a && b != b) }
	for i, want := range dec.Rows {
		row, next, err := rowcodec.DecodeRow(b.Row(i), 0)
		if err != nil || next != len(b.Row(i)) {
			t.Fatalf("forwarded row %d does not decode whole: %v", i, err)
		}
		enc, err := rowcodec.AppendRow(nil, row)
		if err != nil || !bytes.Equal(enc, b.Row(i)) {
			t.Fatalf("row %d is forwarded as %x, its values %v encode as %x (%v)", i, b.Row(i), row, enc, err)
		}
		for j, v := range row {
			if conv := coerceValue(v, dec.Schema[j].Type); !same(conv, want[j]) || (found == "typed" && !same(v, want[j])) {
				t.Fatalf("row %d column %d is forwarded as %#v, Decode returns %#v", i, j, v, want[j])
			}
		}
	}
	return found
}

// FuzzResultDecode holds the czar-side decoder to reject-or-round-trip
// over bytes a worker (or anything on the fabric claiming to be one)
// controls: no panic, no more rows than input bytes, and an accepted
// stream re-dumps to one that decodes to the same shape. The walk that
// forwards a stream without decoding it is held to the decoder
// (checkWalk).
func FuzzResultDecode(f *testing.F) {
	f.Add([]byte(Dump("r_abc", query(f, sourceEngine(f), "SELECT * FROM r"))))
	f.Add([]byte(Dump("empty", &sqlengine.Result{})))
	for _, s := range hostileStreams(f) {
		f.Add([]byte(s))
	}
	for _, s := range walkSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWalk(t, data)
		dec, err := Decode(string(data))
		if err != nil {
			return
		}
		if len(dec.Rows) > len(data) || len(dec.Schema) > len(data) {
			t.Fatalf("decoded %d rows x %d columns from %d bytes", len(dec.Rows), len(dec.Schema), len(data))
		}
		res := &sqlengine.Result{Cols: dec.Schema.Names(), Rows: dec.Rows}
		for _, c := range dec.Schema {
			res.Types = append(res.Types, c.Type)
		}
		again, err := Decode(Dump(dec.Name, res))
		if err != nil {
			t.Fatalf("accepted stream does not survive a re-dump: %v", err)
		}
		if again.Name != dec.Name || len(again.Schema) != len(dec.Schema) || len(again.Rows) != len(dec.Rows) {
			t.Fatalf("round trip changed shape: %q %dx%d -> %q %dx%d", dec.Name, len(dec.Rows), len(dec.Schema),
				again.Name, len(again.Rows), len(again.Schema))
		}
		for i, row := range dec.Rows {
			for j := range row {
				if sqlengine.FormatValue(row[j]) != sqlengine.FormatValue(again.Rows[i][j]) {
					t.Fatalf("round trip diverged at row %d col %d: %v -> %v", i, j, row[j], again.Rows[i][j])
				}
			}
		}
	})
}

func BenchmarkDumpDecode1kRows(b *testing.B) {
	res := &sqlengine.Result{
		Cols:  []string{"i", "x"},
		Types: []sqlparse.ColType{sqlparse.TypeInt, sqlparse.TypeFloat},
	}
	for i := 0; i < 1000; i++ {
		res.Rows = append(res.Rows, sqlengine.Row{int64(i), 0.5})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(Dump("copy", res)); err != nil {
			b.Fatal(err)
		}
	}
}
