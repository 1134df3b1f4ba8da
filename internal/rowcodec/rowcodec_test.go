package rowcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// sameValue is equality of dynamic type and bits: -0.0 differs from 0.0,
// a NaN equals only the NaN of its payload, and int64(1) differs from 1.0.
func sameValue(a, b sqlengine.Value) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}

// TestRoundTripEveryKind is the one value-level round trip the three
// framings (ingest batch, dump stream, frontend row frame) inherit.
func TestRoundTripEveryKind(t *testing.T) {
	cases := []struct {
		name string
		v    sqlengine.Value
		size int // encoded cell bytes
	}{
		{"null", nil, 1},
		{"zero", int64(0), 9},
		{"min int64", int64(math.MinInt64), 9},
		{"max int64", int64(math.MaxInt64), 9},
		{"float", 3.5, 9},
		{"negative zero", math.Copysign(0, -1), 9},
		{"NaN", math.NaN(), 9},
		{"+Inf", math.Inf(1), 9},
		{"-Inf", math.Inf(-1), 9},
		{"denormal", math.SmallestNonzeroFloat64, 9},
		{"empty string", "", 2},
		{"ascii", "it's 'quoted'", 2 + len("it's 'quoted'")},
		{"multi-byte", "ünïcode 星\x00nul", 2 + len("ünïcode 星\x00nul")},
		{"long string", string(bytes.Repeat([]byte("x"), 300)), 1 + 2 + 300},
	}
	var all sqlengine.Row
	for _, tc := range cases {
		all = append(all, tc.v)
		row := sqlengine.Row{tc.v}
		enc, err := AppendRow(nil, row)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(enc) != 1+tc.size {
			t.Errorf("%s: %d encoded bytes, want %d", tc.name, len(enc), 1+tc.size)
		}
		if len(enc) > RowSize(row) {
			t.Errorf("%s: RowSize %d below the %d bytes written", tc.name, RowSize(row), len(enc))
		}
		got, next, err := DecodeRow(enc, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if next != len(enc) || len(got) != 1 || !sameValue(got[0], tc.v) {
			t.Errorf("%s: decoded %v (next %d of %d), want %v", tc.name, got, next, len(enc), tc.v)
		}
	}

	// All kinds in one row, decoded from the middle of a larger buffer.
	enc, err := AppendRow([]byte("prefix"), all)
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, "suffix"...)
	got, next, err := DecodeRow(enc, len("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[next:]) != "suffix" || len(got) != len(all) {
		t.Fatalf("wide row: %d values, rest %q", len(got), enc[next:])
	}
	for i := range all {
		if !sameValue(got[i], all[i]) {
			t.Errorf("wide row value %d (%s): %v, want %v", i, cases[i].name, got[i], all[i])
		}
	}

	if got, next, err := DecodeRow([]byte{0}, 0); err != nil || len(got) != 0 || next != 1 {
		t.Errorf("empty row: %v, %d, %v", got, next, err)
	}

	// The same wide row decoded twice straight into a table's columns —
	// no boxed row in between — reads back bit for bit.
	schema := make(sqlengine.Schema, len(all))
	for i, v := range all {
		schema[i].Name = cases[i].name
		switch v.(type) {
		case int64:
			schema[i].Type = sqlparse.TypeInt
		case string:
			schema[i].Type = sqlparse.TypeString
		default:
			schema[i].Type = sqlparse.TypeFloat
		}
	}
	tbl := sqlengine.NewTable("wide", schema)
	app := tbl.Appender()
	for i := 0; i < 2; i++ {
		if next, err := Decode(enc, len("prefix"), app); err != nil || string(enc[next:]) != "suffix" {
			t.Fatalf("decode into columns: next %d, %v", next, err)
		}
	}
	if tbl.Len() != 0 {
		t.Fatalf("%d rows visible before Commit", tbl.Len())
	}
	app.Commit()
	for r := 0; r < 2; r++ {
		for i, v := range tbl.Row(r) {
			if !sameValue(v, all[i]) {
				t.Errorf("column row %d value %d (%s): %v, want %v", r, i, cases[i].name, v, all[i])
			}
		}
	}
}

func TestAppendRowRejectsUnsupportedTypes(t *testing.T) {
	for _, v := range []sqlengine.Value{true, int(1), float32(1), []byte("x"), complex(1, 2)} {
		if _, err := AppendRow(nil, sqlengine.Row{v}); err == nil {
			t.Errorf("%T accepted", v)
		}
	}
}

func TestDecodeRowRejectsHostileInput(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := map[string][]byte{
		"empty":               {},
		"truncated count":     {0x80},
		"huge column count":   uv(1 << 62),
		"count beyond bytes":  {2, 'n'},
		"unknown tag":         {1, 'z'},
		"truncated int":       {1, 'i', 0, 0, 0},
		"truncated float":     {1, 'f', 0, 0, 0, 0, 0, 0, 0},
		"missing string len":  {1, 's'},
		"string beyond bytes": {1, 's', 5, 'a', 'b'},
		"huge string length":  append([]byte{1, 's'}, uv(1<<63)...),
		"wrapping string len": append([]byte{1, 's'}, uv(math.MaxUint64)...),
	}
	for name, data := range cases {
		if row, _, err := DecodeRow(data, 0); err == nil {
			t.Errorf("%s: accepted as %v", name, row)
		}
	}
}

// plainBoxer is the reference DecodeRow's boxing is held to: the
// conventional boxing Sink, a slice per row and a box per cell.
type plainBoxer struct{ rows []sqlengine.Row }

func (p *plainBoxer) BeginRow(ncols int) error {
	p.rows = append(p.rows, make(sqlengine.Row, ncols))
	return nil
}

func (p *plainBoxer) Null(col int) error             { return nil }
func (p *plainBoxer) Int(col int, v int64) error     { p.rows[len(p.rows)-1][col] = any(v); return nil }
func (p *plainBoxer) Float(col int, v float64) error { p.rows[len(p.rows)-1][col] = any(v); return nil }
func (p *plainBoxer) Str(col int, v []byte) error    { p.rows[len(p.rows)-1][col] = string(v); return nil }

// FuzzDecodeRow holds the decoder to reject-or-round-trip: hostile
// bytes may only produce an error — never a panic, never a row wider
// than the input — an accepted row is, cell for cell, what the
// conventional boxer makes of the same bytes, and it re-encodes to bytes
// that decode to the same values. (Byte equality with the input is not
// required: Uvarint accepts padded varints the encoder never emits.)
func FuzzDecodeRow(f *testing.F) {
	valid, err := AppendRow(nil, sqlengine.Row{int64(7), nil, "x", -0.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})         // huge column count
	f.Add([]byte{1, 's', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge string length
	f.Add([]byte{2, 'i', 0, 0, 0, 0, 0, 0, 0, 1})                                     // second value missing
	bits, err := AppendRow(nil, sqlengine.Row{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
		int64(math.MinInt64), int64(math.MaxInt64), "", "not empty"}) // the cells a loose comparison misses
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bits)
	f.Fuzz(func(t *testing.T, data []byte) {
		row, next, err := DecodeRow(data, 0)
		if err != nil {
			return
		}
		if next > len(data) || len(row) > len(data) {
			t.Fatalf("decoded %d values ending at %d from %d bytes", len(row), next, len(data))
		}
		var want plainBoxer
		if _, err := Decode(data, 0, &want); err != nil || len(want.rows[0]) != len(row) {
			t.Fatalf("DecodeRow took a row of %d values the conventional boxer decodes with %v", len(row), err)
		}
		for i := range row {
			if !sameValue(row[i], want.rows[0][i]) {
				t.Fatalf("cell %d: %T %#v, the conventional boxer makes %T %#v", i, row[i], row[i], want.rows[0][i], want.rows[0][i])
			}
		}
		enc, err := AppendRow(nil, row)
		if err != nil {
			t.Fatalf("accepted row does not re-encode: %v", err)
		}
		if len(enc) > RowSize(row) {
			t.Fatalf("RowSize %d below the %d bytes written", RowSize(row), len(enc))
		}
		again, next2, err := DecodeRow(enc, 0)
		if err != nil || next2 != len(enc) || len(again) != len(row) {
			t.Fatalf("re-decoding an accepted row: %v (next %d of %d)", err, next2, len(enc))
		}
		for i := range row {
			if !sameValue(row[i], again[i]) {
				t.Fatalf("round trip diverged at %d: %v -> %v", i, row[i], again[i])
			}
		}
	})
}

// TestBatchRoundTrip: rows that stay encoded keep everything a decoder
// would find — EncodeBatch's offsets are the ones ScanBatch finds in the
// same bytes, each row's bytes are AppendRow's, and Box returns the rows.
func TestBatchRoundTrip(t *testing.T) {
	rows := []sqlengine.Row{
		{int64(math.MinInt64), math.Copysign(0, -1), "ünï 星", nil},
		{nil, nil, nil, nil},
		{int64(7), math.Inf(1), "", int64(1)},
		{int64(8), math.NaN(), string(bytes.Repeat([]byte("x"), 300)), 2.5},
	}
	b, err := EncodeBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	scanned, kinds, err := ScanBatch(b.Data, len(rows), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Kinds{HasInt, HasFloat, HasString, HasInt | HasFloat}; !slices.Equal(kinds, want) || !slices.Equal(scanned.Ends, b.Ends) {
		t.Errorf("ScanBatch: kinds %v (want %v), ends %v (EncodeBatch: %v)", kinds, want, scanned.Ends, b.Ends)
	}
	boxed := b.Box(nil)
	for i, r := range rows {
		if enc, _ := AppendRow(nil, r); !bytes.Equal(enc, b.Row(i)) {
			t.Errorf("row %d is %x in the batch, AppendRow writes %x", i, b.Row(i), enc)
		}
		for j := range r {
			if !sameValue(boxed[i][j], r[j]) {
				t.Errorf("row %d value %d boxed as %v, want %v", i, j, boxed[i][j], r[j])
			}
		}
	}
	var enc Encoder
	if err := b.Decode(&enc); err != nil || !bytes.Equal(enc.Buf, b.Data) || enc.Rows != len(rows) {
		t.Errorf("decoding the batch into an Encoder: %d rows, %v; the bytes differ: %v", enc.Rows, err, !bytes.Equal(enc.Buf, b.Data))
	}
	// Rows that differ in width (a fed session may push any) are boxed into
	// slabs that grow: they still come out whole, and a row's capacity ends
	// where the next begins.
	ragged := []sqlengine.Row{{int64(1)}, {int64(2), "b", 2.5}, {}, {int64(4), nil}}
	rb, err := EncodeBatch(ragged)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rb.Box(make([]sqlengine.Row, 1))[1:] {
		if len(r) != len(ragged[i]) || cap(r) != len(r) {
			t.Fatalf("ragged row %d boxed with len %d cap %d, want %d", i, len(r), cap(r), len(ragged[i]))
		}
		for j := range r {
			if !sameValue(r[j], ragged[i][j]) {
				t.Errorf("ragged row %d value %d boxed as %v, want %v", i, j, r[j], ragged[i][j])
			}
		}
	}
	if empty, err := EncodeBatch(nil); err != nil || empty.Len() != 0 || empty.Box(nil) != nil {
		t.Errorf("empty batch: %+v, %v", empty, err)
	}
}

// TestBoxAllocBudget: Box boxes a batch of rows of one width into one
// slab of cells and one of their numbers, so 1,000 rows of nine numbers
// cost a few allocations, not one per row and per number (9,003 when each
// number was boxed on its own).
func TestBoxAllocBudget(t *testing.T) {
	rows := make([]sqlengine.Row, 1000)
	for i := range rows { // no integer below 256 and no zero: boxing would allocate for every cell
		f := 1e-28 * float64(1+i)
		rows[i] = sqlengine.Row{int64(1000 + i), 10 + f, -1 - f, f, 2 * f, 3 * f, 4 * f, 5 * f, 6 * f}
	}
	b, err := EncodeBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { b.Box(nil) }); allocs > 8 {
		t.Errorf("%.0f allocations to box %d rows of %d numbers, ceiling 8", allocs, len(rows), len(rows[0]))
	}
}

// TestBoxedRowsOutliveTheirBatch: a row Box hands out points into the
// slabs its batch was boxed into, so it must keep its cells' types and
// bits after the batch is dropped, however many batches are boxed after it
// and whatever the heap does meanwhile, through collections. Every cell of
// every batch is a value of its own, so two batches that shared a slab cell
// would show as a kept cell that changed, and a slab collected under its
// rows as garbage in them. The last batch is ragged, so the slabs that grow
// are held to it too.
func TestBoxedRowsOutliveTheirBatch(t *testing.T) {
	churn := func() {
		var junk []any
		for i := 0; i < 2000; i++ {
			words := make([]uint64, 200+i%300*4)
			for j := range words {
				words[j] = 0xdead_beef_dead_beef
			}
			junk = append(junk, words, float64(i)+0.5, fmt.Sprint("junk", i), make([]sqlengine.Value, 200+i%300*4))
		}
		runtime.KeepAlive(junk)
		runtime.GC()
	}
	const batches = 6
	var kept, want []sqlengine.Row
	for f := 0; f < batches; f++ {
		rows := make([]sqlengine.Row, 200+50*f)
		for i := range rows {
			k := f*1000 + i
			var flux sqlengine.Value
			switch k % 4 {
			case 0:
				flux = math.Copysign(0, -1)
			case 1:
				flux = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(k))
			case 2:
				flux = 1e-30 * float64(k)
			}
			rows[i] = sqlengine.Row{int64(math.MaxInt64 - k), flux, fmt.Sprintf("batch %d row %d", f, i), ""}
			if f == batches-1 && i%2 == 1 {
				rows[i] = append(rows[i], int64(math.MinInt64+k))
			}
		}
		b, err := EncodeBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, b.Box(nil)...)
		want = append(want, rows...)
		churn()
	}
	churn()
	for i, row := range kept {
		if len(row) != len(want[i]) {
			t.Fatalf("row %d has %d cells, was encoded with %d", i, len(row), len(want[i]))
		}
		for j := range row {
			if !sameValue(row[j], want[i][j]) {
				t.Fatalf("row %d cell %d reads %T %#v after later batches and collections, was encoded as %T %#v",
					i, j, row[j], row[j], want[i][j], want[i][j])
			}
		}
	}
}

// TestScanBatchRejects: what ScanBatch accepts is handed on unopened, so it
// is held to every check a decoder makes and to the one encoding.
func TestScanBatchRejects(t *testing.T) {
	row, _ := AppendRow(nil, sqlengine.Row{int64(7), "x"})
	for name, tc := range map[string]struct {
		data         []byte
		nrows, ncols int
	}{
		"narrower than declared": {row, 1, 3},
		"wider than declared":    {row, 1, 1},
		"row count past the end": {row, 2, 2},
		"huge row count":         {row, 1 << 40, 2},
		"negative row count":     {row, -1, 2},
		"trailing bytes":         {append(slices.Clone(row), 'n'), 1, 2},
		"truncated":              {row[:len(row)-1], 1, 2},
		"padded width":           {append([]byte{0x82, 0x00}, row[1:]...), 1, 2},
		"padded string length":   {append(slices.Clone(row[:len(row)-2]), 0x81, 0x00, 'x'), 1, 2},
	} {
		if b, _, err := ScanBatch(tc.data, tc.nrows, tc.ncols); err == nil {
			t.Errorf("%s: accepted as %d rows", name, b.Len())
		}
	}
	if b, _, err := ScanBatch(row, 1, 2); err != nil || b.Len() != 1 {
		t.Errorf("the row itself: %v", err)
	}
}
