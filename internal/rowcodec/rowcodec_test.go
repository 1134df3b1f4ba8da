package rowcodec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// sameValue is bit-exact equality: -0.0 differs from 0.0 and a NaN
// equals itself.
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

// FuzzDecodeRow holds the decoder to reject-or-round-trip: hostile
// bytes may only produce an error — never a panic, never a row wider
// than the input — and an accepted row re-encodes to bytes that decode
// to the same values. (Byte equality with the input is not required:
// Uvarint accepts padded varints the encoder never emits.)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		row, next, err := DecodeRow(data, 0)
		if err != nil {
			return
		}
		if next > len(data) || len(row) > len(data) {
			t.Fatalf("decoded %d values ending at %d from %d bytes", len(row), next, len(data))
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
