package frontend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
)

// The wire decoders parse bytes from arbitrary clients: every target
// here holds them to "reject or round-trip" — hostile input may only
// produce an error, never a panic, an unbounded allocation, or a value
// that re-encodes differently. Seed corpora (including hand-written
// hostile frames) live under testdata/fuzz/ and also run as plain
// tests in `make test`; `make fuzz-smoke` runs each target briefly.

func FuzzFrameRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // 4 GiB length claim
	f.Add([]byte{0x04, 0x00, 0x00, 0x00})             // 64 MiB + 1 boundary
	f.Add([]byte{0, 0, 0, 0})                         // empty frame
	f.Add([]byte{0, 0, 0, 9, 'Q', 'S', 'E', 'L'})     // length exceeds bytes present
	f.Add([]byte{0, 0, 0, 2, 'P', 'x', 0, 0, 0, 1})   // trailing second frame
	f.Add([]byte{0, 0, 0, 6, 'R', 2, 1, 'n', 1, 'n'}) // a row frame: two one-cell rows
	f.Add([]byte{0, 0, 0, 4, 'R', 0xff, 0xff, 0x7f})  // a row frame whose count outruns it
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, frame); err != nil {
			t.Fatalf("re-encoding an accepted %d-byte frame failed: %v", len(frame), err)
		}
		bw.Flush()
		again, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-reading a written frame failed: %v", err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("frame round trip diverged: %q -> %q", frame, again)
		}
	})
}

func FuzzHandshake(f *testing.F) {
	f.Add([]byte("SELECT 1")) // no version byte: not a handshake
	f.Add(encodeHandshake("alice", "LSST"))
	f.Add(encodeHandshake("", ""))
	f.Add([]byte{hsVersion})            // version byte, nothing else
	f.Add([]byte("\x03QSVX\x00u\x00d")) // wrong magic
	f.Add([]byte("\x03QSV3no-separator"))
	f.Add([]byte("\x03QSV3\x00only-user"))       // missing db separator
	f.Add([]byte("\x03QSV3\x00u\x00d\x00extra")) // NUL inside db
	f.Add([]byte("\x02QSV2\x00u\x00d"))          // an older version's hello
	f.Fuzz(func(t *testing.T, data []byte) {
		user, db, err := parseHandshake(data)
		if err != nil {
			return
		}
		if data[0] != hsVersion {
			t.Fatalf("accepted a first frame without the version byte: %q", data)
		}
		u2, d2, err := parseHandshake(encodeHandshake(user, db))
		if err != nil {
			t.Fatalf("re-parsing an accepted handshake failed: %v", err)
		}
		if u2 != user || d2 != db {
			t.Fatalf("handshake round trip diverged: %q/%q -> %q/%q", user, db, u2, d2)
		}
	})
}

func FuzzColsDecode(f *testing.F) {
	f.Add(encodeCols(nil)[1:])
	f.Add(encodeCols([]string{"objectId", "ra_PS"})[1:])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // huge column count
	f.Add([]byte{0x01, 0xff, 'x'})              // column length exceeds frame
	f.Add([]byte{0x01, 0x01, 'c', 'c'})         // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := decodeCols(data)
		if err != nil {
			return
		}
		again, err := decodeCols(encodeCols(cols)[1:])
		if err != nil {
			t.Fatalf("re-decoding an accepted header failed: %v", err)
		}
		if len(again) != len(cols) {
			t.Fatalf("column round trip diverged: %v -> %v", cols, again)
		}
		for i := range cols {
			if cols[i] != again[i] {
				t.Fatalf("column round trip diverged: %v -> %v", cols, again)
			}
		}
	})
}

// batchBody is a row frame's body (tag stripped) for rows as the server
// writes them: the count, then the rows' bytes.
func batchBody(tb testing.TB, rows ...sqlengine.Row) []byte {
	b, err := rowcodec.EncodeBatch(rows)
	if err != nil {
		tb.Fatal(err)
	}
	return append(binary.AppendUvarint(nil, uint64(b.Len())), b.Data...)
}

// sameCell reports whether two cells are one value exactly: the same
// dynamic type and the same bits — a float's sign of zero and NaN payload
// included, which comparing as values or as text would let pass.
func sameCell(a, b sqlengine.Value) bool {
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) {
		return false
	}
	if x, ok := a.(float64); ok {
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	}
	return a == b
}

// plainBoxer is the reference the client's boxing is held to: the
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

func FuzzBatchDecode(f *testing.F) {
	valid := batchBody(f, sqlengine.Row{int64(7), nil, "x", -0.5}, sqlengine.Row{int64(8), 1.5, "", nil})
	f.Add(valid, uint8(4))
	f.Add(valid, uint8(3))                                    // width differs from the header
	f.Add(valid[:len(valid)-1], uint8(4))                     // truncated last cell
	f.Add(append(valid[:len(valid):len(valid)], 0), uint8(4)) // a third row past the count
	f.Add([]byte{}, uint8(0))                                 // no count varint at all
	f.Add([]byte{0}, uint8(0))                                // zero rows
	f.Add([]byte{3, 0, 0, 0}, uint8(0))                       // three empty rows
	f.Add([]byte{1, 0xff, 0xff, 0x7f, 'i'}, uint8(1))         // width exceeds frame
	f.Add([]byte{1, 1, 'z'}, uint8(1))                        // bad cell tag inside a row
	f.Add(batchBody(f,                                        // the cells whose bits a loose comparison misses
		sqlengine.Row{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1)},
		sqlengine.Row{int64(math.MinInt64), int64(math.MaxInt64), "", "not empty"}), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		var box sqlengine.Boxer
		if err := decodeBatch(data, &box, int(ncols)); err != nil {
			return
		}
		// Each row is what the conventional boxer makes of its bytes.
		n, taken := binary.Uvarint(data)
		if uint64(len(box.Rows)) != n {
			t.Fatalf("accepted %d rows as %d", n, len(box.Rows))
		}
		var want plainBoxer
		body, pos := data[taken:], 0
		for i, row := range box.Rows {
			var err error
			if pos, err = rowcodec.Decode(body, pos, &want); err != nil || len(row) != int(ncols) || cap(row) != len(row) {
				t.Fatalf("row %d of %d values (capacity %d) accepted, header says %d; the reference decode: %v", i, len(row), cap(row), ncols, err)
			}
			for j := range row {
				if !sameCell(row[j], want.rows[i][j]) {
					t.Fatalf("row %d cell %d: %T %#v, the conventional boxer makes %T %#v", i, j, row[j], row[j], want.rows[i][j], want.rows[i][j])
				}
			}
		}
		var again sqlengine.Boxer
		if err := decodeBatch(batchBody(t, box.Rows...), &again, int(ncols)); err != nil || len(again.Rows) != len(box.Rows) {
			t.Fatalf("re-decoding %d accepted rows: %d rows, %v", len(box.Rows), len(again.Rows), err)
		}
		for i, row := range box.Rows {
			for j := range row {
				if !sameCell(row[j], again.Rows[i][j]) {
					t.Fatalf("batch round trip diverged at row %d cell %d: %T %#v -> %T %#v", i, j, row[j], row[j], again.Rows[i][j], again.Rows[i][j])
				}
			}
		}
	})
}
