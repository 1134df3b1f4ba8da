package frontend

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		slab, n, err := decodeBatch(data, int(ncols))
		if err != nil {
			return
		}
		if len(slab) != n*int(ncols) {
			t.Fatalf("accepted %d rows of %d values in %d cells", n, ncols, len(slab))
		}
		rows := make([]sqlengine.Row, n)
		for i := range rows {
			rows[i] = slab[i*int(ncols) : (i+1)*int(ncols)]
		}
		again, m, err := decodeBatch(batchBody(t, rows...), int(ncols))
		if err != nil || m != n {
			t.Fatalf("re-decoding %d accepted rows: %d rows, %v", n, m, err)
		}
		for i := range slab {
			if sqlengine.FormatValue(slab[i]) != sqlengine.FormatValue(again[i]) {
				t.Fatalf("batch round trip diverged at cell %d: %v -> %v", i, slab[i], again[i])
			}
		}
	})
}
