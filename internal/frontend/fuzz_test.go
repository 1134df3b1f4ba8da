package frontend

import (
	"bufio"
	"bytes"
	"testing"

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
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})           // 4 GiB length claim
	f.Add([]byte{0x04, 0x00, 0x00, 0x00})           // 64 MiB + 1 boundary
	f.Add([]byte{0, 0, 0, 0})                       // empty frame
	f.Add([]byte{0, 0, 0, 9, 'Q', 'S', 'E', 'L'})   // length exceeds bytes present
	f.Add([]byte{0, 0, 0, 2, 'P', 'x', 0, 0, 0, 1}) // trailing second frame
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
	f.Add([]byte{hsVersion2})           // version byte, nothing else
	f.Add([]byte("\x02QSVX\x00u\x00d")) // wrong magic
	f.Add([]byte("\x02QSV2no-separator"))
	f.Add([]byte("\x02QSV2\x00only-user"))       // missing db separator
	f.Add([]byte("\x02QSV2\x00u\x00d\x00extra")) // NUL inside db
	f.Fuzz(func(t *testing.T, data []byte) {
		user, db, err := parseHandshake(data)
		if err != nil {
			return
		}
		if data[0] != hsVersion2 {
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

func FuzzRowDecode(f *testing.F) {
	valid, err := appendRowFrame(nil, []sqlengine.Value{int64(7), nil, "x", -0.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid[1:], uint8(4))
	f.Add(valid[1:], uint8(3))                                 // width differs from the header
	f.Add(valid[1:len(valid)-1], uint8(4))                     // truncated last cell
	f.Add(append(valid[1:len(valid):len(valid)], 0), uint8(4)) // a second row in the frame
	f.Add([]byte{}, uint8(0))                                  // no width varint at all
	f.Add([]byte{0}, uint8(0))                                 // the empty row
	f.Add([]byte{0xff, 0xff, 0x7f, 'i'}, uint8(1))             // width exceeds frame
	f.Add([]byte{1, 'z'}, uint8(1))                            // bad cell tag inside a row
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		var box sqlengine.Boxer
		row, err := decodeRow(data, int(ncols), &box)
		if err != nil {
			return
		}
		if len(row) != int(ncols) {
			t.Fatalf("accepted row has %d values, want %d", len(row), ncols)
		}
		frame, err := appendRowFrame(nil, row)
		if err != nil {
			t.Fatalf("re-encoding an accepted row failed: %v", err)
		}
		again, err := decodeRow(frame[1:], len(row), &box)
		if err != nil {
			t.Fatalf("re-decoding an accepted row failed: %v", err)
		}
		for i := range row {
			if sqlengine.FormatValue(row[i]) != sqlengine.FormatValue(again[i]) {
				t.Fatalf("row round trip diverged at %d: %v -> %v", i, row[i], again[i])
			}
		}
	})
}
