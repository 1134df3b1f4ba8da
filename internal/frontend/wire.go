// Package frontend is the connection-scale SQL frontend of the system:
// the tier between "any client" and the czar's session API (the role
// the MySQL Proxy plays in paper section 5.4, rebuilt for streaming and
// admission control). It serves one streaming wire protocol, v2: the
// client's first frame is a handshake (version byte 0x02 + magic + user
// + database) — any other first frame gets one E frame and a close —
// and every subsequent exchange is row-count-free:
//
//	client:  Q <sql>                     (also K = kill in-flight, P = ping)
//	server:  C <ncols> <name>...         column header — sent at plan time
//	         R <row>                     one frame per row, as rows merge
//	         ...
//	         D <nrows>    on success, or
//	         E <message>  on failure — legal INSTEAD OF C, or mid-stream
//	                      after any number of R frames
//
// Because the header carries columns only, the first row leaves the
// server as soon as the first chunk merges — hours before a long scan
// finishes — and a worker failure after the first byte is still
// reportable. Admission shedding rides the same E frame ("busy: ...")
// without costing the connection.
//
// This file is the codec: framing, the handshake, and the column/row/
// trailer frames. A row frame's body is one row in the cell encoding
// of package rowcodec, the same bytes a worker's result stream and an
// ingest batch carry. Every decoder treats its input as hostile (the
// fuzz targets in fuzz_test.go hold them to that).
package frontend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
)

// maxFrame bounds one frame (64 MiB), read and written.
const maxFrame = 64 << 20

// Frame tags. Client-to-server: tagQuery, tagKill, tagPing. Server-to-
// client: tagCols, tagRow, tagDone, tagErr, tagPing (pong).
const (
	tagQuery = 'Q'
	tagKill  = 'K'
	tagPing  = 'P'
	tagCols  = 'C'
	tagRow   = 'R'
	tagDone  = 'D'
	tagErr   = 'E'
)

// hsVersion2 is the version byte opening a v2 handshake frame.
const hsVersion2 = 0x02

// hsMagic follows the version byte, guarding against a binary client
// of some other protocol that happens to lead with 0x02.
var hsMagic = []byte("QSV2")

// writeFrame writes one length-prefixed frame. The four header bytes are
// put together in the writer's own buffer: a row frame allocates nothing.
func writeFrame(w *bufio.Writer, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("frontend: frame of %d bytes exceeds limit", len(data))
	}
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(data)))); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// readFrame reads one length-prefixed frame, rejecting hostile lengths
// before allocating. The header is read where the reader buffered it. A
// stream that ends between frames is io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if _, err := r.Discard(4); err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("frontend: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// encodeHandshake renders the v2 client hello: version byte, magic,
// then NUL-separated user and database.
func encodeHandshake(user, db string) []byte {
	b := make([]byte, 0, 1+len(hsMagic)+2+len(user)+len(db))
	b = append(b, hsVersion2)
	b = append(b, hsMagic...)
	b = append(b, 0)
	b = append(b, user...)
	b = append(b, 0)
	b = append(b, db...)
	return b
}

// parseHandshake parses a connection's first frame, which must be a
// well-formed v2 hello (version byte, magic, separators); a client
// sending anything else gets an error and the connection closes.
func parseHandshake(b []byte) (user, db string, err error) {
	if len(b) == 0 || b[0] != hsVersion2 {
		return "", "", fmt.Errorf("frontend: first frame is not a v2 handshake")
	}
	rest := b[1:]
	if len(rest) < len(hsMagic)+2 || !bytes.Equal(rest[:len(hsMagic)], hsMagic) {
		return "", "", fmt.Errorf("frontend: malformed v2 handshake")
	}
	rest = rest[len(hsMagic):]
	if rest[0] != 0 {
		return "", "", fmt.Errorf("frontend: malformed v2 handshake")
	}
	userBytes, dbBytes, ok := bytes.Cut(rest[1:], []byte{0})
	if !ok {
		return "", "", fmt.Errorf("frontend: malformed v2 handshake")
	}
	if bytes.IndexByte(dbBytes, 0) >= 0 {
		return "", "", fmt.Errorf("frontend: malformed v2 handshake")
	}
	return string(userBytes), string(dbBytes), nil
}

// encodeCols renders the v2 column-header frame: tag, column count,
// then each name length-prefixed.
func encodeCols(cols []string) []byte {
	b := make([]byte, 0, 16)
	b = append(b, tagCols)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	return b
}

// decodeCols parses a column-header frame body (tag already stripped).
// Counts and lengths are untrusted: every claim is checked against the
// bytes actually present before anything is allocated from it.
func decodeCols(b []byte) ([]string, error) {
	n, taken := binary.Uvarint(b)
	if taken <= 0 {
		return nil, fmt.Errorf("frontend: bad column count")
	}
	b = b[taken:]
	if n > uint64(len(b)) { // each column costs >= 1 byte of length
		return nil, fmt.Errorf("frontend: column count %d exceeds frame", n)
	}
	cols := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, taken := binary.Uvarint(b)
		if taken <= 0 || l > uint64(len(b)-taken) {
			return nil, fmt.Errorf("frontend: bad column length")
		}
		b = b[taken:]
		cols = append(cols, string(b[:l]))
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("frontend: %d trailing bytes after columns", len(b))
	}
	return cols, nil
}

// appendRowFrame appends one row frame to dst: tag, then the row in
// the rowcodec encoding (which leads with its own width).
func appendRowFrame(dst []byte, row []sqlengine.Value) ([]byte, error) {
	return rowcodec.AppendRow(append(dst, tagRow), row)
}

// writeRowFrame writes the frame of a row that is already encoded: length
// prefix, tag, the row's bytes. Nothing is assembled and nothing
// allocated: the five bytes ahead of the row are built in the writer's own
// buffer.
func writeRowFrame(w *bufio.Writer, row []byte) error {
	const head = 4 + 1 // length prefix, tag
	n := len(row) + 1
	if n > maxFrame {
		return fmt.Errorf("frontend: frame of %d bytes exceeds limit", n)
	}
	if w.Available() < head {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(n))
	if _, err := w.Write(append(hdr, tagRow)); err != nil {
		return err
	}
	_, err := w.Write(row)
	return err
}

// decodeRow parses a row frame body (tag already stripped): exactly one
// row, of the ncols values the preceding column header declared — a
// row frame of the wrong width is an error, not a short row. box is the
// stream's decoder sink, reused frame after frame; the row returned is
// the caller's.
func decodeRow(b []byte, ncols int, box *sqlengine.Boxer) ([]sqlengine.Value, error) {
	box.Rows = box.Rows[:0]
	next, err := rowcodec.Decode(b, 0, box)
	if err != nil {
		return nil, fmt.Errorf("frontend: bad row frame: %w", err)
	}
	row := box.Rows[0]
	if next != len(b) {
		return nil, fmt.Errorf("frontend: %d trailing bytes after row", len(b)-next)
	}
	if len(row) != ncols {
		return nil, fmt.Errorf("frontend: row of %d values, header declared %d", len(row), ncols)
	}
	return row, nil
}

// DoneStats are the per-query accounting figures riding the success
// trailer: appended as optional uvarints after the row count, so an
// old client reading only the count still interoperates, and a new
// client reading an old server sees zeros.
type DoneStats struct {
	ElapsedNS   int64 // end-to-end query time on the czar
	Chunks      int64 // chunk queries dispatched
	BytesMerged int64 // result bytes folded into the czar merge
}

// encodeDone renders the success trailer: the streamed row count, then
// the optional accounting uvarints.
func encodeDone(rows int64, st DoneStats) []byte {
	b := make([]byte, 0, 10)
	b = append(b, tagDone)
	b = binary.AppendUvarint(b, uint64(rows))
	b = binary.AppendUvarint(b, uint64(st.ElapsedNS))
	b = binary.AppendUvarint(b, uint64(st.Chunks))
	return binary.AppendUvarint(b, uint64(st.BytesMerged))
}

// decodeDone parses a trailer frame body (tag already stripped). Only
// the row count is mandatory; any further bytes must decode as whole
// uvarints, filling DoneStats fields in order — unknown trailing
// uvarints from a future server are skipped, truncated ones are an
// error (hostile input, not forward compatibility).
func decodeDone(b []byte) (int64, DoneStats, error) {
	n, taken := binary.Uvarint(b)
	if taken <= 0 {
		return 0, DoneStats{}, fmt.Errorf("frontend: bad done trailer")
	}
	b = b[taken:]
	var st DoneStats
	for i := 0; len(b) > 0; i++ {
		v, taken := binary.Uvarint(b)
		if taken <= 0 {
			return 0, DoneStats{}, fmt.Errorf("frontend: bad done trailer")
		}
		b = b[taken:]
		switch i {
		case 0:
			st.ElapsedNS = int64(v)
		case 1:
			st.Chunks = int64(v)
		case 2:
			st.BytesMerged = int64(v)
		}
	}
	return int64(n), st, nil
}
