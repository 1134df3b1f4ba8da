// Package frontend is the connection-scale SQL frontend of the system:
// the tier between "any client" and the czar's session API (the role
// the MySQL Proxy plays in paper section 5.4, rebuilt for streaming and
// admission control). It serves one streaming wire protocol: the
// client's first frame is a handshake (version byte 0x03 + magic + user
// + database) — any other first frame, an older version's hello among
// them, gets one E frame and a close — and every subsequent exchange is
// row-count-free:
//
//	client:  Q <sql>                     (also K = kill in-flight, P = ping)
//	server:  C <ncols> <name>...         column header — sent at plan time
//	         R <nrows> <row>...          a batch of rows, as rows merge
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
// trailer frames. A row frame's body is a row count and that many rows
// in the cell encoding of package rowcodec, the same bytes a worker's
// result stream and an ingest batch carry. Every decoder treats its input
// as hostile (the fuzz targets in fuzz_test.go hold them to that).
package frontend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

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

// hsVersion is the version byte opening a handshake frame, and hsMagic
// follows it, guarding against a binary client of some other protocol
// that happens to lead with the same byte. The magic's last character is
// the version's digit; hsReply is the server's answer to a hello it
// takes. A hello of another version leads with hsFamily all the same,
// which is how it is told from a frame that is no hello at all.
const (
	hsVersion = 0x03
	hsFamily  = "QSV"
	hsMagic   = hsFamily + "3"
	hsReply   = "OK3"
)

// writeFrame writes one length-prefixed frame. The four header bytes are
// put together in the writer's own buffer: nothing is allocated.
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

// encodeHandshake renders the client hello: version byte, magic, then
// NUL-separated user and database.
func encodeHandshake(user, db string) []byte {
	b := make([]byte, 0, 1+len(hsMagic)+2+len(user)+len(db))
	b = append(b, hsVersion)
	b = append(b, hsMagic...)
	b = append(b, 0)
	b = append(b, user...)
	b = append(b, 0)
	b = append(b, db...)
	return b
}

// parseHandshake parses a connection's first frame, which must be a
// well-formed hello of this version (version byte, magic, separators); a
// client sending anything else gets an error and the connection closes. A
// hello of another version is told so, by number.
func parseHandshake(b []byte) (user, db string, err error) {
	if len(b) > len(hsMagic) && b[0] != hsVersion && string(b[1:1+len(hsFamily)]) == hsFamily {
		return "", "", fmt.Errorf("frontend: handshake of protocol version %d; this server speaks version %d only", b[0], hsVersion)
	}
	if len(b) == 0 || b[0] != hsVersion {
		return "", "", fmt.Errorf("frontend: first frame is not a handshake")
	}
	rest := b[1:]
	if len(rest) < len(hsMagic)+2 || string(rest[:len(hsMagic)]) != hsMagic || rest[len(hsMagic)] != 0 {
		return "", "", fmt.Errorf("frontend: malformed handshake")
	}
	userBytes, dbBytes, ok := bytes.Cut(rest[len(hsMagic)+1:], []byte{0})
	if !ok || bytes.IndexByte(dbBytes, 0) >= 0 {
		return "", "", fmt.Errorf("frontend: malformed handshake")
	}
	return string(userBytes), string(dbBytes), nil
}

// encodeCols renders the column-header frame: tag, column count,
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

// writeBatch writes a batch of encoded rows as row frames: length prefix,
// tag and row count, built in the writer's own buffer, then the rows'
// bytes as the batch holds them — nothing is decoded, assembled or
// allocated. A batch whose frame would exceed limit is cut at row
// boundaries into as many frames as it takes; a single row that does not
// fit in a frame of its own is an error.
func writeBatch(w *bufio.Writer, b rowcodec.Batch, limit int) error {
	for first := 0; first < b.Len(); {
		start, end := b.Offset(first), first
		for end < b.Len() && frameLen(end+1-first, b.Offset(end+1)-start) <= limit {
			end++
		}
		if end == first {
			return fmt.Errorf("frontend: row of %d bytes exceeds the frame limit", len(b.Row(first)))
		}
		const head = 4 + 1 + binary.MaxVarintLen64 // length prefix, tag, row count
		if w.Available() < head {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(frameLen(end-first, b.Offset(end)-start)))
		if _, err := w.Write(binary.AppendUvarint(append(hdr, tagRow), uint64(end-first))); err != nil {
			return err
		}
		if _, err := w.Write(b.Data[start:b.Offset(end)]); err != nil {
			return err
		}
		first = end
	}
	return nil
}

// frameLen is the length of a row frame holding nrows rows in size bytes:
// tag, row count, rows.
func frameLen(nrows, size int) int { return 1 + (bits.Len64(uint64(nrows)|1)+6)/7 + size }

// decodeBatch parses a row frame body (tag already stripped): a row count,
// then exactly that many rows of the ncols values the preceding column
// header declared — a row of the wrong width is an error, not a short
// row, and so are bytes after the last row. The count is held against the
// bytes present before anything is allocated from it: every row costs at
// least its width byte and a tag byte per cell. The cells of every row
// are cut from one slab, returned with the row count; each row is the
// caller's own.
func decodeBatch(b []byte, ncols int) (slab []sqlengine.Value, nrows int, err error) {
	n, taken := binary.Uvarint(b)
	if taken <= 0 {
		return nil, 0, fmt.Errorf("frontend: bad row count")
	}
	b = b[taken:]
	if n > uint64(len(b))/(1+uint64(ncols)) {
		return nil, 0, fmt.Errorf("frontend: %d rows of %d values claimed in %d bytes", n, ncols, len(b))
	}
	box := slabSink{slab: make([]sqlengine.Value, int(n)*ncols), ncols: ncols}
	pos := 0
	for i := 0; i < int(n); i++ {
		if pos, err = rowcodec.Decode(b, pos, &box); err != nil {
			return nil, 0, fmt.Errorf("frontend: bad row %d of %d: %w", i, n, err)
		}
	}
	if pos != len(b) {
		return nil, 0, fmt.Errorf("frontend: %d trailing bytes after %d rows", len(b)-pos, n)
	}
	return box.slab, int(n), nil
}

// slabSink is the Sink decodeBatch boxes into: rows of the declared width
// only, each cut from the slab where the last one ended.
type slabSink struct {
	slab  []sqlengine.Value
	ncols int
	row   []sqlengine.Value // the row being decoded
	next  int               // where the next row starts in slab
}

func (s *slabSink) BeginRow(ncols int) error {
	if ncols != s.ncols {
		return fmt.Errorf("row of %d values, header declared %d", ncols, s.ncols)
	}
	s.row = s.slab[s.next : s.next+ncols]
	s.next += ncols
	return nil
}

func (s *slabSink) Null(col int) error             { return nil }
func (s *slabSink) Int(col int, v int64) error     { s.row[col] = v; return nil }
func (s *slabSink) Float(col int, v float64) error { s.row[col] = v; return nil }
func (s *slabSink) Str(col int, v []byte) error    { s.row[col] = string(v); return nil }

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
