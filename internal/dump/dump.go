// Package dump is the result-transfer format (paper section 5.4): how a
// worker's chunk-query result travels to the master. The paper ships a
// mysqldump SQL script that the master re-executes, and names that
// path's "costs in speed, disk, network, and database transactions" as
// "strong motivations to explore a more efficient method" (section
// 7.1). This is that method, a deliberate divergence: the result ships
// as a binary stream whose rows are in the cell encoding of package
// rowcodec — the same bytes ingest batches and chunk unit files hold.
//
//	"QRES1"
//	uvarint len + table name
//	uvarint ncols, then per column: uvarint len + name, type byte
//	uvarint nrows, then per row: one rowcodec row of ncols cells
//
// The stream is written without a boxed row on the worker: the statements
// of a chunk query write their result cells, from the column slices, into
// a Writer, which frames the stream when the last one ends. The czar reads
// it in two steps. Open parses what precedes the rows — every count held
// against the bytes present before anything is allocated from it. Then
// Stream.Encoded walks the rows with a sink that checks them and keeps
// nothing: every chunk result joins the czar's merge session, and a
// pass-through one travels on to the client, as the bytes the worker wrote.
// Both steps are engine-free, so the czar's dispatch goroutines run them
// concurrently. Dump and Decode are the boxed forms of the two directions,
// a Result in and a Decoded out, for tests and the benchmark's replay;
// Stream.Rows, which decodes the rows boxed with each value converted to
// its column's declared type, has no caller but Decode.
package dump

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// streamMagic heads every result stream; the digit is the version.
const streamMagic = "QRES1"

// Column type bytes: the rowcodec tag of the cells the column holds.
const (
	typeInt    = 'i'
	typeFloat  = 'f'
	typeString = 's'
)

func typeByte(t sqlparse.ColType) byte {
	switch t {
	case sqlparse.TypeInt:
		return typeInt
	case sqlparse.TypeString:
		return typeString
	}
	return typeFloat
}

// appendHeader appends everything that precedes the rows.
func appendHeader(out []byte, name string, schema sqlengine.Schema, nrows int) []byte {
	out = append(out, streamMagic...)
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(len(schema)))
	for _, c := range schema {
		out = binary.AppendUvarint(out, uint64(len(c.Name)))
		out = append(out, c.Name...)
		out = append(out, typeByte(c.Type))
	}
	return binary.AppendUvarint(out, uint64(nrows))
}

// headerSize upper-bounds appendHeader's output.
func headerSize(name string, schema sqlengine.Schema) int {
	size := len(streamMagic) + 3*binary.MaxVarintLen64 + len(name)
	for _, c := range schema {
		size += binary.MaxVarintLen64 + len(c.Name) + 1
	}
	return size
}

// Dump serializes a query result as the stream of table `name`. The
// engine only produces values rowcodec encodes; one that is not is a
// bug, and panics.
func Dump(name string, res *sqlengine.Result) string {
	schema := res.Schema()
	size := headerSize(name, schema)
	for _, r := range res.Rows {
		size += rowcodec.RowSize(r)
	}
	out := appendHeader(make([]byte, 0, size), name, schema, len(res.Rows))
	var err error
	for _, r := range res.Rows {
		if out, err = rowcodec.AppendRow(out, r); err != nil {
			panic(fmt.Sprintf("dump: result %s: %v", name, err))
		}
	}
	return string(out)
}

// Writer is the Sink a chunk query's statements write their result rows
// to: it encodes them as the stream's rows and notes, per column, the type
// of the first cell that is not NULL.
type Writer struct {
	rowcodec.Encoder
	first []byte // per column: its first non-NULL cell's type byte, 0 while it has none
}

func (w *Writer) BeginRow(ncols int) error {
	for len(w.first) < ncols {
		w.first = append(w.first, 0)
	}
	return w.Encoder.BeginRow(ncols)
}

func (w *Writer) Int(col int, v int64) error {
	if w.first[col] == 0 {
		w.first[col] = typeInt
	}
	return w.Encoder.Int(col, v)
}

func (w *Writer) Float(col int, v float64) error {
	if w.first[col] == 0 {
		w.first[col] = typeFloat
	}
	return w.Encoder.Float(col, v)
}

func (w *Writer) Str(col int, v []byte) error {
	if w.first[col] == 0 {
		w.first[col] = typeString
	}
	return w.Encoder.Str(col, v)
}

// Frame frames the rows written so far as the result stream of table
// `name`, with declared's column names. A column's type is that of its
// first non-NULL cell; one that has none has the type declared gives it (a
// compiled statement knows the type of most columns without a row). The
// stream is the rows' one copy: it is allocated with room bytes to spare
// past its end, for the caller to append to in place (a worker's span
// trailer).
func (w *Writer) Frame(name string, declared sqlengine.Schema, room int) []byte {
	schema := slices.Clone(declared)
	for i := range schema {
		if i < len(w.first) && w.first[i] != 0 {
			schema[i].Type = colType(w.first[i])
		}
	}
	out := make([]byte, 0, headerSize(name, schema)+len(w.Buf)+room)
	return append(appendHeader(out, name, schema, w.Rows), w.Buf...)
}

func colType(b byte) sqlparse.ColType {
	switch b {
	case typeInt:
		return sqlparse.TypeInt
	case typeString:
		return sqlparse.TypeString
	}
	return sqlparse.TypeFloat
}

// Stream is an opened result stream: what precedes the rows, parsed, and
// the rows, still encoded.
type Stream struct {
	Name   string
	Schema sqlengine.Schema
	NRows  int
	rows   []byte
}

// cursor reads the counts and strings of a stream's header.
type cursor struct {
	data []byte
	pos  int
}

// str reads one length-prefixed string and returns where it lies.
func (c *cursor) str(what string) (lo, hi int, err error) {
	l, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 || l > uint64(len(c.data)-c.pos-n) {
		return 0, 0, fmt.Errorf("dump: truncated %s", what)
	}
	lo = c.pos + n
	c.pos = lo + int(l)
	return lo, c.pos, nil
}

// count reads a uvarint claiming that many items follow, each at least
// itemBytes long.
func (c *cursor) count(what string, itemBytes int) (int, error) {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("dump: truncated %s count", what)
	}
	c.pos += n
	if v > uint64(len(c.data)-c.pos)/uint64(itemBytes) {
		return 0, fmt.Errorf("dump: stream claims %d %ss in %d bytes", v, what, len(c.data)-c.pos)
	}
	return int(v), nil
}

// header parses the table name and the schema and returns where they end.
// Names are cut from names, a string of the same bytes as data; while the
// caller has none yet (""), they are only checked.
func (s *Stream) header(data []byte, names string) (int, error) {
	c := cursor{data: data, pos: len(streamMagic)}
	lo, hi, err := c.str("table name")
	if err != nil {
		return 0, err
	}
	if names != "" {
		s.Name = names[lo:hi]
	}
	ncols, err := c.count("column", 2) // name length + type byte
	if err != nil {
		return 0, err
	}
	if s.Schema == nil {
		s.Schema = make(sqlengine.Schema, ncols)
	}
	for i := range s.Schema {
		if lo, hi, err = c.str("column name"); err != nil {
			return 0, err
		}
		if names != "" {
			s.Schema[i].Name = names[lo:hi]
		}
		if c.pos >= len(data) {
			return 0, fmt.Errorf("dump: truncated column type")
		}
		switch b := data[c.pos]; b {
		case typeInt, typeFloat, typeString:
			s.Schema[i].Type = colType(b)
		default:
			return 0, fmt.Errorf("dump: unknown column type %q", b)
		}
		c.pos++
	}
	return c.pos, nil
}

// Open parses what precedes the rows of a result stream. The input is
// untrusted: every count and length is checked against the bytes present
// before anything is allocated from it. The Stream keeps data.
func Open(data []byte) (*Stream, error) {
	if len(data) < len(streamMagic) || string(data[:len(streamMagic)]) != streamMagic {
		return nil, fmt.Errorf("dump: bad stream header")
	}
	s := &Stream{}
	end, err := s.header(data, "")
	if err != nil {
		return nil, err
	}
	// The second pass cannot fail: it cuts the names the first one checked
	// out of one string, where one string each would be an allocation per
	// column of every chunk result.
	_, _ = s.header(data, string(data[:end]))
	c := cursor{data: data, pos: end}
	if s.NRows, err = c.count("row", 1+len(s.Schema)); err != nil { // width varint + one tag per cell
		return nil, err
	}
	s.rows = data[c.pos:]
	return s, nil
}

// Encoded walks the rows with a sink that checks them and keeps nothing —
// Decode's every check: the bounds of each cell, each row's width, the row
// count, nothing after the last row — and returns them as they are, with
// the kinds of cell each column holds. No cell is converted: what a column
// declares for an item its statement could not type is a guess from the
// first cell (a function may return an integer for one row and a float for
// the next), and rows that are handed on are handed on as the worker's
// engine produced them.
func (s *Stream) Encoded() (rowcodec.Batch, []rowcodec.Kinds, error) {
	b, kinds, err := rowcodec.ScanBatch(s.rows, s.NRows, len(s.Schema))
	if err != nil {
		return rowcodec.Batch{}, nil, fmt.Errorf("dump: %w", err)
	}
	return b, kinds, nil
}

// Rows decodes the rows boxed, with values converted to the declared
// column types. A row whose width differs from the declared schema is an
// error.
func (s *Stream) Rows() ([]sqlengine.Row, error) {
	var box sqlengine.Boxer
	box.Shape(s.NRows, len(s.Schema))
	pos := 0
	for i := 0; i < s.NRows; i++ {
		var err error
		if pos, err = rowcodec.Decode(s.rows, pos, &box); err != nil {
			return nil, fmt.Errorf("dump: row %d of %d: %w", i, s.NRows, err)
		}
	}
	if pos != len(s.rows) {
		return nil, fmt.Errorf("dump: %d trailing bytes after %d rows", len(s.rows)-pos, s.NRows)
	}
	for _, r := range box.Rows {
		for i, v := range r {
			if t := s.Schema[i].Type; v != nil && typeByte(t) != kindByte(v) {
				r[i] = coerceValue(v, t)
			}
		}
	}
	return box.Rows, nil
}

// kindByte is the column type byte of a decoded cell's kind.
func kindByte(v sqlengine.Value) byte {
	switch v.(type) {
	case int64:
		return typeInt
	case string:
		return typeString
	}
	return typeFloat
}

// Decoded is the in-memory form of one result stream: the table it
// names and its rows, with values coerced to the declared column types.
type Decoded struct {
	Name   string
	Schema sqlengine.Schema
	Rows   []sqlengine.Row
}

// Decode parses a result stream into boxed rows: Open, then Stream.Rows.
func Decode(s string) (*Decoded, error) {
	st, err := Open([]byte(s))
	if err != nil {
		return nil, err
	}
	rows, err := st.Rows()
	if err != nil {
		return nil, err
	}
	return &Decoded{Name: st.Name, Schema: st.Schema, Rows: rows}, nil
}

// coerceValue converts a decoded value to the column's storage type,
// mirroring the coercion the engine applies to rows it stores, so a
// decoded table is indistinguishable from an executed one.
func coerceValue(v sqlengine.Value, t sqlparse.ColType) sqlengine.Value {
	if sqlengine.IsNull(v) {
		return nil
	}
	switch t {
	case sqlparse.TypeInt:
		if n, err := sqlengine.AsInt(v); err == nil {
			return n
		}
	case sqlparse.TypeFloat:
		if f, err := sqlengine.AsFloat(v); err == nil {
			return f
		}
	case sqlparse.TypeString:
		return sqlengine.FormatValue(v)
	}
	return v
}
