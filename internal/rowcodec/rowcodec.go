// Package rowcodec is the system's one row representation on the wire
// and on disk. A row is a uvarint column count followed by that many
// cells; a cell is a tag byte and, for non-NULL values, a payload:
//
//	'n'                       NULL
//	'i' + 8 bytes big-endian  int64
//	'f' + 8 bytes big-endian  float64 (IEEE-754 bits: -0.0, NaN payloads
//	                          and infinities round-trip exactly)
//	's' + uvarint length + bytes  string
//
// Every user frames rows its own way and calls AppendRow / Decode for
// the cells: package ingest (the /load and /repl batches and the
// chunkstore segment files made of them), package dump (a worker's
// chunk-query result stream), and package frontend (the client
// protocol's row frame, a count and a batch of rows). The bytes are the
// ones the ingest batch has always written, so stored segments never need
// rewriting.
//
// Both directions go through one cell visitor, sqlengine.Sink (Sink here).
// There is one decoder, Decode: it hands each cell to a Sink as the type
// the bytes hold — a table's sqlengine.Appender writes them straight into
// column slices, sqlengine.Boxer builds boxed rows for the users that want
// rows. And each kind of cell is encoded in one place, by Encoder, the
// Sink that writes the bytes — a worker's SELECT writes its result cells
// into one from the column slices — and by AppendRow, for a boxed row.
//
// Rows that stay encoded travel as a Batch: the bytes and where each row
// ends. ScanBatch makes one from untrusted bytes by checking them without
// opening them; the czar's result stream, its result cache and the
// frontend's row frames hand the same bytes on.
package rowcodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// Value tag bytes.
const (
	tagNull   = 'n'
	tagInt    = 'i'
	tagFloat  = 'f'
	tagString = 's'
)

// RowSize upper-bounds a row's encoding.
func RowSize(r sqlengine.Row) int {
	size := binary.MaxVarintLen64
	for _, v := range r {
		size += 9
		if s, ok := v.(string); ok {
			size += binary.MaxVarintLen64 + len(s)
		}
	}
	return size
}

// Sink receives the cells of rows, decoded or about to be encoded; see
// sqlengine.Sink.
type Sink = sqlengine.Sink

// The encoding of a row's width and of each kind of cell. Encoder and
// AppendRow are the two callers: a Sink for cells that arrive one by one,
// a loop for a row that arrives boxed.
func appendWidth(buf []byte, ncols int) []byte { return binary.AppendUvarint(buf, uint64(ncols)) }
func appendNull(buf []byte) []byte             { return append(buf, tagNull) }

func appendInt(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, tagInt), uint64(v))
}

func appendFloat(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(v))
}

func appendStr[S string | []byte](buf []byte, v S) []byte {
	buf = binary.AppendUvarint(append(buf, tagString), uint64(len(v)))
	return append(buf, v...)
}

// Encoder is the Sink that encodes: each row written to it is appended to
// Buf. Its methods never fail.
type Encoder struct {
	Buf  []byte
	Rows int // rows begun
}

func (e *Encoder) BeginRow(ncols int) error {
	e.Buf = appendWidth(e.Buf, ncols)
	e.Rows++
	return nil
}

func (e *Encoder) Null(col int) error             { e.Buf = appendNull(e.Buf); return nil }
func (e *Encoder) Int(col int, v int64) error     { e.Buf = appendInt(e.Buf, v); return nil }
func (e *Encoder) Float(col int, v float64) error { e.Buf = appendFloat(e.Buf, v); return nil }
func (e *Encoder) Str(col int, v []byte) error    { e.Buf = appendStr(e.Buf, v); return nil }

// AppendRow appends r's encoding to out. A value that is not nil,
// int64, float64 or string is an error.
func AppendRow(out []byte, r sqlengine.Row) ([]byte, error) {
	out = appendWidth(out, len(r))
	for _, v := range r {
		switch x := v.(type) {
		case nil:
			out = appendNull(out)
		case int64:
			out = appendInt(out, x)
		case float64:
			out = appendFloat(out, x)
		case string:
			out = appendStr(out, x)
		default:
			return nil, fmt.Errorf("rowcodec: unsupported value type %T", v)
		}
	}
	return out, nil
}

// Decode parses the row starting at data[pos:] into sink and returns the
// offset of the byte after it. The input is untrusted: every count and
// length is checked against the bytes present before the sink hears of
// it.
func Decode(data []byte, pos int, sink Sink) (int, error) {
	ncols, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated row header")
	}
	pos += n
	// Every value costs at least its tag byte; an untrusted column
	// count beyond the remaining payload is corrupt.
	if ncols > uint64(len(data)-pos) {
		return 0, fmt.Errorf("row claims %d values in %d bytes", ncols, len(data)-pos)
	}
	if err := sink.BeginRow(int(ncols)); err != nil {
		return 0, err
	}
	for i := 0; i < int(ncols); i++ {
		if pos >= len(data) {
			return 0, fmt.Errorf("truncated value tag")
		}
		tag := data[pos]
		pos++
		var err error
		switch tag {
		case tagNull:
			err = sink.Null(i)
		case tagInt, tagFloat:
			if pos+8 > len(data) {
				return 0, fmt.Errorf("truncated numeric value")
			}
			bits := binary.BigEndian.Uint64(data[pos : pos+8])
			pos += 8
			if tag == tagInt {
				err = sink.Int(i, int64(bits))
			} else {
				err = sink.Float(i, math.Float64frombits(bits))
			}
		case tagString:
			slen, n := binary.Uvarint(data[pos:])
			// Guard slen before the int conversion: a huge untrusted
			// length must not wrap the bounds check.
			if n <= 0 || slen > uint64(len(data)) || pos+n+int(slen) > len(data) {
				return 0, fmt.Errorf("truncated string value")
			}
			pos += n
			err = sink.Str(i, data[pos:pos+int(slen)])
			pos += int(slen)
		default:
			return 0, fmt.Errorf("unknown value tag %q", tag)
		}
		if err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// DecodeRow parses the row starting at data[pos:], returning it boxed
// and the offset of the byte after it.
func DecodeRow(data []byte, pos int) (sqlengine.Row, int, error) {
	b := sqlengine.Boxer{Rows: make([]sqlengine.Row, 0, 1)}
	next, err := Decode(data, pos, &b)
	if err != nil {
		return nil, 0, err
	}
	return b.Rows[0], next, nil
}

// Batch is a run of rows that stay encoded: their bytes, and for each row
// the offset in Data of the byte after it. A Batch is not written to once
// made, so it can be shared.
type Batch struct {
	Data []byte
	Ends []int
}

// Len is the number of rows.
func (b Batch) Len() int { return len(b.Ends) }

// Row returns the encoding of row i.
func (b Batch) Row(i int) []byte { return b.Data[b.Offset(i):b.Ends[i]] }

// Offset is where row i starts in Data; Offset(Len()) is where the last
// row ends.
func (b Batch) Offset(i int) int {
	if i == 0 {
		return 0
	}
	return b.Ends[i-1]
}

// Size is the memory the batch holds.
func (b Batch) Size() int64 { return int64(len(b.Data)) + 8*int64(len(b.Ends)) }

// Decode writes every row of the batch to sink.
func (b Batch) Decode(sink Sink) error {
	for pos := 0; pos < len(b.Data); {
		next, err := Decode(b.Data, pos, sink)
		if err != nil {
			return err
		}
		pos = next
	}
	return nil
}

// EncodeBatch encodes rows as a Batch.
func EncodeBatch(rows []sqlengine.Row) (Batch, error) {
	size := 0
	for _, r := range rows {
		size += RowSize(r)
	}
	b := Batch{Data: make([]byte, 0, size), Ends: make([]int, len(rows))}
	for i, r := range rows {
		var err error
		if b.Data, err = AppendRow(b.Data, r); err != nil {
			return Batch{}, err
		}
		b.Ends[i] = len(b.Data)
	}
	return b, nil
}

// Box appends the batch's rows, boxed, to rows. The batch is ScanBatch's
// or EncodeBatch's, so it decodes: one that does not is a bug, and panics.
// The rows are cut from one slab of cells, not allocated one by one.
func (b Batch) Box(rows []sqlengine.Row) []sqlengine.Row {
	box := slabBoxer{rows: slices.Grow(rows, b.Len()), left: b.Len()}
	if err := b.Decode(&box); err != nil {
		panic(fmt.Sprintf("rowcodec: a checked batch does not decode: %v", err))
	}
	return box.rows
}

// slabBoxer is the boxing Sink of Batch.Box: it knows how many rows are
// coming, and takes the cells of all of them in one allocation sized by
// the first row's width (again, for what is left, should a later row be
// wider than the slab has room for).
type slabBoxer struct {
	rows []sqlengine.Row
	slab []sqlengine.Value
	row  sqlengine.Row
	left int // rows still to come
}

func (b *slabBoxer) BeginRow(ncols int) error {
	if len(b.slab) < ncols {
		b.slab = make([]sqlengine.Value, ncols*max(b.left, 1))
	}
	b.row, b.slab = b.slab[:ncols:ncols], b.slab[ncols:]
	b.rows = append(b.rows, b.row)
	b.left--
	return nil
}

func (b *slabBoxer) Null(col int) error             { return nil }
func (b *slabBoxer) Int(col int, v int64) error     { b.row[col] = v; return nil }
func (b *slabBoxer) Float(col int, v float64) error { b.row[col] = v; return nil }
func (b *slabBoxer) Str(col int, v []byte) error    { b.row[col] = string(v); return nil }

// Kinds is the set of cell kinds a column held.
type Kinds uint8

const (
	HasInt Kinds = 1 << iota
	HasFloat
	HasString
)

// ColType is the narrowest column type that holds every cell of the set
// unchanged — BIGINT if all are integers, DOUBLE if all are numbers,
// VARCHAR if any is a string; ok is false for the empty set, which fits
// any.
func (k Kinds) ColType() (typ sqlparse.ColType, ok bool) {
	switch {
	case k&HasString != 0:
		return sqlparse.TypeString, true
	case k&HasFloat != 0:
		return sqlparse.TypeFloat, true
	case k&HasInt != 0:
		return sqlparse.TypeInt, true
	}
	return 0, false
}

// scanner is the Sink that keeps nothing: it checks each row's width,
// notes which kinds of cell each column holds, and sums what the row's
// canonical encoding — AppendRow's — would take.
type scanner struct {
	kinds []Kinds
	size  int
}

func (s *scanner) BeginRow(ncols int) error {
	if ncols != len(s.kinds) {
		return fmt.Errorf("row has %d values, schema declares %d", ncols, len(s.kinds))
	}
	s.size = uvarintLen(uint64(ncols))
	return nil
}

func (s *scanner) Null(col int) error             { s.size++; return nil }
func (s *scanner) Int(col int, v int64) error     { s.kinds[col] |= HasInt; s.size += 9; return nil }
func (s *scanner) Float(col int, v float64) error { s.kinds[col] |= HasFloat; s.size += 9; return nil }
func (s *scanner) Str(col int, v []byte) error {
	s.kinds[col] |= HasString
	s.size += 1 + uvarintLen(uint64(len(v))) + len(v)
	return nil
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// ScanBatch checks nrows rows of ncols cells each at the head of data —
// untrusted bytes — without keeping a cell: every check Decode makes, each
// row's width, that nothing follows the last row, and that every row is
// encoded exactly as AppendRow encodes it (Decode also reads a padded
// varint, which no encoder here writes; bytes that are handed on unopened
// are held to the one encoding). It returns the rows as a Batch over data
// and the kinds of cell each column holds.
func ScanBatch(data []byte, nrows, ncols int) (Batch, []Kinds, error) {
	// Every row costs at least its width byte: a caller's count beyond
	// the bytes present is not allocated for.
	if nrows < 0 || nrows > len(data) {
		return Batch{}, nil, fmt.Errorf("%d rows claimed in %d bytes", nrows, len(data))
	}
	s := scanner{kinds: make([]Kinds, ncols)}
	b := Batch{Data: data, Ends: make([]int, nrows)}
	pos := 0
	for i := range b.Ends {
		next, err := Decode(data, pos, &s)
		if err != nil {
			return Batch{}, nil, fmt.Errorf("row %d of %d: %w", i, nrows, err)
		}
		if next-pos != s.size {
			return Batch{}, nil, fmt.Errorf("row %d of %d: %d bytes hold what encodes in %d", i, nrows, next-pos, s.size)
		}
		pos, b.Ends[i] = next, next
	}
	if pos != len(data) {
		return Batch{}, nil, fmt.Errorf("%d trailing bytes after %d rows", len(data)-pos, nrows)
	}
	return b, s.kinds, nil
}
