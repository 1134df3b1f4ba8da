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
// protocol's row frame). The bytes are the ones the ingest batch has
// always written, so stored segments never need rewriting.
//
// There is one decoder, Decode, and it is a visitor: it hands each cell
// to a Sink as the type the bytes hold. A table's sqlengine.Appender is a
// Sink that writes cells straight into column slices; Boxer is the Sink
// that builds boxed sqlengine.Rows, for the users that want rows.
package rowcodec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqlengine"
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

// AppendRow appends r's encoding to out. A value that is not nil,
// int64, float64 or string is an error.
func AppendRow(out []byte, r sqlengine.Row) ([]byte, error) {
	out = binary.AppendUvarint(out, uint64(len(r)))
	for _, v := range r {
		switch x := v.(type) {
		case nil:
			out = append(out, tagNull)
		case int64:
			out = append(out, tagInt)
			out = binary.BigEndian.AppendUint64(out, uint64(x))
		case float64:
			out = append(out, tagFloat)
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(x))
		case string:
			out = append(out, tagString)
			out = binary.AppendUvarint(out, uint64(len(x)))
			out = append(out, x...)
		default:
			return nil, fmt.Errorf("rowcodec: unsupported value type %T", v)
		}
	}
	return out, nil
}

// Sink receives the cells of decoded rows: BeginRow announces a row and
// its width, then one call per cell follows, in column order. An error
// from the sink stops the decode and is returned by it.
type Sink interface {
	BeginRow(ncols int) error
	Null(col int) error
	Int(col int, v int64) error
	Float(col int, v float64) error
	// Str's v aliases the input; a sink that keeps it copies it.
	Str(col int, v []byte) error
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

// Boxer is the Sink that boxes: it collects the rows decoded into it as
// sqlengine.Rows, each a fresh slice. After a failed Decode its last row
// may be partial.
type Boxer struct {
	Rows []sqlengine.Row
	row  sqlengine.Row // the row being decoded, Rows' last
}

func (b *Boxer) BeginRow(ncols int) error {
	b.row = make(sqlengine.Row, ncols)
	b.Rows = append(b.Rows, b.row)
	return nil
}

func (b *Boxer) Null(col int) error             { return nil }
func (b *Boxer) Int(col int, v int64) error     { b.row[col] = v; return nil }
func (b *Boxer) Float(col int, v float64) error { b.row[col] = v; return nil }
func (b *Boxer) Str(col int, v []byte) error    { b.row[col] = string(v); return nil }

// DecodeRow parses the row starting at data[pos:], returning it boxed
// and the offset of the byte after it.
func DecodeRow(data []byte, pos int) (sqlengine.Row, int, error) {
	b := Boxer{Rows: make([]sqlengine.Row, 0, 1)}
	next, err := Decode(data, pos, &b)
	if err != nil {
		return nil, 0, err
	}
	return b.Rows[0], next, nil
}
