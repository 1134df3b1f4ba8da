// Package dump is the result-transfer format (paper section 5.4): how a
// worker's chunk-query result travels to the master. The paper ships a
// mysqldump SQL script that the master re-executes, and names that
// path's "costs in speed, disk, network, and database transactions" as
// "strong motivations to explore a more efficient method" (section
// 7.1). This is that method, a deliberate divergence: the result ships
// as a binary stream whose rows are in the cell encoding of package
// rowcodec — the same bytes ingest batches and segment files hold.
//
//	"QRES1"
//	uvarint len + table name
//	uvarint ncols, then per column: uvarint len + name, type byte
//	uvarint nrows, then per row: one rowcodec row of ncols cells
//
// Decode is engine-free, so the czar's dispatch goroutines run it
// concurrently and only the fold into the session table synchronizes.
package dump

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// streamMagic heads every result stream; the digit is the version.
const streamMagic = "QRES1"

// Column type bytes.
const (
	typeInt    = 'i'
	typeFloat  = 'f'
	typeString = 's'
)

// Dump serializes a query result as the stream of table `name`. The
// engine only produces values rowcodec encodes; one that is not is a
// bug, and panics.
func Dump(name string, res *sqlengine.Result) string {
	size := len(streamMagic) + 3*binary.MaxVarintLen64 + len(name)
	for _, c := range res.Cols {
		size += binary.MaxVarintLen64 + len(c) + 1
	}
	for _, r := range res.Rows {
		size += rowcodec.RowSize(r)
	}
	out := make([]byte, 0, size)
	out = append(out, streamMagic...)
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(len(res.Cols)))
	for _, c := range res.Schema() {
		out = binary.AppendUvarint(out, uint64(len(c.Name)))
		out = append(out, c.Name...)
		switch c.Type {
		case sqlparse.TypeInt:
			out = append(out, typeInt)
		case sqlparse.TypeString:
			out = append(out, typeString)
		default:
			out = append(out, typeFloat)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(res.Rows)))
	var err error
	for _, r := range res.Rows {
		if out, err = rowcodec.AppendRow(out, r); err != nil {
			panic(fmt.Sprintf("dump: result %s: %v", name, err))
		}
	}
	return string(out)
}

// Decoded is the in-memory form of one result stream: the table it
// names and its rows, with values coerced to the declared column types.
type Decoded struct {
	Name   string
	Schema sqlengine.Schema
	Rows   []sqlengine.Row
}

// Decode parses a result stream. The input is untrusted: every count
// and length is checked against the bytes present before anything is
// allocated from it, and a row whose width differs from the declared
// schema is an error.
func Decode(s string) (*Decoded, error) {
	data := []byte(s)
	if len(data) < len(streamMagic) || string(data[:len(streamMagic)]) != streamMagic {
		return nil, fmt.Errorf("dump: bad stream header")
	}
	pos := len(streamMagic)

	// str reads one length-prefixed string.
	str := func(what string) (string, error) {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || l > uint64(len(data)-pos-n) {
			return "", fmt.Errorf("dump: truncated %s", what)
		}
		pos += n
		v := string(data[pos : pos+int(l)])
		pos += int(l)
		return v, nil
	}
	// count reads a uvarint claiming that many items follow, each at
	// least itemBytes long.
	count := func(what string, itemBytes int) (int, error) {
		c, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("dump: truncated %s count", what)
		}
		pos += n
		if c > uint64(len(data)-pos)/uint64(itemBytes) {
			return 0, fmt.Errorf("dump: stream claims %d %ss in %d bytes", c, what, len(data)-pos)
		}
		return int(c), nil
	}

	dec := &Decoded{}
	var err error
	if dec.Name, err = str("table name"); err != nil {
		return nil, err
	}
	ncols, err := count("column", 2) // name length + type byte
	if err != nil {
		return nil, err
	}
	dec.Schema = make(sqlengine.Schema, ncols)
	for i := range dec.Schema {
		if dec.Schema[i].Name, err = str("column name"); err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, fmt.Errorf("dump: truncated column type")
		}
		switch data[pos] {
		case typeInt:
			dec.Schema[i].Type = sqlparse.TypeInt
		case typeFloat:
			dec.Schema[i].Type = sqlparse.TypeFloat
		case typeString:
			dec.Schema[i].Type = sqlparse.TypeString
		default:
			return nil, fmt.Errorf("dump: unknown column type %q", data[pos])
		}
		pos++
	}
	nrows, err := count("row", 1+ncols) // width varint + one tag per cell
	if err != nil {
		return nil, err
	}
	box := rowcodec.Boxer{Rows: make([]sqlengine.Row, 0, nrows)}
	for i := 0; i < nrows; i++ {
		if pos, err = rowcodec.Decode(data, pos, &box); err != nil {
			return nil, fmt.Errorf("dump: row %d of %d: %w", i, nrows, err)
		}
		row := box.Rows[i]
		if len(row) != ncols {
			return nil, fmt.Errorf("dump: row %d has %d values, schema declares %d", i, len(row), ncols)
		}
		for j, v := range row {
			row[j] = coerceValue(v, dec.Schema[j].Type)
		}
	}
	dec.Rows = box.Rows
	if pos != len(data) {
		return nil, fmt.Errorf("dump: %d trailing bytes after %d rows", len(data)-pos, nrows)
	}
	return dec, nil
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
