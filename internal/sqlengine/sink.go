package sqlengine

import "fmt"

// Sink receives rows cell by cell: BeginRow announces a row and its
// width, then one call per cell follows, in column order, with the cell as
// the type it has. It is the system's one cell visitor: a row decoder
// (package rowcodec) drives it with the cells a byte stream holds, and a
// SELECT drives it with the cells of its result (ExecOptions.Sink), read
// from the column slices without boxing. An error from the sink stops the
// decode or the statement and is returned by it.
type Sink interface {
	BeginRow(ncols int) error
	Null(col int) error
	Int(col int, v int64) error
	Float(col int, v float64) error
	// Str's v aliases the caller's buffer; a sink that keeps it copies it.
	Str(col int, v []byte) error
}

// Boxer is the Sink that boxes: it collects the rows written to it as
// Rows, each a fresh slice. It is what a SELECT writes to when its caller
// names no sink, and what a decoder's caller that wants rows hands it.
// After a write that failed its last row may be partial.
type Boxer struct {
	Rows []Row
	row  Row // the row being written, Rows' last
}

func (b *Boxer) BeginRow(ncols int) error {
	b.row = make(Row, ncols)
	b.Rows = append(b.Rows, b.row)
	return nil
}

func (b *Boxer) Null(col int) error             { return nil }
func (b *Boxer) Int(col int, v int64) error     { b.row[col] = v; return nil }
func (b *Boxer) Float(col int, v float64) error { b.row[col] = v; return nil }
func (b *Boxer) Str(col int, v []byte) error    { b.row[col] = string(v); return nil }

// writeRow hands one boxed row to sink. A bool is written as the integer
// it is stored as; any other value that is not nil, int64, float64 or
// string is an error.
func writeRow(sink Sink, r Row) error {
	if err := sink.BeginRow(len(r)); err != nil {
		return err
	}
	var str []byte
	for i, v := range r {
		if err := writeValue(sink, i, v, &str); err != nil {
			return err
		}
	}
	return nil
}

// writeValue hands one boxed cell to sink; a string goes through the
// caller's buffer str, reused cell after cell.
func writeValue(sink Sink, col int, v Value, str *[]byte) error {
	switch x := v.(type) {
	case nil:
		return sink.Null(col)
	case int64:
		return sink.Int(col, x)
	case float64:
		return sink.Float(col, x)
	case string:
		*str = append((*str)[:0], x...)
		return sink.Str(col, *str)
	case bool:
		return sink.Int(col, boolToInt(x))
	}
	return fmt.Errorf("sqlengine: unsupported value type %T in a result row", v)
}
