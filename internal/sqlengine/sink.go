package sqlengine

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

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

// Boxer is the Sink that boxes, the system's one: it collects the rows
// written to it as Rows, for a SELECT whose caller names no sink and for
// every decoder's caller that wants rows.
//
// Rows are cut from slabs: a row's cells from a slab of Values, and a
// BIGINT or DOUBLE cell's bits from a slab of words beside it, which the
// cell's Value points at (boxAt), so neither a row nor a number costs an
// allocation of its own. Shape sizes both slabs for rows that are
// announced; without it they grow geometrically. A kept row keeps its
// slabs alive, and its capacity ends where it ends. After a write that
// failed its last row may be partial.
type Boxer struct {
	Rows  []Row
	cells []Value  // the current slab
	words []uint64 // its words, cell for cell
	row   int      // where the row being written starts in the slab
	next  int      // where the next row starts
	// shape is, after Shape, one more than the one width a row may have;
	// 0, before, takes rows of any width.
	shape int
}

// Shape readies b for nrows more rows of ncols cells: room in Rows, and
// one allocation for each slab. From then on a row of another width is
// refused before a cell of it is written, a check a decoder of a declared
// width relies on. The caller holds nrows and ncols to what its input can
// hold.
func (b *Boxer) Shape(nrows, ncols int) {
	b.Rows = slices.Grow(b.Rows, nrows)
	b.cells, b.words, b.next = make([]Value, nrows*ncols), make([]uint64, nrows*ncols), 0
	b.shape = ncols + 1
}

func (b *Boxer) BeginRow(ncols int) error {
	if b.shape != ncols+1 && b.shape != 0 {
		return fmt.Errorf("row of %d values, %d expected", ncols, b.shape-1)
	}
	row, next := b.next, b.next+ncols
	if next > len(b.cells) {
		n := max(2*len(b.cells), ncols)
		b.cells, b.words = make([]Value, n), make([]uint64, n)
		row, next = 0, ncols
	}
	b.row, b.next = row, next
	b.Rows = append(b.Rows, b.cells[row:next:next])
	return nil
}

func (b *Boxer) Null(col int) error { return nil }

func (b *Boxer) Int(col int, v int64) error {
	w := &b.words[b.row+col]
	*w = uint64(v)
	b.cells[b.row+col] = boxAt(intType, w)
	return nil
}

func (b *Boxer) Float(col int, v float64) error {
	w := &b.words[b.row+col]
	*w = math.Float64bits(v)
	b.cells[b.row+col] = boxAt(floatType, w)
	return nil
}

func (b *Boxer) Str(col int, v []byte) error { b.cells[b.row+col] = string(v); return nil }

// The type words boxAt gives a cell: a zero of each type, which boxes
// without an allocation.
var (
	intType   Value = int64(0)
	floatType Value = float64(0)
)

// boxAt returns the Value whose type word is typ's (intType or floatType)
// and whose data word is p, which holds the cell's bits: the Value that
// boxing *p as typ's type would give, pointing at *p where boxing copies
// it to a new heap object. The contract: *p is written once, before it is
// boxed, and never again — a Value is immutable, and a copy of it shares
// *p. Boxer keeps it: each cell of a row has a word of its own, and a
// slab's words are handed out once. This is the module's one use of
// package unsafe.
func boxAt(typ Value, p *uint64) Value {
	(*[2]unsafe.Pointer)(unsafe.Pointer(&typ))[1] = unsafe.Pointer(p)
	return typ
}

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
