// Package sqlengine is the embedded single-node SQL engine each Qserv
// worker (and the czar's result-merge stage) runs. It plays the role
// MySQL/MyISAM plays in the paper (section 5.1.1): the design treats the
// engine as a loosely-coupled black box that executes chunk queries over
// local tables.
//
// A table is columnar (storage.go): one []int64, []float64 or []string
// per column, chosen by the declared type, plus a NULL bitmap. Cells are
// converted to the declared type once, as they enter the table — from an
// INSERT, from Table.Insert's boxed rows, or from a row decoder writing
// straight into the columns through an Appender — so nothing behind that
// boundary checks a cell's type again. Rows exist boxed (Row, []Value)
// only outside tables: in results, in INSERTs and in tests.
//
// A SELECT runs in three steps: bind the FROM clause to tables, compile
// every expression once into closures against those bindings (compile.go:
// names, functions and operators are resolved there; a column compiles to
// an index into its slice at the binding's cursor, and whatever is built
// from typed operands stays unboxed), then run one pass over the row
// positions — source, filter, project or accumulate (exec.go). Values are
// boxed where a result row is written, where a UDF or a mixed-type
// operator needs the generic form, and nowhere else. Nothing is
// interpreted per row and nothing compiled is kept across statements.
//
// Beyond executing the dialect, the engine meters the I/O of every query
// (bytes scanned sequentially, random reads, rows and bytes produced) so
// the simulation layer can convert executions on scaled-down data into
// virtual time at paper scale.
package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is one cell: nil (NULL), int64, float64, or string. bool appears
// transiently during predicate evaluation and is stored as int64 0/1.
// It is an alias (not a defined type) so Row converts to the public
// API's []any without copying.
type Value = interface{}

// Kind classifies a value for coercion decisions.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// KindOf returns the value's kind.
func KindOf(v Value) Kind {
	switch v.(type) {
	case nil:
		return KindNull
	case int64:
		return KindInt
	case float64:
		return KindFloat
	case string:
		return KindString
	case bool:
		return KindBool
	default:
		panic(fmt.Sprintf("sqlengine: unsupported value type %T", v))
	}
}

// IsNull reports whether the value is SQL NULL.
func IsNull(v Value) bool { return v == nil }

// AsFloat coerces a numeric value to float64.
func AsFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	case string:
		f, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, fmt.Errorf("sqlengine: cannot coerce %q to number", x)
		}
		return f, nil
	case nil:
		return 0, fmt.Errorf("sqlengine: NULL is not a number")
	default:
		return 0, fmt.Errorf("sqlengine: cannot coerce %T to number", v)
	}
}

// AsInt coerces a numeric value to int64 (floats truncate toward zero).
func AsInt(v Value) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case float64:
		return int64(x), nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	case string:
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("sqlengine: cannot coerce %q to integer", x)
		}
		return n, nil
	case nil:
		return 0, fmt.Errorf("sqlengine: NULL is not an integer")
	default:
		return 0, fmt.Errorf("sqlengine: cannot coerce %T to integer", v)
	}
}

// AsBool interprets a value as a predicate result: NULL is false,
// numbers are non-zero, strings are non-empty.
func AsBool(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	default:
		return false
	}
}

// Compare orders two non-NULL values: -1, 0, +1. Numeric values compare
// numerically across int/float; strings compare lexicographically. A
// numeric compared to a string attempts numeric parse of the string and
// falls back to string comparison of both.
func Compare(a, b Value) (int, error) {
	if IsNull(a) || IsNull(b) {
		return 0, fmt.Errorf("sqlengine: NULL in comparison")
	}
	ka, kb := KindOf(a), KindOf(b)
	if ka == KindBool {
		a, ka = boolToInt(a.(bool)), KindInt
	}
	if kb == KindBool {
		b, kb = boolToInt(b.(bool)), KindInt
	}
	if ka == KindString && kb == KindString {
		return strings.Compare(a.(string), b.(string)), nil
	}
	if ka == KindString || kb == KindString {
		fa, ea := AsFloat(a)
		fb, eb := AsFloat(b)
		if ea == nil && eb == nil {
			return threeWay(fa, fb), nil
		}
		return strings.Compare(toString(a), toString(b)), nil
	}
	// Pure numeric: avoid float rounding when both are ints.
	if ka == KindInt && kb == KindInt {
		return threeWay(a.(int64), b.(int64)), nil
	}
	fa, err := AsFloat(a)
	if err != nil {
		return 0, err
	}
	fb, err := AsFloat(b)
	if err != nil {
		return 0, err
	}
	return threeWay(fa, fb), nil
}

// threeWay orders two numbers or two strings: -1, 0, +1. A NaN is neither
// below nor above anything, so it compares equal to everything.
func threeWay[T ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CompareNullsFirst orders two values with MySQL's ORDER BY ASC
// semantics: NULLs sort before every non-NULL value, everything else
// follows Compare. It is the total order the engine's ORDER BY uses and
// the one the czar's streaming top-K merge must reproduce exactly.
func CompareNullsFirst(a, b Value) int {
	an, bn := IsNull(a), IsNull(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

// Equal reports whether two values are equal under Compare semantics;
// NULL never equals anything (including NULL).
func Equal(a, b Value) bool {
	if IsNull(a) || IsNull(b) {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// toString renders a value for display and for dump streams.
func toString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return formatFloat(x)
	case string:
		return x
	case bool:
		if x {
			return "1"
		}
		return "0"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatValue renders a value for human-readable output.
func FormatValue(v Value) string { return toString(v) }

// formatFloat renders floats with full round-trip precision.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "1e999"
	}
	if math.IsInf(f, -1) {
		return "-1e999"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// GroupKey encodes a slice of values into a comparable string for use as
// a map key in GROUP BY, DISTINCT, and hash joins. The encoding is
// injective: distinct value tuples produce distinct keys.
func GroupKey(vals []Value) string {
	var buf []byte
	for _, v := range vals {
		buf = appendKey(buf, v)
	}
	return string(buf)
}

// appendKey appends one value's GroupKey encoding: a kind tag followed by
// a self-delimiting payload (varint for integers, eight bytes for floats,
// length-prefixed for strings), so concatenated keys decode uniquely.
// Scans append into a reused buffer and look up by string(buf), which
// does not allocate; where the value is at hand unboxed they call the
// typed encoders directly.
func appendKey(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n')
	case int64:
		return appendIntKey(buf, x)
	case float64:
		return appendFloatKey(buf, x)
	case string:
		return appendStringKey(buf, x)
	case bool:
		return appendIntKey(buf, boolToInt(x))
	}
	return buf
}

func appendIntKey(buf []byte, x int64) []byte {
	return binary.AppendVarint(append(buf, 'i'), x)
}

// An int64 and the float64 of equal value stay distinct keys, and so do 0
// and -0; every NaN is one key.
func appendFloatKey(buf []byte, x float64) []byte {
	bits := math.Float64bits(x)
	if x != x {
		bits = math.Float64bits(math.NaN())
	}
	return binary.BigEndian.AppendUint64(append(buf, 'f'), bits)
}

func appendStringKey(buf []byte, x string) []byte {
	buf = binary.AppendUvarint(append(buf, 's'), uint64(len(x)))
	return append(buf, x...)
}
