package sqlengine

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type sqlparse.ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of a column by case-insensitive name,
// or -1 when absent.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// RowWidth estimates the storage bytes of one row, mirroring the paper's
// raw-bytes accounting (Table 1): 8 bytes per numeric column plus the
// declared or average width of string columns.
func (s Schema) RowWidth() int {
	w := 0
	for _, c := range s {
		switch c.Type {
		case sqlparse.TypeString:
			w += 16
		default:
			w += 8
		}
	}
	if w == 0 {
		w = 8
	}
	return w
}

// Row is one tuple in schema order, boxed: what Table.Insert, result sets
// and tests speak. Tables do not store rows; see Table.
type Row []Value

// column holds one table column's cells in the slice its declared type
// selects; the other two stay nil. A NULL cell holds the zero value there
// and a set bit in nulls.
type column struct {
	typ    sqlparse.ColType
	ints   []int64
	floats []float64
	strs   []string
	// nulls is the NULL bitmap, nil until the column sees its first NULL
	// and never longer than the rows need. Its last word is shared between
	// a published snapshot and an append in progress, so words are read
	// and written atomically.
	nulls []uint64
	// strBytes sums len(s) over strs, for ResidentBytes.
	strBytes int64
}

func (c *column) len() int {
	switch c.typ {
	case sqlparse.TypeInt:
		return len(c.ints)
	case sqlparse.TypeFloat:
		return len(c.floats)
	}
	return len(c.strs)
}

func (c *column) null(pos int) bool {
	w := pos >> 6
	return w < len(c.nulls) && atomic.LoadUint64(&c.nulls[w])>>(uint(pos)&63)&1 != 0
}

// value boxes the cell at pos.
func (c *column) value(pos int) Value {
	switch {
	case c.null(pos):
		return nil
	case c.typ == sqlparse.TypeInt:
		return c.ints[pos]
	case c.typ == sqlparse.TypeFloat:
		return c.floats[pos]
	}
	return c.strs[pos]
}

// The append methods are the table boundary: each converts what it is
// given to the column's declared type — an integer into a DOUBLE column
// widens, a float into a BIGINT column truncates toward zero, a number
// into a VARCHAR column is rendered, a string into a numeric column is
// parsed — so everything behind the boundary can rely on the declared
// type. A string that does not parse is the one conversion that fails.

func (c *column) appendInt(x int64) {
	switch c.typ {
	case sqlparse.TypeInt:
		c.ints = append(c.ints, x)
	case sqlparse.TypeFloat:
		c.floats = append(c.floats, float64(x))
	default:
		c.appendStr(strconv.FormatInt(x, 10))
	}
}

func (c *column) appendFloat(f float64) {
	switch c.typ {
	case sqlparse.TypeInt:
		c.ints = append(c.ints, int64(f))
	case sqlparse.TypeFloat:
		c.floats = append(c.floats, f)
	default:
		c.appendStr(formatFloat(f))
	}
}

func (c *column) appendString(s string) error {
	switch c.typ {
	case sqlparse.TypeInt:
		n, err := AsInt(s)
		if err != nil {
			return err
		}
		c.ints = append(c.ints, n)
	case sqlparse.TypeFloat:
		f, err := AsFloat(s)
		if err != nil {
			return err
		}
		c.floats = append(c.floats, f)
	default:
		c.appendStr(s)
	}
	return nil
}

func (c *column) appendStr(s string) {
	c.strs = append(c.strs, s)
	c.strBytes += int64(len(s))
}

func (c *column) appendNull() {
	pos := c.len()
	switch c.typ {
	case sqlparse.TypeInt:
		c.ints = append(c.ints, 0)
	case sqlparse.TypeFloat:
		c.floats = append(c.floats, 0)
	default:
		c.strs = append(c.strs, "")
	}
	c.setNull(pos)
}

func (c *column) setNull(pos int) {
	for pos>>6 >= len(c.nulls) {
		c.nulls = append(c.nulls, 0)
	}
	atomic.OrUint64(&c.nulls[pos>>6], 1<<(uint(pos)&63))
}

// appendValue appends a boxed cell.
func (c *column) appendValue(v Value) error {
	switch x := v.(type) {
	case nil:
		c.appendNull()
	case int64:
		c.appendInt(x)
	case float64:
		c.appendFloat(x)
	case string:
		return c.appendString(x)
	case bool:
		c.appendInt(boolToInt(x))
	default:
		return fmt.Errorf("sqlengine: unsupported value type %T", v)
	}
	return nil
}

// appendFrom appends the cells at the given positions of src, a column of
// the same type, followed (positions from split on, less split) by those of
// more.
func (c *column) appendFrom(src, more *column, split int, positions []int32) {
	base := c.len()
	switch c.typ {
	case sqlparse.TypeInt:
		c.ints = slices.Grow(c.ints, len(positions))
		for _, p := range positions {
			if p := int(p); p < split {
				c.ints = append(c.ints, src.ints[p])
			} else {
				c.ints = append(c.ints, more.ints[p-split])
			}
		}
	case sqlparse.TypeFloat:
		c.floats = slices.Grow(c.floats, len(positions))
		for _, p := range positions {
			if p := int(p); p < split {
				c.floats = append(c.floats, src.floats[p])
			} else {
				c.floats = append(c.floats, more.floats[p-split])
			}
		}
	default:
		c.strs = slices.Grow(c.strs, len(positions))
		for _, p := range positions {
			if p := int(p); p < split {
				c.appendStr(src.strs[p])
			} else {
				c.appendStr(more.strs[p-split])
			}
		}
	}
	if src.nulls == nil && more.nulls == nil {
		return
	}
	for i, p := range positions {
		if p := int(p); (p < split && src.null(p)) || (p >= split && more.null(p-split)) {
			c.setNull(base + i)
		}
	}
}

// dropNullsFrom clears the NULL bits of rows n and up in the last word of
// a bitmap covering n rows: what an append that was abandoned may have
// left in the word it shared with them.
func (c *column) dropNullsFrom(n int) {
	if w := n >> 6; w < len(c.nulls) {
		atomic.AndUint64(&c.nulls[w], 1<<(uint(n)&63)-1)
	}
}

// bytes is the memory the column holds: capacity, not length, because
// that is what the allocator handed out.
func (c *column) bytes() int64 {
	const stringHeader = 16
	return int64(cap(c.ints)+cap(c.floats)+cap(c.nulls))*8 + int64(cap(c.strs))*stringHeader + c.strBytes
}

// tableData is one published state of a table: its columns, how many rows
// of them exist, and its indexes over exactly those rows. A reader loads
// it once and is unaffected by appends that publish a later one: they
// only write cells at positions n and up.
type tableData struct {
	cols    []column
	n       int
	indexes []hashIndex
	// sorted, when set, is the order the table declared (MarkSorted) and
	// every append since has kept.
	sorted *sortedRun
}

// sortedRun says that from row from on, the cells of the DOUBLE column col
// are not NULL, lie in [lo, hi] and never decrease. The rows before from are
// in no order.
type sortedRun struct {
	col, from int
	lo, hi    float64
}

// follows reports whether row i can be the run's next: its cell in range
// and not below that of the row before it (row from has none to follow).
func (r *sortedRun) follows(c *column, i int) bool {
	v := c.floats[i]
	return !c.null(i) && v >= r.lo && v <= r.hi && (i == r.from || v >= c.floats[i-1])
}

// MarkSorted declares the table sorted on a DOUBLE column for the benefit
// of joins that can skip rows by it: rows whose cell is NULL or outside
// [lo, hi] first, in any order, then the others by ascending cell. The
// declaration is checked, not trusted — the mark covers the longest run at
// the end of the table that is in that order, which for a table in no order
// is its last row — and an append that does not continue the run drops it.
func (t *Table) MarkSorted(col string, lo, hi float64) error {
	ci := t.Schema.ColIndex(col)
	if ci < 0 || t.Schema[ci].Type != sqlparse.TypeFloat {
		return fmt.Errorf("sqlengine: table %s has no DOUBLE column %q to be sorted on", t.Name, col)
	}
	d := *t.data.Load()
	run, c := &sortedRun{col: ci, from: d.n, lo: lo, hi: hi}, &d.cols[ci]
	for i := d.n - 1; i >= 0; i-- {
		v := c.floats[i]
		if c.null(i) || !(v >= lo && v <= hi) || (i+1 < d.n && v > c.floats[i+1]) {
			break
		}
		run.from = i
	}
	d.sorted = run
	t.data.Store(&d)
	return nil
}

// Table is a set of typed columns with optional hash indexes, the
// stand-in for a MyISAM table. It is columnar — chunk data is []int64,
// []float64 and []string from the segment decoder to the predicate — and
// append-only. Any number of goroutines may read while one appends: a
// reader works on the state it loaded, an append publishes a new one when
// it commits. Appends (Insert, an Appender, AppendFrom, CreateIndex,
// MarkSorted) are the caller's to serialize.
type Table struct {
	Name   string
	Schema Schema
	data   atomic.Pointer[tableData]
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	cols := make([]column, len(schema))
	for i, c := range schema {
		cols[i].typ = c.Type
	}
	t.data.Store(&tableData{cols: cols})
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.data.Load().n }

// Row boxes row i: for tests, exports and display, not for scans.
func (t *Table) Row(i int) Row {
	d := t.data.Load()
	row := make(Row, len(d.cols))
	for ci := range d.cols {
		row[ci] = d.cols[ci].value(i)
	}
	return row
}

// Float reads column ci of row i as a float64 without boxing it: a BIGINT
// cell converted, a NULL or VARCHAR cell as 0. With Int it serves callers
// that route a table's rows by a few numeric columns, like the worker's
// subchunk builder.
func (t *Table) Float(i, ci int) float64 {
	switch c := &t.data.Load().cols[ci]; c.typ {
	case sqlparse.TypeInt:
		return float64(c.ints[i])
	case sqlparse.TypeFloat:
		return c.floats[i]
	}
	return 0
}

// IsNull reports whether column ci of row i is NULL.
func (t *Table) IsNull(i, ci int) bool { return t.data.Load().cols[ci].null(i) }

// Int reads column ci of row i as an int64: a DOUBLE cell truncated, a
// NULL or VARCHAR cell as 0.
func (t *Table) Int(i, ci int) int64 {
	switch c := &t.data.Load().cols[ci]; c.typ {
	case sqlparse.TypeInt:
		return c.ints[i]
	case sqlparse.TypeFloat:
		return int64(c.floats[i])
	}
	return 0
}

// Appender adds rows to a table cell by cell, without boxing them: the
// sink row decoders write into (it implements rowcodec.Sink). Cells are
// converted to their column's declared type as they arrive. Nothing is
// visible to readers until Commit: an append that fails part-way is simply
// not committed, and the table is exactly as long as it was.
type Appender struct {
	t    *Table
	base *tableData
	cols []column
	rows int
}

// Appender starts an append. One append may be in progress per table.
func (t *Table) Appender() *Appender {
	d := t.data.Load()
	a := &Appender{t: t, base: d, cols: slices.Clone(d.cols)}
	for i := range a.cols {
		a.cols[i].dropNullsFrom(d.n)
	}
	return a
}

// Reserve makes room for n more rows in every column, so an append whose
// row count is known before its first row grows each column at most once.
// A column short of room grows by n rows, or by a quarter of its length
// when that is more: as tight as the append allows, and still amortized
// when appends are small.
func (a *Appender) Reserve(n int) {
	for i := range a.cols {
		c := &a.cols[i]
		switch c.typ {
		case sqlparse.TypeInt:
			c.ints = reserve(c.ints, n)
		case sqlparse.TypeFloat:
			c.floats = reserve(c.floats, n)
		default:
			c.strs = reserve(c.strs, n)
		}
	}
}

func reserve[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]E, len(s), len(s)+max(n, len(s)/4))
	copy(grown, s)
	return grown
}

// BeginRow announces a row of ncols cells; the cell calls that follow
// name their column.
func (a *Appender) BeginRow(ncols int) error {
	if ncols != len(a.cols) {
		return fmt.Errorf("sqlengine: row arity %d != schema arity %d for table %s",
			ncols, len(a.cols), a.t.Name)
	}
	a.rows++
	return nil
}

// Null appends a NULL cell to column col.
func (a *Appender) Null(col int) error {
	a.cols[col].appendNull()
	return nil
}

// Int appends an integer cell to column col.
func (a *Appender) Int(col int, v int64) error {
	a.cols[col].appendInt(v)
	return nil
}

// Float appends a float cell to column col.
func (a *Appender) Float(col int, v float64) error {
	a.cols[col].appendFloat(v)
	return nil
}

// Str appends a string cell to column col; v is copied.
func (a *Appender) Str(col int, v []byte) error {
	if err := a.cols[col].appendString(string(v)); err != nil {
		return a.cellError(col, err)
	}
	return nil
}

// cellError names the cell a conversion failed on. The row being appended
// is the last one BeginRow announced.
func (a *Appender) cellError(col int, err error) error {
	return fmt.Errorf("sqlengine: table %s column %s row %d: %w",
		a.t.Name, a.t.Schema[col].Name, a.base.n+a.rows-1, err)
}

// Commit publishes the appended rows and posts them to the indexes. A
// declared order (MarkSorted) stays declared only if the new rows keep it.
func (a *Appender) Commit() {
	d := &tableData{cols: a.cols, n: a.base.n + a.rows, indexes: slices.Clone(a.base.indexes), sorted: a.base.sorted}
	for i := range d.indexes {
		d.indexes[i].extend(d, a.base.n)
	}
	for i := a.base.n; d.sorted != nil && i < d.n; i++ {
		if !d.sorted.follows(&d.cols[d.sorted.col], i) {
			d.sorted = nil
		}
	}
	a.t.data.Store(d)
}

// Insert appends boxed rows, converting every cell to its column's
// declared type; a cell that cannot be converted (a string that is not a
// number into a numeric column) fails the whole call and the table keeps
// the rows it had. It is the convenience form of an Appender.
func (t *Table) Insert(rows ...Row) error {
	a := t.Appender()
	for _, r := range rows {
		err := a.BeginRow(len(r))
		for ci := 0; err == nil && ci < len(r); ci++ {
			if err = a.cols[ci].appendValue(r[ci]); err != nil {
				err = a.cellError(ci, err)
			}
		}
		if err != nil {
			return err
		}
	}
	a.Commit()
	return nil
}

// AppendFrom appends the rows at the given positions of src followed by
// more — position split is more's first row — column by column: column ci
// of this table takes the cells of column cols[ci] of theirs, which has its
// type. The split is the caller's, not src.Len(): positions taken from src
// and more as they were still name the same rows after src has grown.
func (t *Table) AppendFrom(src, more *Table, split int, positions []int32, cols []int) {
	a, from, tail := t.Appender(), src.data.Load(), more.data.Load()
	for ci := range a.cols {
		a.cols[ci].appendFrom(&from.cols[cols[ci]], &tail.cols[cols[ci]], split, positions)
	}
	a.rows = len(positions)
	a.Commit()
}

// ByteSize returns the estimated on-disk footprint of the table, the
// quantity the paper uses to compute effective scan bandwidth (section
// 6.2, High Volume 2).
func (t *Table) ByteSize() int64 {
	return int64(t.Len()) * int64(t.Schema.RowWidth())
}

// ResidentBytes is the memory the table holds: its column slices, NULL
// bitmaps, string bytes and index arrays, at their capacities. This is
// what a worker's residency manager charges against its memory budget
// (TestResidentBytesMatchesHeap holds it to the heap's own figure).
func (t *Table) ResidentBytes() int64 {
	d := t.data.Load()
	var b int64
	for i := range d.cols {
		b += d.cols[i].bytes()
	}
	for i := range d.indexes {
		b += int64(cap(d.indexes[i].heads)+cap(d.indexes[i].next)) * 4
	}
	return b
}

// ---------- hash index ----------

// chains is a pointer-free hash multimap: slots (row positions, or the
// entries of a join's build side) linked under the bucket their key
// hashes to. It stores no keys; whoever walks a bucket compares them.
// One goroutine may link while others walk: next never moves (it is
// allocated at its full length, one entry per bucket, and what outgrows
// it is a new chains value), and a head is stored atomically, after the
// entry it points to.
type chains struct {
	heads []int32 // bucket -> 1 + the slot linked last, 0 when empty
	next  []int32 // slot -> 1 + the slot linked before it in its bucket, 0 at the end
	shift uint    // 64 - log2(len(heads))
}

// newChains makes room for at least n slots.
func newChains(n int) chains {
	size := 16
	for size < n {
		size *= 2
	}
	return chains{
		heads: make([]int32, size), next: make([]int32, 0, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// link adds the next slot (slots are numbered in the order they are
// added) under hash h; skip adds it under nothing.
func (c *chains) link(h uint64) {
	b := &c.heads[h>>c.shift]
	c.next = append(c.next, *b)
	atomic.StoreInt32(b, int32(len(c.next)))
}

func (c *chains) skip() { c.next = append(c.next, 0) }

// walk returns the slots linked under h whose key in keys equals k, latest
// first. Slots past the end of keys — linked after the caller loaded its
// state — are not the caller's to see.
func walk[K comparable](c *chains, h uint64, keys []K, k K, out []int) []int {
	next := c.next[:cap(c.next)]
	for p := atomic.LoadInt32(&c.heads[h>>c.shift]); p != 0; p = next[p-1] {
		if slot := int(p - 1); slot < len(keys) && keys[slot] == k {
			out = append(out, slot)
		}
	}
	return out
}

var hashSeed = maphash.MakeSeed()

func hashInt(x int64) uint64     { return uint64(x) * 0x9E3779B97F4A7C15 }
func hashString(s string) uint64 { return maphash.String(hashSeed, s) }

// hashFloat hashes 0 and -0, which are equal, alike: -0 + 0 is +0.
func hashFloat(f float64) uint64 { return hashInt(int64(math.Float64bits(f + 0))) }

// hashIndex maps the values of one column to the positions of the rows
// holding them. It models the per-chunk objectId index the paper builds
// on workers (section 5.5). NULL cells are not posted: NULL equals
// nothing.
type hashIndex struct {
	col int
	chains
}

// extend posts the rows from position from up to d.n. When the chains are
// outgrown every row is posted afresh into larger ones, with room to grow
// by a quarter; readers of an earlier state keep walking theirs.
func (ix *hashIndex) extend(d *tableData, from int) {
	if ix.heads == nil || d.n > cap(ix.next) {
		ix.chains, from = newChains(d.n+d.n/4), 0
	}
	col := &d.cols[ix.col]
	for pos := from; pos < d.n; pos++ {
		switch {
		case col.null(pos):
			ix.skip()
		case col.typ == sqlparse.TypeInt:
			ix.link(hashInt(col.ints[pos]))
		case col.typ == sqlparse.TypeFloat:
			ix.link(hashFloat(col.floats[pos]))
		default:
			ix.link(hashString(col.strs[pos]))
		}
	}
}

// lookup appends to out, in ascending order, the positions in d whose
// indexed cell equals key, which must be of the column's own type (see
// indexKey).
func (ix *hashIndex) lookup(d *tableData, key Value, out []int) []int {
	col, start := &d.cols[ix.col], len(out)
	switch k := key.(type) {
	case int64:
		out = walk(&ix.chains, hashInt(k), col.ints, k, out)
	case string:
		out = walk(&ix.chains, hashString(k), col.strs, k, out)
	}
	slices.Reverse(out[start:])
	return out
}

// indexKey converts a lookup key to the type of an indexed column of type
// typ; ok is false when equality with it is not an exact match there, and
// only a filter can decide it: 2.5, 'abc' or a float of 2^53 and beyond
// (which equals several integers) for a BIGINT column, a number for a
// VARCHAR column (the string is parsed), anything for a DOUBLE column (a
// NaN cell equals every number).
func indexKey(v Value, typ sqlparse.ColType) (key Value, ok bool) {
	switch x := v.(type) {
	case nil:
		return nil, true // equals nothing, and finds nothing
	case int64:
		return x, typ == sqlparse.TypeInt
	case float64:
		return int64(x), typ == sqlparse.TypeInt && math.Abs(x) < 1<<53 && x == math.Trunc(x)
	case string:
		return x, typ == sqlparse.TypeString
	}
	return nil, false
}

// CreateIndex builds (or rebuilds) a hash index on the named column.
func (t *Table) CreateIndex(col string) error {
	ci := t.Schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("sqlengine: table %s has no column %q", t.Name, col)
	}
	old := t.data.Load()
	d := &tableData{cols: old.cols, n: old.n, sorted: old.sorted}
	for _, ix := range old.indexes {
		if ix.col != ci {
			d.indexes = append(d.indexes, ix)
		}
	}
	ix := hashIndex{col: ci}
	ix.extend(d, 0)
	d.indexes = append(d.indexes, ix)
	t.data.Store(d)
	return nil
}

// index returns d's index on column ci, or nil.
func (d *tableData) index(ci int) *hashIndex {
	for i := range d.indexes {
		if d.indexes[i].col == ci {
			return &d.indexes[i]
		}
	}
	return nil
}

// HasIndex reports whether the column is indexed.
func (t *Table) HasIndex(col string) bool {
	ci := t.Schema.ColIndex(col)
	return ci >= 0 && t.data.Load().index(ci) != nil
}

// Database is a named collection of tables (e.g. "LSST" on workers).
type Database struct {
	Name   string
	mu     sync.RWMutex
	tables map[string]*Table // lower-cased name -> table
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: map[string]*Table{}}
}

// Table returns the named table (case-insensitive) or an error.
func (d *Database) Table(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlengine: no table %q in database %s", name, d.Name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (d *Database) HasTable(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.tables[strings.ToLower(name)]
	return ok
}

// Put registers a table, replacing any previous table of the same name.
func (d *Database) Put(t *Table) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tables[strings.ToLower(t.Name)] = t
}

// Detach removes the named table from the database and returns it,
// reporting whether it was present: in-flight readers holding the pointer
// stay valid (tables are append-only, never mutated in place), while new
// lookups miss — the primitive a worker's residency manager evicts cold
// chunk tables with.
func (d *Database) Detach(name string) (*Table, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := d.tables[key]
	if ok {
		delete(d.tables, key)
	}
	return t, ok
}

// TableNames returns the sorted names of all tables.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ExecStats meters the I/O performed by one query execution. The
// simulation layer converts these into virtual time at paper scale.
type ExecStats struct {
	// SeqBytes is the number of bytes read by sequential scans.
	SeqBytes int64
	// RandReads is the number of random-access reads (index lookups),
	// each of which costs a disk seek in the cost model.
	RandReads int64
	// RandBytes is the number of bytes fetched by those random reads.
	RandBytes int64
	// RowsScanned counts tuples examined across all scans.
	RowsScanned int64
	// RowsOut counts tuples in the final result.
	RowsOut int64
	// ResultBytes estimates the size of the result (what must be shipped
	// back through the fabric via the mysqldump path).
	ResultBytes int64
	// PairsConsidered counts the pairs joins visited — every inner row per
	// outer row for a nested loop, a probe's matches for a hash join, the
	// rows of the window (and the few visited always) for a band join — the
	// quantity the paper's O(n^2)-vs-O(kn) argument is about (section 4.4).
	PairsConsidered int64
}

// Add accumulates another stats record into s.
func (s *ExecStats) Add(o ExecStats) {
	s.SeqBytes += o.SeqBytes
	s.RandReads += o.RandReads
	s.RandBytes += o.RandBytes
	s.RowsScanned += o.RowsScanned
	s.RowsOut += o.RowsOut
	s.ResultBytes += o.ResultBytes
	s.PairsConsidered += o.PairsConsidered
}

// Result is the output of a query: column names and rows, plus the
// execution's I/O metering.
type Result struct {
	Cols  []string
	Types []sqlparse.ColType
	Rows  []Row
	Stats ExecStats
}

// Schema derives a Schema from the result's columns.
func (r *Result) Schema() Schema {
	s := make(Schema, len(r.Cols))
	for i := range r.Cols {
		typ := sqlparse.TypeFloat
		if i < len(r.Types) {
			typ = r.Types[i]
		}
		s[i] = Column{Name: r.Cols[i], Type: typ}
	}
	return s
}
