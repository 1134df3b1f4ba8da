package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Node is any AST node that can render itself back to SQL text. The
// deparser output is itself parseable (round-trip property), which is how
// the czar ships rewritten chunk queries to workers as plain SQL.
type Node interface {
	SQL() string
}

// Spans are where a deparse (Select.AppendSQL) wrote what a caller keeping
// the text as a template cuts out of it: each FROM entry's table name, and
// each numbered literal (Literal.Num), in text order.
type Spans struct {
	// Tables holds one extent per FROM entry, in FROM order: the table
	// name, inside any backquotes.
	Tables []Span
	// Literals holds the extent and the number of each numbered literal.
	Literals []LiteralSpan
}

// Span is the extent [Pos, End) of some text.
type Span struct{ Pos, End int }

// LiteralSpan is where a deparse wrote the literal numbered Num.
type LiteralSpan struct {
	Span
	Num int
}

// Statement is a complete SQL statement. A *Select is the only one: the
// dialect has no statement that writes.
type Statement interface {
	Node
	stmt()
}

// Expr is a scalar expression.
type Expr interface {
	Node
	expr()
	// appendSQL appends the expression's text to b, noting where it wrote
	// each numbered literal in sp when sp is not nil.
	appendSQL(b []byte, sp *Spans) []byte
}

// ---------- Expressions ----------

// Literal is a constant: int64, float64, string, bool, or nil (NULL).
type Literal struct {
	Val interface{}
	// Num numbers a literal read from a number or string token: its place,
	// from 1, among the literals of the text it was parsed from, in text
	// order (Shape.Literals[Num-1]). A negated number keeps its token's
	// number. It is 0 on a literal that was built, and copies keep it.
	Num int32
	// Mark, when not 0, makes the literal's text a mark instead of its
	// value's spelling: MarkOpen, Mark-1 in decimal, MarkClose. A planner
	// that builds one plan for every statement of a shape spells each
	// literal as a mark it can find again in what it built from it
	// (internal/core).
	Mark int32
}

// The bytes a mark (Literal.Mark) opens and closes with.
const (
	MarkOpen  = '\x01'
	MarkClose = '\x02'
)

func (*Literal) expr() {}

// SQL renders the literal.
func (l *Literal) SQL() string { return string(l.appendText(nil)) }

// appendText appends the literal's text to b: its mark when it has one, the
// spelling of its value otherwise.
func (l *Literal) appendText(b []byte) []byte {
	if l.Mark != 0 {
		b = strconv.AppendInt(append(b, MarkOpen), int64(l.Mark-1), 10)
		return append(b, MarkClose)
	}
	switch v := l.Val.(type) {
	case nil:
		return append(b, "NULL"...)
	case bool:
		if v {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	case int64:
		return strconv.AppendInt(b, v, 10)
	case float64:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	case string:
		return appendQuoted(b, v)
	default:
		return append(b, fmt.Sprint(v)...) // b stays where it is
	}
}

func (l *Literal) appendSQL(b []byte, sp *Spans) []byte {
	pos := len(b)
	b = l.appendText(b)
	if sp != nil && l.Num > 0 {
		sp.Literals = append(sp.Literals, LiteralSpan{Span: Span{pos, len(b)}, Num: int(l.Num)})
	}
	return b
}

func appendQuoted(b []byte, s string) []byte {
	b = append(b, '\'')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			b = append(b, "''"...)
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return append(b, '\'')
}

// ColumnRef names a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table  string // optional qualifier ("o1" in o1.ra_PS)
	Column string
}

func (*ColumnRef) expr() {}

// SQL renders the reference.
func (c *ColumnRef) SQL() string { return string(c.appendSQL(nil, nil)) }

func (c *ColumnRef) appendSQL(b []byte, _ *Spans) []byte {
	if c.Table != "" {
		b = appendIdent(b, c.Table)
		b = append(b, '.')
	}
	return appendIdent(b, c.Column)
}

// appendIdent appends an identifier, backquoted only when necessary (it
// contains punctuation or collides with a keyword), keeping generated SQL
// legible.
func appendIdent(b []byte, s string) []byte {
	need := false
	ascii := true
	for i, r := range s {
		if !(isIdentPart(r) || (i == 0 && isIdentStart(r))) {
			need = true
			break
		}
		ascii = ascii && r < utf8.RuneSelf
	}
	if !need && keyword(s) != "" || !need && !ascii && keyword(strings.ToUpper(s)) != "" {
		need = true
	}
	if !need && s != "" && s[0] >= '0' && s[0] <= '9' {
		need = true
	}
	if !need {
		return append(b, s...)
	}
	b = append(b, '`')
	for i := 0; i < len(s); i++ {
		if s[i] == '`' {
			b = append(b, '`')
		}
		b = append(b, s[i])
	}
	return append(b, '`')
}

// Star is the * select item or COUNT(*) argument; Table qualifies o.*.
type Star struct {
	Table string
}

func (*Star) expr() {}

// SQL renders the star.
func (s *Star) SQL() string { return string(s.appendSQL(nil, nil)) }

func (s *Star) appendSQL(b []byte, _ *Spans) []byte {
	if s.Table != "" {
		b = appendIdent(b, s.Table)
		b = append(b, '.')
	}
	return append(b, '*')
}

// FuncCall is a scalar or aggregate function application. Build one with
// NewFuncCall, as the parser does, never as a bare literal: it folds the
// name once, so IsAggregate and Key are field reads however often later
// stages ask.
type FuncCall struct {
	Name     string // canonical upper-case for aggregates; verbatim otherwise
	Args     []Expr
	Distinct bool // COUNT(DISTINCT x)

	key string // lower-cased Name
	agg bool
}

// NewFuncCall builds a call node with its name folded.
func NewFuncCall(name string, args ...Expr) *FuncCall {
	f := &FuncCall{Name: name, Args: args, key: strings.ToLower(name)}
	if up := strings.ToUpper(name); AggregateFuncs[up] {
		f.Name, f.agg = up, true
	}
	return f
}

func (*FuncCall) expr() {}

// SQL renders the call.
func (f *FuncCall) SQL() string { return string(f.appendSQL(nil, nil)) }

func (f *FuncCall) appendSQL(b []byte, sp *Spans) []byte {
	b = append(b, f.Name...)
	b = append(b, '(')
	if f.Distinct {
		b = append(b, "DISTINCT "...)
	}
	for i, a := range f.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.appendSQL(b, sp)
	}
	return append(b, ')')
}

// AggregateFuncs are the aggregate function names the dialect knows.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool { return f.agg }

// Key returns the case-folded function name: the key function tables
// (the engine's registry of builtins and UDFs) are looked up by.
func (f *FuncCall) Key() string { return f.key }

// withArgs copies the call around a new argument list, keeping the
// folded name.
func (f *FuncCall) withArgs(args []Expr) *FuncCall {
	c := *f
	c.Args = args
	return &c
}

// BinaryExpr applies an infix operator: arithmetic, comparison, AND/OR.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"
	L, R Expr
}

func (*BinaryExpr) expr() {}

// SQL renders the expression fully parenthesized so that precedence
// survives the round trip regardless of operator binding.
func (b *BinaryExpr) SQL() string { return string(b.appendSQL(nil, nil)) }

func (b *BinaryExpr) appendSQL(out []byte, sp *Spans) []byte {
	out = append(out, '(')
	out = b.L.appendSQL(out, sp)
	out = append(out, ' ')
	out = append(out, b.Op...)
	out = append(out, ' ')
	out = b.R.appendSQL(out, sp)
	return append(out, ')')
}

// UnaryExpr applies a prefix operator: "-" or "NOT".
type UnaryExpr struct {
	Op string
	X  Expr
}

func (*UnaryExpr) expr() {}

// SQL renders the expression.
func (u *UnaryExpr) SQL() string { return string(u.appendSQL(nil, nil)) }

func (u *UnaryExpr) appendSQL(b []byte, sp *Spans) []byte {
	b = append(b, '(')
	b = append(b, u.Op...)
	if u.Op == "NOT" {
		b = append(b, ' ')
	}
	b = u.X.appendSQL(b, sp)
	return append(b, ')')
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) expr() {}

// SQL renders the predicate.
func (b *BetweenExpr) SQL() string { return string(b.appendSQL(nil, nil)) }

func (b *BetweenExpr) appendSQL(out []byte, sp *Spans) []byte {
	out = append(out, '(')
	out = b.X.appendSQL(out, sp)
	out = append(out, ' ')
	if b.Not {
		out = append(out, "NOT "...)
	}
	out = append(out, "BETWEEN "...)
	out = b.Lo.appendSQL(out, sp)
	out = append(out, " AND "...)
	out = b.Hi.appendSQL(out, sp)
	return append(out, ')')
}

// InExpr is x [NOT] IN (e1, e2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// SQL renders the predicate.
func (i *InExpr) SQL() string { return string(i.appendSQL(nil, nil)) }

func (i *InExpr) appendSQL(b []byte, sp *Spans) []byte {
	b = append(b, '(')
	b = i.X.appendSQL(b, sp)
	b = append(b, ' ')
	if i.Not {
		b = append(b, "NOT "...)
	}
	b = append(b, "IN ("...)
	for k, e := range i.List {
		if k > 0 {
			b = append(b, ", "...)
		}
		b = e.appendSQL(b, sp)
	}
	return append(b, "))"...)
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// SQL renders the predicate.
func (i *IsNullExpr) SQL() string { return string(i.appendSQL(nil, nil)) }

func (i *IsNullExpr) appendSQL(b []byte, sp *Spans) []byte {
	b = append(b, '(')
	b = i.X.appendSQL(b, sp)
	if i.Not {
		return append(b, " IS NOT NULL)"...)
	}
	return append(b, " IS NULL)"...)
}

// ---------- SELECT ----------

// SelectItem is one projection in the select list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional AS alias
}

// SQL renders the item.
func (s SelectItem) SQL() string { return string(s.appendSQL(nil, nil)) }

func (s SelectItem) appendSQL(b []byte, sp *Spans) []byte {
	b = s.Expr.appendSQL(b, sp)
	if s.Alias != "" {
		b = append(b, " AS "...)
		b = appendIdent(b, s.Alias)
	}
	return b
}

// TableRef names a base table in FROM, optionally database-qualified and
// aliased. Explicit JOIN ... ON syntax is desugared during parsing into
// the comma-join list with the ON condition conjoined to WHERE; only
// inner joins exist in the dialect, so the desugaring is lossless.
type TableRef struct {
	DB    string // optional database qualifier (LSST.Object_1234)
	Table string
	Alias string
	// Pos and End are the extent of the table-name token (backquotes
	// included) in the text the reference was parsed from, for a caller that
	// keeps that text as a template (the worker's statement reuse). End is 0
	// on a reference that was built, not parsed.
	Pos, End int
}

// SQL renders the reference.
func (t TableRef) SQL() string { return string(t.appendSQL(nil, nil)) }

// appendSQL appends the reference, noting the extent of its table name,
// inside any backquotes, in sp when sp is not nil.
func (t TableRef) appendSQL(b []byte, sp *Spans) []byte {
	if t.DB != "" {
		b = appendIdent(b, t.DB)
		b = append(b, '.')
	}
	pos := len(b)
	b = appendIdent(b, t.Table)
	if sp != nil {
		name := Span{pos, len(b)}
		if len(b) > pos && b[pos] == '`' {
			name = Span{pos + 1, len(b) - 1}
		}
		sp.Tables = append(sp.Tables, name)
	}
	if t.Alias != "" {
		b = append(b, " AS "...)
		b = appendIdent(b, t.Alias)
	}
	return b
}

// Name returns the name the table is referred to by in expressions: the
// alias when present, the bare table name otherwise.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the key.
func (o OrderItem) SQL() string { return string(o.appendSQL(nil, nil)) }

func (o OrderItem) appendSQL(b []byte, sp *Spans) []byte {
	b = o.Expr.appendSQL(b, sp)
	if o.Desc {
		b = append(b, " DESC"...)
	}
	return b
}

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent

	// src is the text a statement ParseSelect returns was parsed from, as
	// tokens, and the literals it read from them: what Shape reads. A
	// statement built or copied has none.
	src *source
}

func (*Select) stmt() {}

// SQL renders the statement.
func (s *Select) SQL() string { return string(s.AppendSQL(make([]byte, 0, 128), nil)) }

// AppendSQL appends the statement's text, SQL's, to b. When sp is not nil
// it also notes in sp where it wrote each FROM table name and each numbered
// literal.
func (s *Select) AppendSQL(b []byte, sp *Spans) []byte {
	b = append(b, "SELECT "...)
	if s.Distinct {
		b = append(b, "DISTINCT "...)
	}
	for i, it := range s.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = it.appendSQL(b, sp)
	}
	if len(s.From) > 0 {
		b = append(b, " FROM "...)
		for i, t := range s.From {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = t.appendSQL(b, sp)
		}
	}
	if s.Where != nil {
		b = append(b, " WHERE "...)
		b = s.Where.appendSQL(b, sp)
	}
	if len(s.GroupBy) > 0 {
		b = append(b, " GROUP BY "...)
		for i, g := range s.GroupBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = g.appendSQL(b, sp)
		}
	}
	if len(s.OrderBy) > 0 {
		b = append(b, " ORDER BY "...)
		for i, o := range s.OrderBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = o.appendSQL(b, sp)
		}
	}
	if s.Limit >= 0 {
		b = append(b, " LIMIT "...)
		b = strconv.AppendInt(b, s.Limit, 10)
	}
	return b
}

// Clone deep-copies the statement so rewrites can mutate it freely.
func (s *Select) Clone() *Select {
	c := &Select{
		Distinct: s.Distinct,
		Limit:    s.Limit,
	}
	for _, it := range s.Items {
		c.Items = append(c.Items, SelectItem{Expr: CloneExpr(it.Expr), Alias: it.Alias})
	}
	c.From = append(c.From, s.From...)
	if s.Where != nil {
		c.Where = CloneExpr(s.Where)
	}
	for _, g := range s.GroupBy {
		c.GroupBy = append(c.GroupBy, CloneExpr(g))
	}
	for _, o := range s.OrderBy {
		c.OrderBy = append(c.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	return c
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *Literal:
		c := *v
		return &c
	case *ColumnRef:
		return &ColumnRef{Table: v.Table, Column: v.Column}
	case *Star:
		return &Star{Table: v.Table}
	case *FuncCall:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = CloneExpr(a)
		}
		return v.withArgs(args)
	case *BinaryExpr:
		return &BinaryExpr{Op: v.Op, L: CloneExpr(v.L), R: CloneExpr(v.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: v.Op, X: CloneExpr(v.X)}
	case *BetweenExpr:
		return &BetweenExpr{X: CloneExpr(v.X), Lo: CloneExpr(v.Lo), Hi: CloneExpr(v.Hi), Not: v.Not}
	case *InExpr:
		list := make([]Expr, len(v.List))
		for i, x := range v.List {
			list[i] = CloneExpr(x)
		}
		return &InExpr{X: CloneExpr(v.X), List: list, Not: v.Not}
	case *IsNullExpr:
		return &IsNullExpr{X: CloneExpr(v.X), Not: v.Not}
	default:
		panic(fmt.Sprintf("sqlparse: CloneExpr: unknown node %T", e))
	}
}

// WalkExpr calls fn for every node of the expression tree, pre-order.
// Returning false stops descent into that node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *FuncCall:
		for _, a := range v.Args {
			WalkExpr(a, fn)
		}
	case *BinaryExpr:
		WalkExpr(v.L, fn)
		WalkExpr(v.R, fn)
	case *UnaryExpr:
		WalkExpr(v.X, fn)
	case *BetweenExpr:
		WalkExpr(v.X, fn)
		WalkExpr(v.Lo, fn)
		WalkExpr(v.Hi, fn)
	case *InExpr:
		WalkExpr(v.X, fn)
		for _, x := range v.List {
			WalkExpr(x, fn)
		}
	case *IsNullExpr:
		WalkExpr(v.X, fn)
	}
}

// RewriteExpr rebuilds the expression bottom-up, replacing each node with
// fn's return value. fn receives a node whose children are already
// rewritten.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case *FuncCall:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = RewriteExpr(a, fn)
		}
		return fn(v.withArgs(args))
	case *BinaryExpr:
		return fn(&BinaryExpr{Op: v.Op, L: RewriteExpr(v.L, fn), R: RewriteExpr(v.R, fn)})
	case *UnaryExpr:
		return fn(&UnaryExpr{Op: v.Op, X: RewriteExpr(v.X, fn)})
	case *BetweenExpr:
		return fn(&BetweenExpr{
			X: RewriteExpr(v.X, fn), Lo: RewriteExpr(v.Lo, fn), Hi: RewriteExpr(v.Hi, fn), Not: v.Not,
		})
	case *InExpr:
		list := make([]Expr, len(v.List))
		for i, x := range v.List {
			list[i] = RewriteExpr(x, fn)
		}
		return fn(&InExpr{X: RewriteExpr(v.X, fn), List: list, Not: v.Not})
	case *IsNullExpr:
		return fn(&IsNullExpr{X: RewriteExpr(v.X, fn), Not: v.Not})
	default:
		return fn(e)
	}
}

// ---------- Column types ----------

// ColType is a column's storage type.
type ColType int

// Column types. The engine stores 64-bit integers, 64-bit floats, and
// strings; BIGINT/DOUBLE/VARCHAR are the canonical spellings.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeString
)

// String returns the SQL spelling of the type.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ParseColType maps common SQL type names onto the three storage types.
func ParseColType(name string) (ColType, error) {
	switch strings.ToUpper(name) {
	case "BIGINT", "INT", "INTEGER", "SMALLINT", "TINYINT", "BOOL", "BOOLEAN":
		return TypeInt, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING", "BLOB":
		return TypeString, nil
	default:
		return 0, fmt.Errorf("sqlparse: unknown column type %q", name)
	}
}
