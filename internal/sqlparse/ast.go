package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is any AST node that can render itself back to SQL text. The
// deparser output is itself parseable (round-trip property), which is how
// the czar ships rewritten chunk queries to workers as plain SQL.
type Node interface {
	SQL() string
}

// Statement is a complete SQL statement.
type Statement interface {
	Node
	stmt()
}

// Expr is a scalar expression.
type Expr interface {
	Node
	expr()
}

// ---------- Expressions ----------

// Literal is a constant: int64, float64, string, bool, or nil (NULL).
type Literal struct {
	Val interface{}
}

func (*Literal) expr() {}

// SQL renders the literal.
func (l *Literal) SQL() string {
	switch v := l.Val.(type) {
	case nil:
		return "NULL"
	case bool:
		if v {
			return "TRUE"
		}
		return "FALSE"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case string:
		return quoteString(v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

func quoteString(s string) string {
	var sb strings.Builder
	sb.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			sb.WriteString("''")
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(s[i])
		}
	}
	sb.WriteByte('\'')
	return sb.String()
}

// ColumnRef names a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table  string // optional qualifier ("o1" in o1.ra_PS)
	Column string
}

func (*ColumnRef) expr() {}

// SQL renders the reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Column)
	}
	return quoteIdent(c.Column)
}

// quoteIdent backquotes an identifier only when necessary (it contains
// punctuation or collides with a keyword), keeping generated SQL legible.
func quoteIdent(s string) string {
	need := false
	for i, r := range s {
		if !(isIdentPart(r) || (i == 0 && isIdentStart(r))) {
			need = true
			break
		}
	}
	if !need && keywords[strings.ToUpper(s)] {
		need = true
	}
	if !need && s != "" && s[0] >= '0' && s[0] <= '9' {
		need = true
	}
	if need {
		return "`" + strings.ReplaceAll(s, "`", "``") + "`"
	}
	return s
}

// Star is the * select item or COUNT(*) argument; Table qualifies o.*.
type Star struct {
	Table string
}

func (*Star) expr() {}

// SQL renders the star.
func (s *Star) SQL() string {
	if s.Table != "" {
		return quoteIdent(s.Table) + ".*"
	}
	return "*"
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
func (f *FuncCall) SQL() string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	if f.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.SQL())
	}
	sb.WriteByte(')')
	return sb.String()
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
func (b *BinaryExpr) SQL() string {
	return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")"
}

// UnaryExpr applies a prefix operator: "-" or "NOT".
type UnaryExpr struct {
	Op string
	X  Expr
}

func (*UnaryExpr) expr() {}

// SQL renders the expression.
func (u *UnaryExpr) SQL() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.SQL() + ")"
	}
	return "(" + u.Op + u.X.SQL() + ")"
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) expr() {}

// SQL renders the predicate.
func (b *BetweenExpr) SQL() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.X.SQL() + " " + not + "BETWEEN " + b.Lo.SQL() + " AND " + b.Hi.SQL() + ")"
}

// InExpr is x [NOT] IN (e1, e2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// SQL renders the predicate.
func (i *InExpr) SQL() string {
	parts := make([]string, len(i.List))
	for k, e := range i.List {
		parts[k] = e.SQL()
	}
	not := ""
	if i.Not {
		not = "NOT "
	}
	return "(" + i.X.SQL() + " " + not + "IN (" + strings.Join(parts, ", ") + "))"
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// SQL renders the predicate.
func (i *IsNullExpr) SQL() string {
	if i.Not {
		return "(" + i.X.SQL() + " IS NOT NULL)"
	}
	return "(" + i.X.SQL() + " IS NULL)"
}

// ---------- SELECT ----------

// SelectItem is one projection in the select list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional AS alias
}

// SQL renders the item.
func (s SelectItem) SQL() string {
	if s.Alias != "" {
		return s.Expr.SQL() + " AS " + quoteIdent(s.Alias)
	}
	return s.Expr.SQL()
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
func (t TableRef) SQL() string {
	s := quoteIdent(t.Table)
	if t.DB != "" {
		s = quoteIdent(t.DB) + "." + s
	}
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
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
func (o OrderItem) SQL() string {
	if o.Desc {
		return o.Expr.SQL() + " DESC"
	}
	return o.Expr.SQL()
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
}

func (*Select) stmt() {}

// SQL renders the statement.
func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.SQL())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.SQL())
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.FormatInt(s.Limit, 10))
	}
	return sb.String()
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
		return &Literal{Val: v.Val}
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

// ---------- DDL / DML ----------

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

// ColDef is a column definition in CREATE TABLE.
type ColDef struct {
	Name string
	Type ColType
}

// SQL renders the definition.
func (c ColDef) SQL() string { return quoteIdent(c.Name) + " " + c.Type.String() }

// CreateTable is CREATE TABLE name (cols) or CREATE TABLE name AS select.
type CreateTable struct {
	DB          string
	Name        string
	IfNotExists bool
	Cols        []ColDef
	AsSelect    *Select // nil unless CREATE TABLE ... AS SELECT
}

func (*CreateTable) stmt() {}

// SQL renders the statement.
func (c *CreateTable) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if c.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	if c.DB != "" {
		sb.WriteString(quoteIdent(c.DB))
		sb.WriteByte('.')
	}
	sb.WriteString(quoteIdent(c.Name))
	if c.AsSelect != nil {
		sb.WriteString(" AS ")
		sb.WriteString(c.AsSelect.SQL())
		return sb.String()
	}
	sb.WriteString(" (")
	for i, col := range c.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(col.SQL())
	}
	sb.WriteByte(')')
	return sb.String()
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	DB       string
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

// SQL renders the statement.
func (d *DropTable) SQL() string {
	var sb strings.Builder
	sb.WriteString("DROP TABLE ")
	if d.IfExists {
		sb.WriteString("IF EXISTS ")
	}
	if d.DB != "" {
		sb.WriteString(quoteIdent(d.DB))
		sb.WriteByte('.')
	}
	sb.WriteString(quoteIdent(d.Name))
	return sb.String()
}

// Insert is INSERT INTO name [(cols)] VALUES (...), (...).
type Insert struct {
	DB    string
	Table string
	Cols  []string // empty means table order
	Rows  [][]Expr
}

func (*Insert) stmt() {}

// SQL renders the statement.
func (i *Insert) SQL() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	if i.DB != "" {
		sb.WriteString(quoteIdent(i.DB))
		sb.WriteByte('.')
	}
	sb.WriteString(quoteIdent(i.Table))
	if len(i.Cols) > 0 {
		sb.WriteString(" (")
		for k, c := range i.Cols {
			if k > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(c))
		}
		sb.WriteByte(')')
	}
	sb.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for k, e := range row {
			if k > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// CreateIndex is CREATE INDEX name ON table (col).
type CreateIndex struct {
	Name  string
	DB    string
	Table string
	Col   string
}

func (*CreateIndex) stmt() {}

// SQL renders the statement.
func (c *CreateIndex) SQL() string {
	tbl := quoteIdent(c.Table)
	if c.DB != "" {
		tbl = quoteIdent(c.DB) + "." + tbl
	}
	return "CREATE INDEX " + quoteIdent(c.Name) + " ON " + tbl + " (" + quoteIdent(c.Col) + ")"
}
