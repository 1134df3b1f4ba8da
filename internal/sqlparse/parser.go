package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	// source holds the tokens and the literals read from them so far, by
	// Num-1, with the index of each one's token: the statement ParseSelect
	// returns keeps it.
	source
	pos int
	src string
}

// NewParser builds a parser for src, lexing eagerly.
func NewParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, t := range toks {
		if t.Kind == TokNumber || t.Kind == TokString {
			n++
		}
	}
	return &Parser{source: source{toks: toks, lits: make([]*Literal, 0, n), litToks: make([]int, 0, n)}, src: src}, nil
}

// ParseSelect parses a single SELECT, requiring all input be consumed (a
// trailing semicolon is allowed).
func ParseSelect(src string) (*Select, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	sel.src = &p.source
	return sel, nil
}

// ParseScript parses a semicolon-separated sequence of SELECTs, such as the
// body of a chunk query. A FROM entry's Pos and End are offsets into src.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for {
		for p.accept(TokOp, ";") {
		}
		if p.atEOF() {
			return out, nil
		}
		st, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(TokOp, ";") && !p.atEOF() {
			return nil, p.errf("expected ';' between statements, got %s", p.peek())
		}
	}
}

// ---------- token plumbing ----------

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

// accept consumes the next token when it matches kind and (case-neutral
// for keywords) text, and reports whether it did.
func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *Parser) expect(kind TokenKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.errf("expected %q, got %s", text, p.peek())
}

func (p *Parser) expectKeyword(kw string) error { return p.expect(TokKeyword, kw) }

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// expectIdent consumes and returns an identifier (keywords rejected).
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, got %s", t)
	}
	p.next()
	return t.Text, nil
}

// ---------- statements ----------

func (p *Parser) parseSelect() (*Select, error) {
	if !p.acceptKeyword("SELECT") {
		return nil, p.errf("expected SELECT, the one statement there is, got %s", p.peek())
	}
	sel := &Select{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}

	// FROM with comma joins and INNER JOIN ... ON desugaring.
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			// JOIN chains bind to the left: a JOIN b ON c JOIN d ON e.
			for {
				inner := p.acceptKeyword("INNER")
				if !p.acceptKeyword("JOIN") {
					if inner {
						return nil, p.errf("expected JOIN after INNER")
					}
					break
				}
				right, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, right)
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				sel.Where = conjoin(sel.Where, cond)
			}
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = conjoin(w, sel.Where)
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errf("expected number after LIMIT, got %s", t)
		}
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT value %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// conjoin ANDs two possibly-nil conditions.
func conjoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinaryExpr{Op: "AND", L: a, R: b}
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// Bare * or qualified t.* .
	if p.accept(TokOp, "*") {
		return SelectItem{Expr: &Star{}}, nil
	}
	// Lookahead for ident.*
	if p.peek().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Expr: &Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		// Implicit alias: SELECT expr name.
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	tok := p.peek()
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.accept(TokOp, ".") {
		tok = p.peek()
		tbl, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.DB = name
		ref.Table = tbl
	}
	ref.Pos, ref.End = tok.Pos, tok.End
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokIdent {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// literal numbers a literal read from the token just consumed.
func (p *Parser) literal(v interface{}) *Literal {
	lit := &Literal{Val: v, Num: int32(len(p.lits) + 1)}
	p.lits = append(p.lits, lit)
	p.litToks = append(p.litToks, p.pos-1)
	return lit
}

// ---------- expressions ----------
//
// Precedence, loosest first: OR, AND, NOT, comparison/BETWEEN/IN/IS,
// additive, multiplicative, unary minus, primary.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	// [NOT] BETWEEN / IN / LIKE
	not := false
	if p.acceptKeyword("NOT") {
		not = true
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(TokOp, ",") {
				continue
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			break
		}
		return &InExpr{X: l, List: list, Not: not}, nil
	}
	if p.acceptKeyword("LIKE") {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := Expr(&BinaryExpr{Op: "LIKE", L: l, R: r})
		if not {
			like = &UnaryExpr{Op: "NOT", X: like}
		}
		return like, nil
	}
	if not {
		return nil, p.errf("expected BETWEEN, IN or LIKE after NOT")
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(TokOp, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "+"):
			op = "+"
		case p.accept(TokOp, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "*"):
			op = "*"
		case p.accept(TokOp, "/"):
			op = "/"
		case p.accept(TokOp, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation into numeric literals for cleaner trees. The
		// literal is the parser's own, so it is negated in place and keeps
		// its number.
		if lit, ok := x.(*Literal); ok {
			switch v := lit.Val.(type) {
			case int64:
				lit.Val = -v
				return lit, nil
			case float64:
				lit.Val = -v
				return lit, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.accept(TokOp, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return p.literal(f), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			// Integer overflow: keep as float.
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return p.literal(f), nil
		}
		return p.literal(n), nil

	case TokString:
		p.next()
		return p.literal(t.Text), nil

	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Val: nil}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: false}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)

	case TokOp:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %s in expression", t)

	case TokIdent:
		p.next()
		name := t.Text
		// Function call?
		if p.accept(TokOp, "(") {
			call := NewFuncCall(name)
			if p.accept(TokOp, ")") {
				return call, nil
			}
			call.Distinct = p.acceptKeyword("DISTINCT")
			for {
				// COUNT(*) and friends.
				if p.accept(TokOp, "*") {
					call.Args = append(call.Args, &Star{})
				} else {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
				}
				if p.accept(TokOp, ",") {
					continue
				}
				if err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
				break
			}
			return call, nil
		}
		// Qualified column?
		if p.accept(TokOp, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	}
	return nil, p.errf("unexpected %s", t)
}
