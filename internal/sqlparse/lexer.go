// Package sqlparse implements the SQL dialect Qserv accepts from users
// and generates for workers (paper section 5.3): SELECT with expressions,
// comma and INNER joins, aliases, BETWEEN/IN, aggregate and scalar
// function calls (including the qserv_* pseudo-functions and UDFs), GROUP
// BY / ORDER BY / LIMIT. SELECT is the only statement: tables are made,
// filled and indexed through sqlengine's Go API, never by SQL text, so no
// query — a user's or a chunk query — can write to an engine.
//
// Subqueries are not supported — the same restriction as the paper's
// prototype.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexed tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // operators and punctuation
)

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are uppercased; idents keep original case
	Pos  int    // byte offset in the input
	End  int    // byte offset just past the token, quotes included
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywordsByLen are the dialect's keywords by length; everything else is an
// identifier. A word is a keyword when it equals one of its length but for
// ASCII case, and its token carries the keyword's own spelling.
var keywordsByLen = [...][]string{
	2: {"BY", "AS", "OR", "IN", "IS", "ON"},
	3: {"AND", "NOT", "ASC"},
	4: {"FROM", "NULL", "LIKE", "DESC", "JOIN", "TRUE"},
	5: {"WHERE", "GROUP", "ORDER", "LIMIT", "INNER", "FALSE"},
	6: {"SELECT"},
	7: {"BETWEEN"},
	8: {"DISTINCT"},
}

// keyword returns the upper-case keyword word spells, or "" when it is an
// identifier. A word holding a byte >= 0x80 is never one: no such word is a
// keyword's length and equal to it under case folding.
func keyword(word string) string {
	if len(word) >= len(keywordsByLen) {
		return ""
	}
	for _, kw := range keywordsByLen[len(word)] {
		// A keyword's first letter, upper-cased as ASCII, rules out most.
		if word[0]&^0x20 == kw[0] && strings.EqualFold(word, kw) {
			return kw
		}
	}
	return ""
}

// Byte classes of the lexer. A byte is read as the rune of its value, as
// Latin-1 would: a byte >= 0x80 is a letter when that rune is one.
const (
	identStart = 1 << iota
	identPart
)

var byteClass = func() (c [256]uint8) {
	for b := range c {
		r := rune(b)
		if unicode.IsLetter(r) || r == '_' {
			c[b] |= identStart | identPart
		}
		if unicode.IsDigit(r) {
			c[b] |= identPart
		}
	}
	return c
}()

// Lexer splits SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error for unlexable input.
func (l *Lexer) Next() (Token, error) {
	t, err := l.lex()
	t.End = l.pos
	return t, err
}

func (l *Lexer) lex() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case byteClass[c]&identStart != 0:
		return l.lexWord(start), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber(start)
	case c == '\'' || c == '"':
		return l.lexString(start, c)
	case c == '`':
		return l.lexQuotedIdent(start)
	default:
		return l.lexOp(start)
	}
}

// Tokenize lexes the whole input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	out := make([]Token, 0, len(src)/3+1) // SQL runs about a token per 3 bytes: one allocation
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	if r < 256 {
		return byteClass[r]&identStart != 0
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < 256 {
		return byteClass[r]&identPart != 0
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) lexWord(start int) Token {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&identPart != 0 {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw := keyword(text); kw != "" {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	seenDot := false
	seenExp := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
				return Token{}, fmt.Errorf("sqlparse: malformed exponent at offset %d", start)
			}
		default:
			return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

// lexString reads a quoted string. Its text is a slice of the input unless
// it holds an escape or a doubled quote; only then is it built anew.
func (l *Lexer) lexString(start int, quote byte) (Token, error) {
	l.pos++ // opening quote
	for i := l.pos; i < len(l.src); i++ {
		c := l.src[i]
		if c == '\\' && i+1 < len(l.src) || c == quote && i+1 < len(l.src) && l.src[i+1] == quote {
			break
		}
		if c == quote {
			text := l.src[l.pos:i]
			l.pos = i + 1
			return Token{Kind: TokString, Text: text, Pos: start}, nil
		}
	}
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\\' && l.pos+1 < len(l.src):
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '0':
				sb.WriteByte(0)
			default:
				sb.WriteByte(next)
			}
			l.pos += 2
		case c == quote:
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				sb.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated string at offset %d", start)
}

func (l *Lexer) lexQuotedIdent(start int) (Token, error) {
	l.pos++ // opening backquote
	end := strings.IndexByte(l.src[l.pos:], '`')
	if end < 0 {
		return Token{}, fmt.Errorf("sqlparse: unterminated quoted identifier at offset %d", start)
	}
	text := l.src[l.pos : l.pos+end]
	l.pos += end + 1
	return Token{Kind: TokIdent, Text: text, Pos: start}, nil
}

// lexOp reads an operator or a punctuation mark, the two-byte ones first.
func (l *Lexer) lexOp(start int) (Token, error) {
	var op string
	next := byte(0)
	if l.pos+1 < len(l.src) {
		next = l.src[l.pos+1]
	}
	switch l.src[l.pos] {
	case '<':
		switch next {
		case '=':
			op = "<="
		case '>':
			op = "<>"
		default:
			op = "<"
		}
	case '>':
		op = ">"
		if next == '=' {
			op = ">="
		}
	case '!':
		if next == '=' {
			op = "!="
		}
	case '=':
		op = "="
	case '+':
		op = "+"
	case '-':
		op = "-"
	case '*':
		op = "*"
	case '/':
		op = "/"
	case '%':
		op = "%"
	case '(':
		op = "("
	case ')':
		op = ")"
	case ',':
		op = ","
	case ';':
		op = ";"
	case '.':
		op = "."
	}
	if op == "" {
		return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", l.src[l.pos], l.pos)
	}
	l.pos += len(op)
	return Token{Kind: TokOp, Text: op, Pos: start}, nil
}
