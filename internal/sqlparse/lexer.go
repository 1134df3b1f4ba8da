// Package sqlparse implements the SQL dialect Qserv accepts from users
// and generates for workers (paper section 5.3): SELECT with expressions,
// comma and INNER joins, aliases, BETWEEN/IN, aggregate and scalar
// function calls (including the qserv_* pseudo-functions and UDFs), GROUP
// BY / ORDER BY / LIMIT, plus the DDL/DML subset needed to ship results
// between engines as SQL text (CREATE TABLE, DROP TABLE, INSERT).
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

// keywords recognized by the dialect. Everything else is an identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"BY": true, "LIMIT": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"BETWEEN": true, "IN": true, "IS": true, "NULL": true, "LIKE": true,
	"ASC": true, "DESC": true, "DISTINCT": true, "JOIN": true, "INNER": true,
	"ON": true, "CREATE": true, "TABLE": true, "DROP": true, "IF": true,
	"EXISTS": true, "INSERT": true, "INTO": true, "VALUES": true,
	"INDEX": true, "TRUE": true, "FALSE": true, "USING": true,
}

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
	case isIdentStart(rune(c)):
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
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) lexWord(start int) Token {
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return Token{Kind: TokKeyword, Text: upper, Pos: start}
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

func (l *Lexer) lexString(start int, quote byte) (Token, error) {
	l.pos++ // opening quote
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

// multi-char operators, longest first.
var operators = []string{"<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ";", "."}

func (l *Lexer) lexOp(start int) (Token, error) {
	rest := l.src[l.pos:]
	for _, op := range operators {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return Token{Kind: TokOp, Text: op, Pos: start}, nil
		}
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", l.src[l.pos], l.pos)
}
