package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// This is the lexer as it was before keywords were matched without
// folding and operators by a byte switch, kept as the reference the lexer
// must agree with token for token (TestLexerMatchesReference).

// refKeywords recognized by the dialect. Everything else is an identifier.
var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"BY": true, "LIMIT": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"BETWEEN": true, "IN": true, "IS": true, "NULL": true, "LIKE": true,
	"ASC": true, "DESC": true, "DISTINCT": true, "JOIN": true, "INNER": true,
	"ON": true, "TRUE": true, "FALSE": true,
}

// refLexer splits SQL text into tokens.
type refLexer struct {
	src string
	pos int
}

// newRefLexer creates a lexer over src.
func newRefLexer(src string) *refLexer { return &refLexer{src: src} }

// Next returns the next token, or an error for unlexable input.
func (l *refLexer) Next() (Token, error) {
	t, err := l.lex()
	t.End = l.pos
	return t, err
}

func (l *refLexer) lex() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case refIsIdentStart(rune(c)):
		return l.lexWord(start), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '.' && l.pos+1 < len(l.src) && refIsDigit(l.src[l.pos+1]):
		return l.lexNumber(start)
	case c == '\'' || c == '"':
		return l.lexString(start, c)
	case c == '`':
		return l.lexQuotedIdent(start)
	default:
		return l.lexOp(start)
	}
}

// refTokenize lexes the whole input.
func refTokenize(src string) ([]Token, error) {
	l := newRefLexer(src)
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

func (l *refLexer) skipSpaceAndComments() {
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

func refIsIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func refIsIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *refLexer) lexWord(start int) Token {
	for l.pos < len(l.src) && refIsIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if refKeywords[upper] {
		return Token{Kind: TokKeyword, Text: upper, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

func (l *refLexer) lexNumber(start int) (Token, error) {
	seenDot := false
	seenExp := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case refIsDigit(c):
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
			if l.pos >= len(l.src) || !refIsDigit(l.src[l.pos]) {
				return Token{}, fmt.Errorf("sqlparse: malformed exponent at offset %d", start)
			}
		default:
			return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *refLexer) lexString(start int, quote byte) (Token, error) {
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

func (l *refLexer) lexQuotedIdent(start int) (Token, error) {
	l.pos++ // opening backquote
	end := strings.IndexByte(l.src[l.pos:], '`')
	if end < 0 {
		return Token{}, fmt.Errorf("sqlparse: unterminated quoted identifier at offset %d", start)
	}
	text := l.src[l.pos : l.pos+end]
	l.pos += end + 1
	return Token{Kind: TokIdent, Text: text, Pos: start}, nil
}

// multi-char refOperators, longest first.
var refOperators = []string{"<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ";", "."}

func (l *refLexer) lexOp(start int) (Token, error) {
	rest := l.src[l.pos:]
	for _, op := range refOperators {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return Token{Kind: TokOp, Text: op, Pos: start}, nil
		}
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", l.src[l.pos], l.pos)
}
