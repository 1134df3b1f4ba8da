package sqlparse

import (
	"bytes"
	"encoding/binary"
)

// source is the text a statement was parsed from, as its tokens, with the
// literals the parser read from them (by Num-1) and each one's token index.
type source struct {
	toks    []Token
	lits    []*Literal
	litToks []int
}

// Shape is a statement with its literals taken out: what every statement
// that differs from it only in the values of its literals shares. Key is
// its tokens, in which each literal is a placeholder carrying the literal's
// kind (BIGINT, DOUBLE or VARCHAR, after a leading minus is folded in) and
// the index of the first literal spelled as it is; a LIMIT count is no
// literal and stays in Key as its token. Two statements of one Key parse to
// the same tree but for literal values, and a text comparison between parts
// of them that hold literals comes out the same for both.
//
// A statement naming an identifier that is not a plain word (letters,
// digits and '_', not led by a digit), or holding two string literals
// spelled differently but equal under case folding, has a Verbatim shape:
// its Key also spells every literal, so it is shared only by statements
// that spell the same. A name compared case-blind to text that holds a
// literal could otherwise decide what such a statement plans to.
type Shape struct {
	Key string
	// Literals are the statement's numbered literals, by Num-1.
	Literals []*Literal
	// Groups[i] is the index of the first literal spelled as Literals[i]
	// is.
	Groups   []int
	Verbatim bool

	// spelt is the literals' texts one after another, ends where each
	// ends.
	spelt string
	ends  []int
}

// Spelling is the text of literal i, Literals[i].SQL() as it was when the
// shape was taken.
func (sh *Shape) Spelling(i int) string {
	if i == 0 {
		return sh.spelt[:sh.ends[0]]
	}
	return sh.spelt[sh.ends[i-1]:sh.ends[i]]
}

// AppendSpellings appends the text of each literal to b, each followed by a
// zero byte. Literals of known kinds read back from it one way only: a
// number's text holds neither a quote nor a zero byte, and a string's is
// quoted with every quote inside doubled.
func (sh *Shape) AppendSpellings(b []byte) []byte {
	for i := range sh.ends {
		b = append(b, sh.Spelling(i)...)
		b = append(b, 0)
	}
	return b
}

// Placeholder kinds in a Key; a token's own kind is below 0x80.
const (
	shapeInt    = 0x81
	shapeFloat  = 0x82
	shapeString = 0x83
	shapeOther  = 0x84
	shapeSpelt  = 0xff // the literals' spellings follow
)

// Shape returns the statement's shape. ok is false for a statement that
// was not returned by ParseSelect (built, or a copy): it has no text to
// take the shape of. A statement changed after it was parsed is no longer
// described by the shape of its text.
func (s *Select) Shape() (sh Shape, ok bool) {
	src := s.src
	if src == nil {
		return Shape{}, false
	}
	sh.Literals = src.lits
	n := len(src.lits)
	ints := make([]int, 2*n)
	sh.Groups, sh.ends = ints[:n:n], ints[n:]
	// The spellings and the key are cut from one string, spellings first.
	var scratch [512]byte
	buf := scratch[:0]
	for i, l := range src.lits {
		buf = l.appendText(buf)
		sh.ends[i] = len(buf)
	}
	var firsts map[string]int // by spelling, past a few literals
	if len(src.lits) > 16 {
		firsts = make(map[string]int, len(src.lits))
	}
	var strs []int // the first literal of each group that is a string
	for i := range src.lits {
		sh.Groups[i] = i
		if firsts != nil {
			if j, seen := firsts[string(spellingIn(buf, sh.ends, i))]; seen {
				sh.Groups[i] = j
			} else {
				firsts[string(spellingIn(buf, sh.ends, i))] = i
			}
		}
		for j := 0; firsts == nil && j < i; j++ {
			if sh.Groups[j] == j && bytes.Equal(spellingIn(buf, sh.ends, j), spellingIn(buf, sh.ends, i)) {
				sh.Groups[i] = j
				break
			}
		}
		if _, str := src.lits[i].Val.(string); str && sh.Groups[i] == i {
			strs = append(strs, i)
		}
	}
	sh.Verbatim = foldsTogether(strs, buf, sh.ends)

	key := buf
	next := 0
	for i, t := range src.toks {
		if t.Kind == TokEOF {
			break
		}
		if next < len(src.litToks) && src.litToks[next] == i {
			kind := byte(shapeOther)
			switch src.lits[next].Val.(type) {
			case int64:
				kind = shapeInt
			case float64:
				kind = shapeFloat
			case string:
				kind = shapeString
			}
			key = append(key, kind)
			key = binary.AppendUvarint(key, uint64(sh.Groups[next]))
			next++
			continue
		}
		if t.Kind == TokIdent && !plainWord(t.Text) {
			sh.Verbatim = true
		}
		key = append(key, byte(t.Kind))
		key = binary.AppendUvarint(key, uint64(len(t.Text)))
		key = append(key, t.Text...)
	}
	if sh.Verbatim {
		key = append(key, shapeSpelt)
		for i := range src.lits {
			key = append(append(key, spellingIn(buf, sh.ends, i)...), 0)
		}
	}
	all := string(key)
	sh.spelt, sh.Key = all[:len(buf)], all[len(buf):]
	return sh, true
}

// spellingIn is the text of literal i in buf, where literal i ends at ends[i].
func spellingIn(buf []byte, ends []int, i int) []byte {
	if i == 0 {
		return buf[:ends[0]]
	}
	return buf[ends[i-1]:ends[i]]
}

// foldsTogether reports whether two of the string literals strs lists,
// spelled differently, are equal under case folding — or whether there are
// too many to compare them pairwise, which is as good as a yes.
func foldsTogether(strs []int, buf []byte, ends []int) bool {
	const most = 32
	if len(strs) > most {
		return true
	}
	for i, a := range strs {
		for _, b := range strs[:i] {
			x, y := spellingIn(buf, ends, a), spellingIn(buf, ends, b)
			if bytes.EqualFold(x, y) || bytes.Equal(bytes.ToLower(x), bytes.ToLower(y)) {
				return true
			}
		}
	}
	return false
}

// plainWord reports whether an identifier is letters, digits and '_' of
// ASCII, not led by a digit: text that holds a literal never reads as one.
func plainWord(s string) bool {
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return false
		}
	}
	return true
}
