package core

import (
	"fmt"
	"strings"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlparse"
)

// A Unit is the statement text of a chunk query with a hole wherever a FROM
// entry names a piece of a partitioned table (paper sections 5.3-5.4):
// Render spells the naming codec's (internal/meta) name of that piece for a
// chunk and a subchunk into each hole and changes nothing else, so a literal,
// a column or an alias that reads like a table name is never rewritten. A
// plan keeps its worker statements as Units and renders them per chunk.
type Unit struct {
	pieces []string // the text between the holes: len(holes)+1 of them
	holes  []meta.TableRef
}

// hole is a table-name token to cut out of a unit's text: its extent, inside
// any backquotes, and the piece of a catalog table it names (Render fills in
// Ref's Chunk and Sub).
type hole struct {
	Pos, End int
	Ref      meta.TableRef
}

// newUnit cuts text at holes, which are in text order.
func newUnit(text string, holes []hole) *Unit {
	u := &Unit{}
	at := 0
	for _, h := range holes {
		u.pieces, u.holes = append(u.pieces, text[at:h.Pos]), append(u.holes, h.Ref)
		at = h.End
	}
	u.pieces = append(u.pieces, text[at:])
	return u
}

// Render is the unit's text for chunk and sub: every hole holds the name of
// its piece of that chunk, and of that subchunk for the two subchunk kinds.
func (u *Unit) Render(chunk partition.ChunkID, sub partition.SubChunkID) string {
	var sb strings.Builder
	for i, ref := range u.holes {
		ref.Chunk, ref.Sub = chunk, sub
		sb.WriteString(u.pieces[i])
		sb.WriteString(ref.Name())
	}
	sb.WriteString(u.pieces[len(u.holes)])
	return sb.String()
}

// planUnit deparses a worker statement and cuts it at the table-name tokens
// of the FROM entries refs gives a piece for (Info nil: a replicated table,
// which keeps its name). The tokens are found by lexing the text: every FROM
// entry of a worker statement is `db.table AS alias` (buildTemplates
// qualifies and aliases each), and the dialect has no subquery, so the first
// FROM keyword opens the clause and each entry is six tokens with the ','
// that follows it, its table the third.
func planUnit(sel *sqlparse.Select, refs []meta.TableRef) (*Unit, error) {
	text := sel.SQL()
	lx := sqlparse.NewLexer(text)
	next := func() sqlparse.Token {
		t, _ := lx.Next() // the deparser's text lexes
		return t
	}
	for t := next(); t.Kind != sqlparse.TokKeyword || t.Text != "FROM"; t = next() {
		if t.Kind == sqlparse.TokEOF {
			return nil, fmt.Errorf("core: no FROM clause in worker statement %s", text)
		}
	}
	var holes []hole
	for i, ref := range refs {
		var entry [6]sqlparse.Token
		for k := range entry {
			entry[k] = next()
		}
		lo, hi := entry[2].Pos, entry[2].End
		if hi > lo && text[lo] == '`' {
			lo, hi = lo+1, hi-1
		}
		if text[lo:hi] != sel.From[i].Table {
			return nil, fmt.Errorf("core: FROM entry %d of worker statement %s is not where it is looked for", i, text)
		}
		if ref.Info != nil {
			holes = append(holes, hole{Pos: lo, End: hi, Ref: ref})
		}
	}
	return newUnit(text, holes), nil
}
