package core

import (
	"fmt"
	"strings"
	"sync"

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
//
// A plan template's units also have a hole wherever a literal of the user's
// statement is; Render fills those with one statement's literals.
type Unit struct {
	pieces []string // the text between the holes: len(holes)+1 of them
	holes  []hole
}

// hole is a cut in a unit's text, at [Pos, End): the table-name token of a
// piece of a catalog table, inside any backquotes (Render fills in Ref's
// Chunk and Sub), or, where Lit is not 0, the literal numbered Lit.
type hole struct {
	Pos, End int
	Ref      meta.TableRef
	Lit      int
}

// newUnit cuts text at holes, which are in text order.
func newUnit(text string, holes []hole) *Unit {
	u := &Unit{holes: holes, pieces: make([]string, 0, len(holes)+1)}
	at := 0
	for _, h := range holes {
		u.pieces = append(u.pieces, text[at:h.Pos])
		at = h.End
	}
	u.pieces = append(u.pieces, text[at:])
	return u
}

// Render is the unit's text for chunk and sub: every table hole holds the
// name of its piece of that chunk, and of that subchunk for the two subchunk
// kinds, and every literal hole the spelling of that literal of sh.
func (u *Unit) Render(chunk partition.ChunkID, sub partition.SubChunkID, sh *sqlparse.Shape) string {
	size := len(u.pieces[len(u.holes)])
	for i, h := range u.holes {
		size += len(u.pieces[i])
		if h.Lit != 0 {
			size += len(sh.Spelling(h.Lit - 1))
		} else {
			size += len(h.Ref.Info.Name) + 32 // room for FullOverlap_<chunk>_<sub>
		}
	}
	b := make([]byte, 0, size)
	for i, h := range u.holes {
		b = append(b, u.pieces[i]...)
		if h.Lit != 0 {
			b = append(b, sh.Spelling(h.Lit-1)...)
			continue
		}
		ref := h.Ref
		ref.Chunk, ref.Sub = chunk, sub
		b = ref.AppendName(b)
	}
	return string(append(b, u.pieces[len(u.holes)]...))
}

// A deparse is planUnit's buffer for a statement's text and spans, kept
// for the next build.
type deparse struct {
	text []byte
	sp   sqlparse.Spans
}

var deparses = sync.Pool{New: func() any { return new(deparse) }}

// planUnit deparses a worker statement and cuts it at the table names of the
// FROM entries refs gives a piece for (Info nil: a replicated table, which
// keeps its name) and, when cutLiterals is set, at its numbered literals,
// where the deparser reports it wrote them. A mark left in the text is a
// literal that reached it other than as a literal node, which a template
// could not bind.
func planUnit(sel *sqlparse.Select, refs []meta.TableRef, cutLiterals bool) (*Unit, error) {
	d := deparses.Get().(*deparse)
	defer deparses.Put(d)
	sp := &d.sp
	sp.Tables, sp.Literals = sp.Tables[:0], sp.Literals[:0]
	d.text = sel.AppendSQL(d.text[:0], sp)
	text := string(d.text)
	if len(sp.Tables) != len(refs) {
		return nil, fmt.Errorf("core: worker statement %s has %d FROM entries, want %d", text, len(sp.Tables), len(refs))
	}
	lits := sp.Literals
	if !cutLiterals {
		lits = nil
	}
	holes := make([]hole, 0, len(refs)+len(lits))
	for i, ref := range refs {
		t := sp.Tables[i]
		for len(lits) > 0 && lits[0].Pos < t.Pos {
			holes = append(holes, hole{Pos: lits[0].Pos, End: lits[0].End, Lit: lits[0].Num})
			lits = lits[1:]
		}
		if ref.Info != nil {
			holes = append(holes, hole{Pos: t.Pos, End: t.End, Ref: ref})
		}
	}
	for _, l := range lits {
		holes = append(holes, hole{Pos: l.Pos, End: l.End, Lit: l.Num})
	}
	u := newUnit(text, holes)
	for _, piece := range u.pieces {
		if strings.IndexByte(piece, sqlparse.MarkOpen) >= 0 {
			return nil, fmt.Errorf("core: worker statement %q holds a literal the plan cannot bind", text)
		}
	}
	return u, nil
}
