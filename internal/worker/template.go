package worker

import (
	"sync"

	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/partition"
)

// A full-scan chunk query is one text many times over: the czar renders a
// user query's statements for each of its chunks — for the first listed
// subchunk under a SUBCHUNKS header (section 5.3: a near-neighbour job is the
// subchunk against itself, then against its overlap) — and the 94 jobs of a
// full-sky scan differ in a chunk id. A stmtTemplate is that text parsed and
// compiled once: its statements prepared on the engine (sqlengine.Prepared),
// and the text cut into a core.Unit at every FROM entry that is the naming
// codec's (internal/meta) name of a piece of the job's chunk — the same type,
// and the same Render, the czar writes payloads with.
//
// Reuse is exact or it is not taken: a job takes a template only when the
// template's unit rendered for the job's chunk and first subchunk is the
// job's statement text, byte for byte. That text parses to the template's
// statements with those FROM names written in, which is what Prepared.Run
// runs over them (and it re-checks the schemas); anything else — another
// literal, another case, a comment — is parsed as it always was. Interactive
// jobs are one statement for one chunk with a literal of their own: they
// never go through a template.
type stmtTemplate struct {
	unit  *core.Unit
	stmts []jobStmt
	holes []hole // the unit's holes, in order
}

// hole is a table name cut out of a template's text: FROM entry from of
// statement stmt, which names ref.
type hole struct {
	stmt, from int
	ref        meta.TableRef
}

// newTemplate makes a template of the statements a job for chunk and first
// subchunk s0 just parsed from text and ran; nil when they are not all
// SELECTs, or name no table to cut out.
func newTemplate(reg *meta.Registry, chunk partition.ChunkID, s0 partition.SubChunkID, text string, stmts []jobStmt) *stmtTemplate {
	t := &stmtTemplate{stmts: stmts}
	var cuts []core.Hole
	for si := range stmts {
		st := &stmts[si]
		if st.prep == nil {
			return nil
		}
		for fi, from := range st.sel.From {
			ref, ok := reg.ResolveTable(from.Table)
			// The name's extent is the token's, less its backquotes.
			lo, hi := from.Pos, from.End
			if hi > lo && text[lo] == '`' {
				lo, hi = lo+1, hi-1
			}
			if !ok || ref.Kind == meta.SharedTable || ref.Chunk != chunk || (ref.Kind.Subchunk() && ref.Sub != s0) || text[lo:hi] != ref.Name() {
				continue // no piece of this chunk (and subchunk) spelled as the codec spells it: it stays text
			}
			cuts = append(cuts, core.Hole{Pos: lo, End: hi, Ref: ref})
			t.holes = append(t.holes, hole{stmt: si, from: fi, ref: ref})
		}
	}
	if len(cuts) == 0 {
		return nil
	}
	t.unit = core.NewUnit(text, cuts)
	return t
}

// bind names every statement's FROM entries for a job over chunk and first
// subchunk s0, and hands the job the statements.
func (t *stmtTemplate) bind(chunk partition.ChunkID, s0 partition.SubChunkID) []jobStmt {
	for i := range t.stmts {
		st := &t.stmts[i]
		for fi, from := range st.sel.From {
			st.names[fi] = from.Table
		}
	}
	for _, h := range t.holes {
		h.ref.Chunk, h.ref.Sub = chunk, s0
		t.stmts[h.stmt].names[h.from] = h.ref.Name()
	}
	return t.stmts
}

// templateCacheSize bounds a worker's template cache: the statements of
// the few user queries whose jobs are in flight at once, with room for the
// copies concurrent slots make of one.
const templateCacheSize = 16

// templateCache holds the templates no job is using, most recently used
// first. A job takes one out to use it — a Prepared runs on one goroutine
// at a time — and puts it back when done; two jobs after the same text at
// once find one entry, and the second makes, and later files, a copy.
type templateCache struct {
	mu      sync.Mutex
	entries []*stmtTemplate
}

// take takes out the template whose unit renders as text for chunk and
// first subchunk s0.
func (c *templateCache) take(text string, chunk partition.ChunkID, s0 partition.SubChunkID) *stmtTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range c.entries {
		if t.unit.Matches(text, chunk, s0) {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			return t
		}
	}
	return nil
}

func (c *templateCache) put(t *stmtTemplate) {
	for i := range t.stmts {
		t.stmts[i].tables = nil // the last job's, which a template must not keep alive
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == templateCacheSize {
		c.entries = c.entries[:templateCacheSize-1]
	}
	c.entries = append(c.entries, nil)
	copy(c.entries[1:], c.entries)
	c.entries[0] = t
}
