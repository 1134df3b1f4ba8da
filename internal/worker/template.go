package worker

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/meta"
	"repro/internal/partition"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// A full-scan chunk query is one text many times over. The czar renders
// one statement template per user query: a near-neighbour job carries it
// twice per subchunk (section 5.3: the subchunk against itself, then
// against its overlap), 72 to 90 statements that differ in a subchunk id,
// and the 94 jobs of a full-sky scan carry it once each, differing in a
// chunk id. A stmtTemplate is that text parsed and compiled once: the
// statements of its first occurrence — the job's first pair, or its one
// statement — prepared on the engine (sqlengine.Prepared), and their text
// cut at the table names that carry the ids.
//
// Reuse is exact or it is not taken. The text ahead in a job is matched
// byte for byte against the template's own text with nothing changed but
// those table-name tokens, each rewritten by the naming codec (internal/meta)
// for the job's chunk and for one subchunk read off the text; a name is cut
// out only where it is a FROM entry, spelled as the codec spells it, under an
// alias (so no expression can call the table by its name). Text that matches
// lexes to the template's tokens but for those identifiers, so it parses to
// the template's statements over other tables of the same catalog table —
// which is what Prepared.Run runs, and it re-checks the schemas. Anything
// else — another radius, an extra conjunct, a literal that happens to hold
// `_<chunk>_<sub>`, a pair in another order — does not match and is parsed
// as it always was. Interactive jobs are one statement for one chunk with a
// literal of their own: they never go through a template.
type stmtTemplate struct {
	// key files the template in the worker's cache (templateKey of the text
	// it was made from).
	key string
	// lits are the pieces of the text between the table names cut out of it,
	// len(holes)+1 of them; the last ends with the ';' that closes the last
	// statement.
	lits  []string
	holes []hole
	stmts []templateStmt
	// bound is the chunk prefixes was made for.
	bound    partition.ChunkID
	prefixes []string
}

// hole is a table name cut out of a template's text: FROM entry from of
// statement stmt, a chunk, overlap or subchunk table of catalog table base.
type hole struct {
	stmt, from int
	base       string
	kind       meta.NameKind
}

// templateStmt is one statement of a template; names is the scratch Run is
// handed its tables in.
type templateStmt struct {
	sel   *sqlparse.Select
	prep  *sqlengine.Prepared
	names []string
}

// name spells a hole's table for a chunk and subchunk; digits false stops a
// subchunk kind's name after the '_' the subchunk id follows.
func (h hole) name(chunk partition.ChunkID, sub partition.SubChunkID, digits bool) string {
	switch h.kind {
	case meta.ChunkTable:
		return meta.ChunkTableName(h.base, chunk)
	case meta.ChunkOverlapTable:
		return meta.OverlapTableName(h.base, chunk)
	}
	name := meta.SubChunkTableName(h.base, chunk, sub)
	if h.kind == meta.SubChunkOverlapTable {
		name = meta.SubChunkOverlapTableName(h.base, chunk, sub)
	}
	if !digits {
		name = name[:strings.LastIndexByte(name, '_')+1]
	}
	return name
}

func (h hole) perSubchunk() bool {
	return h.kind == meta.SubChunkTable || h.kind == meta.SubChunkOverlapTable
}

// newTemplate makes a template of statements just parsed from src[start:end]
// by a job for chunk; nil when they are not all SELECTs closed by a ';', or
// name no table to cut out. Their Prepareds come with them.
func newTemplate(reg *meta.Registry, chunk partition.ChunkID, src string, start, end int, sels []*sqlparse.Select, preps []*sqlengine.Prepared) *stmtTemplate {
	if src[end-1] != ';' {
		return nil
	}
	t := &stmtTemplate{key: templateKey(src[start:], chunk), bound: -1}
	sub, at := partition.SubChunkID(-1), start
	for si, sel := range sels {
		t.stmts = append(t.stmts, templateStmt{sel: sel, prep: preps[si], names: make([]string, len(sel.From))})
		for fi, from := range sel.From {
			ref, ok := reg.ResolveTable(from.Table)
			if !ok || ref.Kind == meta.SharedTable || ref.Chunk != chunk || from.Alias == "" || from.End == 0 {
				continue
			}
			h := hole{stmt: si, from: fi, base: ref.Info.Name, kind: ref.Kind}
			if h.perSubchunk() {
				if sub < 0 {
					sub = ref.Sub
				}
				if ref.Sub != sub {
					continue
				}
			}
			// The name's extent is the token's, less its backquotes.
			lo, hi := from.Pos, from.End
			if src[lo] == '`' {
				lo, hi = lo+1, hi-1
			}
			if src[lo:hi] != h.name(chunk, ref.Sub, true) {
				continue // not the codec's spelling (another case): it stays text
			}
			t.lits, t.holes = append(t.lits, strings.Clone(src[at:lo])), append(t.holes, h)
			at = hi
		}
	}
	if len(t.holes) == 0 {
		return nil
	}
	t.lits = append(t.lits, strings.Clone(src[at:end]))
	return t
}

// match reports whether text begins with the template's text rewritten for
// chunk and some one subchunk, and if so how long that beginning is and
// which subchunk it names (-1 when the template names no subchunk table).
func (t *stmtTemplate) match(text string, chunk partition.ChunkID) (n int, sub partition.SubChunkID, ok bool) {
	t.bind(chunk)
	sub = -1
	for i, h := range t.holes {
		if !strings.HasPrefix(text[n:], t.lits[i]) || !strings.HasPrefix(text[n+len(t.lits[i]):], t.prefixes[i]) {
			return 0, 0, false
		}
		n += len(t.lits[i]) + len(t.prefixes[i])
		if !h.perSubchunk() {
			continue
		}
		// The subchunk id as the codec prints one: digits, no leading zero.
		id, digits := 0, 0
		for ; n+digits < len(text) && text[n+digits] >= '0' && text[n+digits] <= '9' && digits < 9; digits++ {
			id = id*10 + int(text[n+digits]-'0')
		}
		if digits == 0 || (digits > 1 && text[n] == '0') || (sub >= 0 && partition.SubChunkID(id) != sub) {
			return 0, 0, false
		}
		sub = partition.SubChunkID(id)
		n += digits
	}
	last := t.lits[len(t.holes)]
	if !strings.HasPrefix(text[n:], last) {
		return 0, 0, false
	}
	return n + len(last), sub, true
}

// bind spells the holes' names for chunk, up to where a subchunk id follows.
func (t *stmtTemplate) bind(chunk partition.ChunkID) {
	if t.bound == chunk {
		return
	}
	t.bound, t.prefixes = chunk, t.prefixes[:0]
	for _, h := range t.holes {
		t.prefixes = append(t.prefixes, h.name(chunk, 0, false))
	}
}

// tables fills every statement's names with the tables it reads for chunk
// and sub.
func (t *stmtTemplate) tables(chunk partition.ChunkID, sub partition.SubChunkID) {
	t.bind(chunk)
	for i := range t.stmts {
		st := &t.stmts[i]
		for fi, from := range st.sel.From {
			st.names[fi] = from.Table
		}
	}
	id := strconv.Itoa(int(sub))
	for i, h := range t.holes {
		name := t.prefixes[i]
		if h.perSubchunk() {
			name += id
		}
		t.stmts[h.stmt].names[h.from] = name
	}
}

// templateKey is what a template is filed under and looked for by: the
// first line of the statements' text, with the chunk id (and a subchunk id
// behind it) lifted out of everything that looks like a table-name suffix.
// It only has to send the jobs of one user query to the same entry; whether
// an entry fits is match's to say.
func templateKey(text string, chunk partition.ChunkID) string {
	line, _, _ := strings.Cut(text, "\n")
	id := meta.ChunkTableName("", chunk) // _<chunk>
	var key strings.Builder
	for {
		i := strings.Index(line, id)
		if i < 0 {
			key.WriteString(line)
			return key.String()
		}
		key.WriteString(line[:i+1])
		line = line[i+len(id):]
		digit := func(s string) bool { return s != "" && s[0] >= '0' && s[0] <= '9' }
		if digit(line) {
			key.WriteString(id[1:]) // a longer number: not this chunk's id
			continue
		}
		if strings.HasPrefix(line, "_") && digit(line[1:]) {
			for line = line[1:]; digit(line); line = line[1:] {
			}
		}
	}
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

func (c *templateCache) take(key string) *stmtTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range c.entries {
		if t.key == key {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			return t
		}
	}
	return nil
}

func (c *templateCache) put(t *stmtTemplate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == templateCacheSize {
		c.entries = c.entries[:templateCacheSize-1]
	}
	c.entries = append(c.entries, nil)
	copy(c.entries[1:], c.entries)
	c.entries[0] = t
}
